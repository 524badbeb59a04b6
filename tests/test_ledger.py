"""Transactions, gas metering, token incentives, and chain integrity."""

import hashlib
import itertools
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from gossipseg.cas import Cid
from gossipseg.errors import LedgerError
from gossipseg.ledger import (
    GENESIS_HASH,
    OPERATIONS,
    Ledger,
    Transaction,
    gas_report,
    merkle_root,
)
from gossipseg.model import SegmentSpec


def cid_of(data: bytes) -> Cid:
    return Cid(hashlib.sha256(data).digest())


@pytest.fixture
def ledger():
    led = Ledger(initial_tokens=100)
    led.deploy_contracts()
    for pid in range(4):
        led.register(pid, f"cred-{pid}")
    return led


def test_gas_table_frozen_costs():
    assert {name: (op.contract, op.gas) for name, op in OPERATIONS.items()} == {
        "deploy_contract_1": (1, 1_418_084),
        "deploy_contract_2": (2, 1_566_634),
        "register": (1, 100_340),
        "save_cluster_centers": (1, 257_000),
        "assign_segment": (1, 120_450),
        "get_segment": (1, 35_210),
        "save_hash": (2, 50_527),
        "validate_update": (2, 65_800),
        "penalize": (2, 77_102),
        # election and minting are not metered
        "reward": (2, 0),
        "elect_leader": (2, 0),
    }
    with pytest.raises(TypeError):
        OPERATIONS["register"] = OPERATIONS["reward"]


def test_unknown_operation_is_not_recorded(ledger):
    pending = ledger.pending_count()
    with pytest.raises(KeyError):
        ledger._record("mint", "0", {})
    assert ledger.pending_count() == pending


def test_cumulative_gas_matches_manual_sum(ledger):
    want = (
        OPERATIONS["deploy_contract_1"].gas
        + OPERATIONS["deploy_contract_2"].gas
        + 4 * OPERATIONS["register"].gas
    )
    assert ledger.cumulative_gas() == want
    assert ledger.total_gas() == 0  # nothing sealed yet
    ledger.seal_block(1)
    assert ledger.total_gas() == want


def test_register_rejects_duplicates(ledger):
    with pytest.raises(LedgerError):
        ledger.register(0, "fresh-cred")
    with pytest.raises(LedgerError):
        ledger.register(9, "cred-1")
    assert list(ledger._balances) == [0, 1, 2, 3]


def test_deploy_only_once(ledger):
    with pytest.raises(LedgerError):
        ledger.deploy_contracts()


def test_segment_flow_requires_clustering(ledger):
    spec = SegmentSpec(cluster_id=0, start=0, end=3)
    with pytest.raises(LedgerError):
        ledger.assign_segment(0, spec)
    ledger.save_cluster_centers([np.array([0.5, 0.5])], caller=0)
    ledger.assign_segment(0, spec)
    assert ledger.get_segment(0) == spec
    with pytest.raises(LedgerError):
        ledger.get_segment(1)


def test_get_segment_is_charged(ledger):
    ledger.save_cluster_centers([np.array([1.0])], caller=0)
    ledger.assign_segment(0, SegmentSpec(cluster_id=0, start=0, end=1))
    before = ledger.cumulative_gas()
    ledger.get_segment(0)
    assert ledger.cumulative_gas() == before + OPERATIONS["get_segment"].gas


def test_save_hash_replay_rejected_without_side_effects(ledger):
    cid = cid_of(b"update-1")
    ledger.save_hash(2, cid, "r0")
    gas_before = ledger.cumulative_gas()
    pending_before = ledger.pending_count()
    tokens_before = ledger.balance(2)
    with pytest.raises(LedgerError):
        ledger.save_hash(2, cid, "r0")
    assert ledger.cumulative_gas() == gas_before
    assert ledger.pending_count() == pending_before
    assert ledger.balance(2) == tokens_before
    # the same pair under another tag is a new record, e.g. a leader round
    # that reproduces an earlier global model
    assert not ledger.has_hash_record(2, cid, "r5")
    ledger.save_hash(2, cid, "r5")
    assert ledger.hash_records(round_tag="r0", peers={2}) == {2: cid}
    assert ledger.hash_records(round_tag="r5", peers={2}) == {2: cid}
    # a different peer may record the same cid
    ledger.save_hash(3, cid, "r0")
    assert ledger.has_hash_record(3, cid, "r0")
    assert not ledger.has_hash_record(3, cid, "r5")


def test_hash_records_filtering(ledger):
    a, b = cid_of(b"a"), cid_of(b"b")
    ledger.save_hash(0, a, "r0")
    ledger.save_hash(1, b, "r1")
    ledger.save_hash(2, a, "r1")
    gas_before = ledger.cumulative_gas()
    assert ledger.hash_records(round_tag="r1") == {1: b, 2: a}
    assert ledger.hash_records(round_tag="r1", peers={2, 3}) == {2: a}
    # reads are free
    assert ledger.cumulative_gas() == gas_before
    # a later record of the same peer and tag is the one read
    ledger.save_hash(1, a, "r1")
    assert ledger.hash_records(round_tag="r1", peers={1}) == {1: a}
    assert ledger.hash_records(round_tag="r0") == {0: a}


def test_validate_update_charged_both_ways(ledger):
    cid = cid_of(b"payload")
    ledger.save_hash(0, cid, "r0")
    g0 = ledger.cumulative_gas()
    assert ledger.validate_update(cid, cid) is True
    assert ledger.validate_update(cid, cid_of(b"tampered")) is False
    assert ledger.validate_update(cid_of(b"unknown"), cid_of(b"unknown")) is False
    assert ledger.cumulative_gas() == g0 + 3 * OPERATIONS["validate_update"].gas


def test_token_incentives(ledger):
    assert ledger.balance(0) == 100
    assert ledger.reward(0, 25) == 125
    assert ledger.penalize(0, 30) == 95
    # penalties floor at zero instead of going negative
    assert ledger.penalize(0, 10_000) == 0
    assert ledger.balance(0) == 0
    with pytest.raises(LedgerError):
        ledger.reward(99, 5)
    with pytest.raises(LedgerError):
        ledger.penalize(0, -1)


def test_reward_is_free_and_penalize_is_charged(ledger):
    g0 = ledger.cumulative_gas()
    ledger.reward(1, 10)
    assert ledger.cumulative_gas() == g0
    ledger.penalize(1, 10)
    assert ledger.cumulative_gas() == g0 + OPERATIONS["penalize"].gas


def elect_oracle(ledger, tick):
    peers = list(ledger._balances)
    tip = ledger.blocks[-1].block_hash() if ledger.blocks else GENESIS_HASH
    digest = hashlib.sha256(tip + struct.pack("<q", tick)).digest()
    return peers[int.from_bytes(digest, "big") % len(peers)]


def test_leader_election_matches_hash_oracle(ledger):
    for tick in (0, 1, 7, 1000):
        want = elect_oracle(ledger, tick)
        assert ledger.elect_leader(tick) == want
    ledger.seal_block(5)
    # a new tip changes the draw input
    assert ledger.elect_leader(3) == elect_oracle(ledger, 3)


def test_leader_election_is_free_and_total(ledger):
    g0 = ledger.cumulative_gas()
    seen = {ledger.elect_leader(t) for t in range(64)}
    assert ledger.cumulative_gas() == g0
    assert seen <= set(range(4))
    assert len(seen) >= 2  # 64 draws over 4 peers hitting one value is 2^-96


def test_merkle_root_matches_manual_tree():
    d = [hashlib.sha256(bytes([i])).digest() for i in range(3)]
    h01 = hashlib.sha256(d[0] + d[1]).digest()
    h22 = hashlib.sha256(d[2] + d[2]).digest()
    assert merkle_root(d) == hashlib.sha256(h01 + h22).digest()
    assert merkle_root([d[0]]) == d[0]
    with pytest.raises(LedgerError):
        merkle_root([])


def test_chain_links_and_verification(ledger):
    b0 = ledger.seal_block(10)
    ledger.reward(0, 1)
    b1 = ledger.seal_block(20)
    assert b0.height == 0 and b1.height == 1
    assert b0.prev_hash == GENESIS_HASH
    assert b1.prev_hash == b0.block_hash()
    assert b0.timestamp == 10 and b1.timestamp == 20
    assert ledger.verify_chain()
    with pytest.raises(LedgerError):
        ledger.seal_block(30)  # nothing pending


def test_tampered_transaction_breaks_verification(ledger):
    ledger.seal_block(1)
    ledger.blocks[0].transactions[2].payload["credential_digest"] = "forged"
    assert not ledger.verify_chain()


def test_dump_format(ledger):
    ledger.save_hash(0, cid_of(b"x"), "r0")
    ledger.seal_block(3)
    text = ledger.dump_text()
    lines = text.splitlines()
    assert lines[0] == "height\top\tcaller\tgas\tpayload_digest"
    assert len(lines) == 1 + 2 + 4 + 1  # header, deploys, registers, save_hash
    for line in lines[1:]:
        height, op, caller, gas, digest = line.split("\t")
        assert height == "0"
        assert int(gas) >= 0
        assert len(digest) == 64
    ops = [line.split("\t")[1] for line in lines[1:]]
    assert ops[:2] == ["deploy_contract_1", "deploy_contract_2"]
    assert ops[-1] == "save_hash"


def test_transaction_encoding_is_canonical():
    t1 = Transaction(op="reward", caller="1", payload={"b": 2, "a": 1}, gas=0, contract=2)
    t2 = Transaction(op="reward", caller="1", payload={"a": 1, "b": 2}, gas=0, contract=2)
    assert t1.encode() == t2.encode()
    assert t1.digest() == t2.digest()


def test_gas_summary_counts(ledger):
    ledger.save_hash(0, cid_of(b"m"), "r0")
    ledger.save_hash(1, cid_of(b"n"), "r0")
    ledger.seal_block(1)
    table = gas_report(ledger.dump_text())
    rows = {line.split()[0]: line.split()[1:] for line in table.splitlines()}
    assert rows["register"] == ["4", "100340", str(4 * 100_340)]
    assert rows["save_hash"][0] == "2"
    assert rows["TOTAL"] == [str(ledger.total_gas())]


def test_validate_update_ignores_recording_peer_and_tag(ledger):
    cid = cid_of(b"shared")
    ledger.save_hash(2, cid, "r3")
    # any peer may validate it, in any round
    assert ledger.validate_update(cid, cid, caller="0") is True
    assert ledger.validate_update(cid, cid, caller="2") is True
    ledger.save_hash(1, cid, "g4")
    assert ledger.validate_update(cid, cid, caller="3") is True
    assert ledger.hash_records(round_tag="r7") == {}


ORACLE_PEERS = (0, 1, 2)
ORACLE_TAGS = ("r0", "r1", "g1")
ORACLE_CIDS = tuple(cid_of(bytes([i])) for i in range(4))

ledger_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("save"),
            st.sampled_from(ORACLE_PEERS),
            st.integers(0, len(ORACLE_CIDS) - 1),
            st.sampled_from(ORACLE_TAGS),
        ),
        st.tuples(st.just("validate"), st.integers(0, len(ORACLE_CIDS) - 1)),
        st.tuples(st.just("seal")),
    ),
    max_size=40,
)


@given(steps=ledger_steps)
def test_hash_indexes_and_gas_sums_match_brute_force(steps):
    led = Ledger()
    led.deploy_contracts()
    for pid in ORACLE_PEERS:
        led.register(pid, f"cred-{pid}")
    gas = {name: op.gas for name, op in OPERATIONS.items()}
    spent = gas["deploy_contract_1"] + gas["deploy_contract_2"] + 3 * gas["register"]
    saved: list[tuple[int, Cid, str]] = []  # the oracle: a plain list of what was recorded
    for tick, step in enumerate(steps):
        if step[0] == "save":
            _, peer, index, tag = step
            cid = ORACLE_CIDS[index]
            if (peer, cid, tag) in saved:
                with pytest.raises(LedgerError):
                    led.save_hash(peer, cid, tag)
            else:
                led.save_hash(peer, cid, tag)
                saved.append((peer, cid, tag))
                spent += gas["save_hash"]
        elif step[0] == "validate":
            cid = ORACLE_CIDS[step[1]]
            known = any(c == cid for _, c, _ in saved)
            assert led.validate_update(cid, cid) is known
            spent += gas["validate_update"]
        elif led.pending_count():
            led.seal_block(tick)
        sealed = [tx.gas for block in led.blocks for tx in block.transactions]
        assert led.total_gas() == sum(block.gas_used for block in led.blocks) == sum(sealed)
        assert led.cumulative_gas() == spent

    subsets = [set(c) for n in range(4) for c in itertools.combinations(ORACLE_PEERS, n)]
    for tag in ORACLE_TAGS + ("r9",):
        # the latest recorded cid of each peer under the tag; an unknown tag
        # or peer reads empty
        latest = {p: c for p, c, t in saved if t == tag}
        assert led.hash_records(round_tag=tag) == latest
        for peers in subsets + [{7}, {1, 7}]:
            want = {p: c for p, c in latest.items() if p in peers}
            assert led.hash_records(round_tag=tag, peers=peers) == want
        for peer, cid in itertools.product(ORACLE_PEERS + (7,), ORACLE_CIDS):
            assert led.has_hash_record(peer, cid, tag) is ((peer, cid, tag) in saved)

    # reads hand out copies: editing one leaves the index intact
    led.hash_records(round_tag="r0")[0] = ORACLE_CIDS[0]
    assert led.hash_records(round_tag="r0") == {p: c for p, c, t in saved if t == "r0"}
    # the save_hash transactions are the whole history, in recording order
    if led.pending_count():
        led.seal_block(len(steps))
    recorded = [
        (int(tx.caller), tx.payload["cid"], tx.payload["tag"])
        for block in led.blocks
        for tx in block.transactions
        if tx.op == "save_hash"
    ]
    assert recorded == [(p, c.hex, t) for p, c, t in saved]
    assert led.total_gas() == led.cumulative_gas() == spent
