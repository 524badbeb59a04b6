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
    GasTable,
    Ledger,
    Transaction,
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
    table = GasTable()
    assert table.deploy_contract_1 == 1_418_084
    assert table.deploy_contract_2 == 1_566_634
    assert table.register == 100_340
    assert table.save_cluster_centers == 257_000
    assert table.assign_segment == 120_450
    assert table.get_segment == 35_210
    assert table.save_hash == 50_527
    assert table.validate_update == 65_800
    assert table.penalize == 77_102
    assert table.reset_balance == 257_032
    # election and minting are not metered
    assert table.cost("elect_leader") == 0
    assert table.cost("reward") == 0


def test_gas_table_rejects_nonpositive():
    with pytest.raises(LedgerError):
        GasTable(register=0)


def test_cumulative_gas_matches_manual_sum(ledger):
    table = ledger.gas_table
    want = table.deploy_contract_1 + table.deploy_contract_2 + 4 * table.register
    assert ledger.cumulative_gas() == want
    assert ledger.total_gas() == 0  # nothing sealed yet
    ledger.seal_block(1)
    assert ledger.total_gas() == want


def test_register_rejects_duplicates(ledger):
    with pytest.raises(LedgerError):
        ledger.register(0, "fresh-cred")
    with pytest.raises(LedgerError):
        ledger.register(9, "cred-1")
    assert ledger.registered_peers() == [0, 1, 2, 3]


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
    assert ledger.cumulative_gas() == before + ledger.gas_table.get_segment


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
    ledger.save_hash(2, cid, "r5")
    assert [r["tag"] for r in ledger.hash_records(peers={2})] == ["r0", "r5"]
    # a different peer may record the same cid
    ledger.save_hash(3, cid, "r0")
    assert ledger.has_hash_record(3, cid)


def test_hash_records_filtering(ledger):
    a, b = cid_of(b"a"), cid_of(b"b")
    ledger.save_hash(0, a, "r0")
    ledger.save_hash(1, b, "r1")
    ledger.save_hash(2, a, "r1")
    gas_before = ledger.cumulative_gas()
    recs = ledger.hash_records(round_tag="r1")
    assert [r["peer"] for r in recs] == [1, 2]
    recs = ledger.hash_records(round_tag="r1", peers={2})
    assert [r["cid"] for r in recs] == [a.hex]
    # reads are free
    assert ledger.cumulative_gas() == gas_before


def test_validate_update_charged_both_ways(ledger):
    cid = cid_of(b"payload")
    ledger.save_hash(0, cid, "r0")
    g0 = ledger.cumulative_gas()
    assert ledger.validate_update(cid, cid) is True
    assert ledger.validate_update(cid, cid_of(b"tampered")) is False
    assert ledger.validate_update(cid_of(b"unknown"), cid_of(b"unknown")) is False
    assert ledger.cumulative_gas() == g0 + 3 * ledger.gas_table.validate_update


def test_token_incentives(ledger):
    assert ledger.balance(0) == 100
    assert ledger.reward(0, 25) == 125
    assert ledger.penalize(0, 30) == 95
    # penalties floor at zero instead of going negative
    assert ledger.penalize(0, 10_000) == 0
    assert ledger.balance(0) == 0
    assert ledger.reset_balance(0) == 100
    with pytest.raises(LedgerError):
        ledger.reward(99, 5)
    with pytest.raises(LedgerError):
        ledger.penalize(0, -1)


def test_reward_is_free_and_penalize_is_charged(ledger):
    g0 = ledger.cumulative_gas()
    ledger.reward(1, 10)
    assert ledger.cumulative_gas() == g0
    ledger.penalize(1, 10)
    assert ledger.cumulative_gas() == g0 + ledger.gas_table.penalize


def elect_oracle(ledger, tick):
    peers = ledger.registered_peers()
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
    summary = ledger.gas_summary()
    assert summary["register"]["count"] == 4
    assert summary["register"]["gas"] == 4 * 100_340
    assert summary["save_hash"]["count"] == 2
    total = sum(row["gas"] for row in summary.values())
    assert total == ledger.total_gas()


def test_validate_update_ignores_recording_peer_and_tag(ledger):
    cid = cid_of(b"shared")
    ledger.save_hash(2, cid, "r3")
    # any peer may validate it, in any round
    assert ledger.validate_update(cid, cid, caller="0") is True
    assert ledger.validate_update(cid, cid, caller="2") is True
    ledger.save_hash(1, cid, "g4")
    assert ledger.validate_update(cid, cid, caller="3") is True
    assert ledger.hash_records(round_tag="r7") == []


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
    table = led.gas_table
    spent = table.deploy_contract_1 + table.deploy_contract_2 + 3 * table.register
    saved: list[dict] = []  # the oracle: a plain list of what was recorded
    for tick, step in enumerate(steps):
        if step[0] == "save":
            _, peer, index, tag = step
            cid = ORACLE_CIDS[index]
            if any((r["peer"], r["cid"], r["tag"]) == (peer, cid.hex, tag) for r in saved):
                with pytest.raises(LedgerError):
                    led.save_hash(peer, cid, tag)
            else:
                led.save_hash(peer, cid, tag)
                saved.append({"peer": peer, "cid": cid.hex, "tag": tag, "seq": len(saved)})
                spent += table.save_hash
        elif step[0] == "validate":
            cid = ORACLE_CIDS[step[1]]
            known = any(r["cid"] == cid.hex for r in saved)
            assert led.validate_update(cid, cid) is known
            spent += table.validate_update
        elif led.pending_count():
            led.seal_block(tick)
        sealed = [tx.gas for block in led.blocks for tx in block.transactions]
        assert led.total_gas() == sum(block.gas_used for block in led.blocks) == sum(sealed)
        assert led.cumulative_gas() == spent

    assert led.hash_records() == saved
    subsets = [set(c) for n in range(4) for c in itertools.combinations(ORACLE_PEERS, n)]
    for peers in subsets + [None, {7}]:
        for tag in ORACLE_TAGS + ("r9", None):
            want = [
                r
                for r in saved
                if (tag is None or r["tag"] == tag) and (peers is None or r["peer"] in peers)
            ]
            assert led.hash_records(round_tag=tag, peers=peers) == want
    for peer, cid in itertools.product(ORACLE_PEERS, ORACLE_CIDS):
        want = any(r["peer"] == peer and r["cid"] == cid.hex for r in saved)
        assert led.has_hash_record(peer, cid) is want

    # reads hand out copies: editing one leaves the indexes intact
    for rec in led.hash_records(round_tag="r0"):
        rec["tag"] = "forged"
    assert led.hash_records() == saved
    if led.pending_count():
        led.seal_block(len(steps))
    assert led.total_gas() == led.cumulative_gas() == spent
