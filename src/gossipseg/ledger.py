"""Append-only transaction ledger with gas accounting and peer registry.

Two contract facades share one chain: contract #1 carries registration,
cluster centroids, and segment assignment; contract #2 carries update
hashes, token incentives, and validation.  Blocks are sealed on demand from
the pending pool; timestamps are logical scheduler ticks.
"""
from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .cas import Cid
from .errors import ConfigurationError, LedgerError
from .model import SegmentSpec

GENESIS_HASH = b"\x00" * 32
DUMP_HEADER = "height\top\tcaller\tgas\tpayload_digest"


class Operation(NamedTuple):
    contract: int  # the contract that runs it
    gas: int  # charged on each of its transactions


# every operation the ledger records, keyed by its name in the dump;
# election and minting cost nothing
OPERATIONS: Mapping[str, Operation] = MappingProxyType({
    "deploy_contract_1": Operation(1, 1_418_084),
    "deploy_contract_2": Operation(2, 1_566_634),
    "register": Operation(1, 100_340),
    "save_cluster_centers": Operation(1, 257_000),
    "assign_segment": Operation(1, 120_450),
    "get_segment": Operation(1, 35_210),
    "save_hash": Operation(2, 50_527),
    "validate_update": Operation(2, 65_800),
    "penalize": Operation(2, 77_102),
    "reward": Operation(2, 0),
    "elect_leader": Operation(2, 0),
})


@dataclass
class Transaction:
    op: str
    caller: str
    payload: dict
    gas: int
    contract: int

    def encode(self) -> bytes:
        body = json.dumps(
            {
                "op": self.op,
                "caller": self.caller,
                "payload": self.payload,
                "gas": self.gas,
                "contract": self.contract,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return body.encode("utf-8")

    def digest(self) -> bytes:
        return hashlib.sha256(self.encode()).digest()


@dataclass(frozen=True)
class LedgerBlock:
    height: int
    prev_hash: bytes
    merkle_root: bytes
    transactions: tuple[Transaction, ...]
    gas_used: int
    timestamp: int

    def header_bytes(self) -> bytes:
        return (
            struct.pack("<Q", self.height)
            + self.prev_hash
            + self.merkle_root
            + struct.pack("<QQ", self.gas_used, self.timestamp)
        )

    def block_hash(self) -> bytes:
        return hashlib.sha256(self.header_bytes()).digest()


def merkle_root(digests: list[bytes]) -> bytes:
    """Pairwise SHA-256 tree; an odd node is paired with itself."""
    if not digests:
        raise LedgerError("merkle root of zero transactions")
    level = list(digests)
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [
            hashlib.sha256(level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
    return level[0]


class Ledger:
    """Single-writer ledger.

    The hash history is the ``save_hash`` transactions.  Beside them the
    ledger keeps only what its reads need: the recorded (tag, peer, cid)
    triples for the replay rule, the recorded cids for ``validate_update``,
    and each peer's latest cid per tag for ``hash_records``.  ``_record``
    keeps running gas sums, so no read of the gossip loop scans the history.
    """

    def __init__(self, initial_tokens: int = 1000):
        if initial_tokens < 0:
            raise LedgerError("initial_tokens must be >= 0")
        self.initial_tokens = initial_tokens
        self._blocks: list[LedgerBlock] = []
        self._tip = GENESIS_HASH  # the last sealed block's hash
        self._pending: list[Transaction] = []
        # each registered peer's token balance; insertion order is
        # registration order, and no peer is ever removed
        self._balances: dict[int, int] = {}
        self._credentials: set[str] = set()
        self._clustered = False
        self._segments: dict[int, SegmentSpec] = {}
        self._hash_triples: set[tuple[str, int, str]] = set()
        self._recorded_cids: set[str] = set()
        self._latest_cids: dict[str, dict[int, Cid]] = {}
        self._sealed_gas = 0
        self._pending_gas = 0
        self._deployed = False

    # -- internals ---------------------------------------------------------

    def _record(self, op: str, caller: str, payload: dict) -> Transaction:
        contract, gas = OPERATIONS[op]
        tx = Transaction(
            op=op,
            caller=caller,
            payload=payload,
            gas=gas,
            contract=contract,
        )
        self._pending.append(tx)
        self._pending_gas += tx.gas
        return tx

    def _require_registered(self, peer_id: int) -> None:
        if peer_id not in self._balances:
            raise LedgerError(f"peer {peer_id} is not registered")

    # -- contract #1: registration, clustering, segmentation ----------------

    def deploy_contracts(self, payload_1: dict | None = None) -> None:
        if self._deployed:
            raise LedgerError("contracts already deployed")
        self._record("deploy_contract_1", "genesis", payload_1 or {})
        self._record("deploy_contract_2", "genesis", {})
        self._deployed = True

    def register(self, peer_id: int, credential: str) -> None:
        if peer_id in self._balances:
            raise LedgerError(f"peer {peer_id} already registered")
        if credential in self._credentials:
            raise LedgerError("credential already registered")
        self._balances[peer_id] = self.initial_tokens
        self._credentials.add(credential)
        self._record(
            "register",
            str(peer_id),
            {"credential_digest": hashlib.sha256(credential.encode()).hexdigest()},
        )

    def save_cluster_centers(self, centroids: list[np.ndarray], caller: int) -> None:
        self._require_registered(caller)
        if not centroids:
            raise LedgerError("no centroids to save")
        payload = {"centroids": [[float(v) for v in c] for c in centroids]}
        self._record("save_cluster_centers", str(caller), payload)
        self._clustered = True

    def assign_segment(self, peer_id: int, spec: SegmentSpec) -> None:
        self._require_registered(peer_id)
        if not self._clustered:
            raise LedgerError("segments cannot be assigned before clustering")
        self._segments[peer_id] = spec
        self._record(
            "assign_segment",
            str(peer_id),
            {"cluster": spec.cluster_id, "start": spec.start, "end": spec.end},
        )

    def get_segment(self, peer_id: int) -> SegmentSpec:
        self._require_registered(peer_id)
        spec = self._segments.get(peer_id)
        if spec is None:
            raise LedgerError(f"peer {peer_id} has no assigned segment")
        self._record(
            "get_segment",
            str(peer_id),
            {"cluster": spec.cluster_id, "start": spec.start, "end": spec.end},
        )
        return spec

    # -- contract #2: hashes, validation, tokens -----------------------------

    def save_hash(self, peer_id: int, cid: Cid, round_tag: str) -> None:
        self._require_registered(peer_id)
        cid_hex = cid.hex
        if self.has_hash_record(peer_id, cid, round_tag):
            raise LedgerError(
                f"peer {peer_id} already recorded cid {cid_hex[:12]} under {round_tag}"
            )
        self._hash_triples.add((round_tag, peer_id, cid_hex))
        self._recorded_cids.add(cid_hex)
        self._latest_cids.setdefault(round_tag, {})[peer_id] = cid
        self._record("save_hash", str(peer_id), {"cid": cid_hex, "tag": round_tag})

    def has_hash_record(self, peer_id: int, cid: Cid, round_tag: str) -> bool:
        """Whether ``save_hash`` would reject this record as a replay."""
        return (round_tag, peer_id, cid.hex) in self._hash_triples

    def hash_records(
        self, round_tag: str, peers: Iterable[int] | None = None
    ) -> dict[int, Cid]:
        """Off-chain read: each peer's latest cid recorded under ``round_tag``.

        With ``peers``, only those of them that recorded one.
        """
        latest = self._latest_cids.get(round_tag, {})
        if peers is None:
            return dict(latest)
        return {p: latest[p] for p in peers if p in latest}

    def validate_update(self, cid: Cid, content_digest: Cid, caller: str = "system") -> bool:
        """Charged check that a fetched update matches some recorded hash."""
        cid_hex = cid.hex
        ok = cid_hex in self._recorded_cids and content_digest == cid
        self._record(
            "validate_update",
            caller,
            {"cid": cid_hex, "digest": content_digest.hex, "ok": ok},
        )
        return ok

    def penalize(self, peer_id: int, amount: int, reason: str = "") -> int:
        self._require_registered(peer_id)
        if amount < 0:
            raise LedgerError("penalty amount must be >= 0")
        self._balances[peer_id] = max(0, self._balances[peer_id] - amount)
        self._record(
            "penalize",
            str(peer_id),
            {"amount": amount, "reason": reason, "balance": self._balances[peer_id]},
        )
        return self._balances[peer_id]

    def reward(self, peer_id: int, amount: int, reason: str = "") -> int:
        self._require_registered(peer_id)
        if amount < 0:
            raise LedgerError("reward amount must be >= 0")
        self._balances[peer_id] += amount
        self._record(
            "reward",
            str(peer_id),
            {"amount": amount, "reason": reason, "balance": self._balances[peer_id]},
        )
        return self._balances[peer_id]

    def balance(self, peer_id: int) -> int:
        self._require_registered(peer_id)
        return self._balances[peer_id]

    # -- chain ---------------------------------------------------------------

    def elect_leader(self, tick: int) -> int:
        """Uniform choice over registered peers, derived from tip hash and tick."""
        peers = list(self._balances)
        if not peers:
            raise LedgerError("cannot elect a leader with no registered peers")
        digest = hashlib.sha256(self._tip + struct.pack("<q", tick)).digest()
        leader = peers[int.from_bytes(digest, "big") % len(peers)]
        self._record("elect_leader", "scheduler", {"tick": tick, "leader": leader})
        return leader

    def pending_count(self) -> int:
        return len(self._pending)

    def seal_block(self, tick: int) -> LedgerBlock:
        if not self._pending:
            raise LedgerError("no pending transactions to seal")
        txs = tuple(self._pending)
        block = LedgerBlock(
            height=len(self._blocks),
            prev_hash=self._tip,
            merkle_root=merkle_root([t.digest() for t in txs]),
            transactions=txs,
            gas_used=self._pending_gas,
            timestamp=tick,
        )
        self._blocks.append(block)
        self._tip = block.block_hash()
        self._pending = []
        self._sealed_gas += self._pending_gas
        self._pending_gas = 0
        return block

    @property
    def blocks(self) -> list[LedgerBlock]:
        return list(self._blocks)

    def total_gas(self) -> int:
        """Gas across all sealed blocks."""
        return self._sealed_gas

    def cumulative_gas(self) -> int:
        """Sealed plus pending gas; what a live gas meter would show."""
        return self._sealed_gas + self._pending_gas

    def verify_chain(self) -> bool:
        """Recompute every merkle root and hash link."""
        prev = GENESIS_HASH
        for height, block in enumerate(self._blocks):
            if block.height != height or block.prev_hash != prev:
                return False
            if merkle_root([t.digest() for t in block.transactions]) != block.merkle_root:
                return False
            if block.gas_used != sum(t.gas for t in block.transactions):
                return False
            prev = block.block_hash()
        return True

    def dump_text(self) -> str:
        """One tab-separated record per sealed transaction."""
        lines = [DUMP_HEADER]
        for block in self._blocks:
            for tx in block.transactions:
                payload_digest = hashlib.sha256(
                    json.dumps(tx.payload, sort_keys=True, separators=(",", ":")).encode()
                ).hexdigest()
                lines.append(
                    f"{block.height}\t{tx.op}\t{tx.caller}\t{tx.gas}\t{payload_digest}"
                )
        return "\n".join(lines) + "\n"

    def dump(self, path: str | Path) -> str:
        """Write :meth:`dump_text` to ``path`` and return it."""
        text = self.dump_text()
        Path(path).write_text(text, encoding="utf-8")
        return text


def gas_report(dump: str) -> str:
    """Per-operation transaction counts and gas totals of a ledger dump."""
    lines = dump.splitlines()
    if not lines or lines[0] != DUMP_HEADER:
        raise ConfigurationError("not a ledger dump file")
    rows: dict[str, list[int]] = {}  # op -> [count, unit gas, total gas]
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5 or not parts[3].isdecimal():
            raise ConfigurationError(f"malformed dump line: {line!r}")
        op, gas = parts[1], int(parts[3])
        row = rows.setdefault(op, [0, gas, 0])
        row[0] += 1
        row[2] += gas
    table = [f"{'operation':<22}{'count':>8}{'unit_gas':>12}{'total_gas':>14}"]
    for op in sorted(rows):
        count, unit_gas, total = rows[op]
        table.append(f"{op:<22}{count:>8}{unit_gas:>12}{total:>14}")
    grand_total = sum(row[2] for row in rows.values())
    table.append(f"{'TOTAL':<22}{'':>8}{'':>12}{grand_total:>14}")
    return "\n".join(table) + "\n"
