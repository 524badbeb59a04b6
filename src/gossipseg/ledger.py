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
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .cas import Cid
from .errors import LedgerError
from .model import SegmentSpec

GENESIS_HASH = b"\x00" * 32

OP_DEPLOY_REGISTRY = "deploy_contract_1"
OP_DEPLOY_GOSSIP = "deploy_contract_2"
OP_REGISTER = "register"
OP_SAVE_CENTERS = "save_cluster_centers"
OP_ASSIGN_SEGMENT = "assign_segment"
OP_GET_SEGMENT = "get_segment"
OP_SAVE_HASH = "save_hash"
OP_VALIDATE_UPDATE = "validate_update"
OP_PENALIZE = "penalize"
OP_REWARD = "reward"
OP_RESET_BALANCE = "reset_balance"
OP_ELECT_LEADER = "elect_leader"

_CONTRACT_OF = {
    OP_DEPLOY_REGISTRY: 1,
    OP_DEPLOY_GOSSIP: 2,
    OP_REGISTER: 1,
    OP_SAVE_CENTERS: 1,
    OP_ASSIGN_SEGMENT: 1,
    OP_GET_SEGMENT: 1,
    OP_SAVE_HASH: 2,
    OP_VALIDATE_UPDATE: 2,
    OP_PENALIZE: 2,
    OP_REWARD: 2,
    OP_RESET_BALANCE: 2,
    OP_ELECT_LEADER: 2,
}


@dataclass(frozen=True)
class GasTable:
    """Per-operation gas costs charged on successful transactions."""

    deploy_contract_1: int = 1_418_084
    deploy_contract_2: int = 1_566_634
    register: int = 100_340
    save_cluster_centers: int = 257_000
    assign_segment: int = 120_450
    get_segment: int = 35_210
    save_hash: int = 50_527
    validate_update: int = 65_800
    penalize: int = 77_102
    reset_balance: int = 257_032

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value <= 0:
                raise LedgerError(f"gas cost {name} must be positive")

    def cost(self, op: str) -> int:
        # election and minting have no table entry and cost nothing
        return getattr(self, op, 0)


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


@dataclass
class PeerRecord:
    peer_id: int
    credential: str
    tokens: int
    sequence: int


class Ledger:
    """Single-writer ledger.

    The hash history is append-only, so ``save_hash`` keeps indexes of it
    (recorded cids, records per round tag and per (tag, peer)) and ``_record``
    keeps running gas sums: every read the gossip loop makes costs O(1) or
    O(matching records), not O(history).
    """

    def __init__(self, gas_table: GasTable | None = None, initial_tokens: int = 1000):
        if initial_tokens < 0:
            raise LedgerError("initial_tokens must be >= 0")
        self.gas_table = gas_table or GasTable()
        self.initial_tokens = initial_tokens
        self._blocks: list[LedgerBlock] = []
        self._pending: list[Transaction] = []
        self._registry: dict[int, PeerRecord] = {}
        self._credentials: set[str] = set()
        self._centroids: list[np.ndarray] | None = None
        self._segments: dict[int, SegmentSpec] = {}
        self._hash_records: list[dict] = []
        self._hash_keys: set[tuple[int, str]] = set()
        self._recorded_cids: set[str] = set()
        self._records_by_tag: dict[str, list[dict]] = {}
        self._records_by_tag_peer: dict[tuple[str, int], list[dict]] = {}
        self._sealed_gas = 0
        self._pending_gas = 0
        self._deployed = False

    # -- internals ---------------------------------------------------------

    def _record(self, op: str, caller: str, payload: dict) -> Transaction:
        tx = Transaction(
            op=op,
            caller=caller,
            payload=payload,
            gas=self.gas_table.cost(op),
            contract=_CONTRACT_OF[op],
        )
        self._pending.append(tx)
        self._pending_gas += tx.gas
        return tx

    def _require_registered(self, peer_id: int) -> PeerRecord:
        record = self._registry.get(peer_id)
        if record is None:
            raise LedgerError(f"peer {peer_id} is not registered")
        return record

    # -- contract #1: registration, clustering, segmentation ----------------

    def deploy_contracts(self, payload_1: dict | None = None) -> None:
        if self._deployed:
            raise LedgerError("contracts already deployed")
        self._record(OP_DEPLOY_REGISTRY, "genesis", payload_1 or {})
        self._record(OP_DEPLOY_GOSSIP, "genesis", {})
        self._deployed = True

    def register(self, peer_id: int, credential: str) -> PeerRecord:
        if peer_id in self._registry:
            raise LedgerError(f"peer {peer_id} already registered")
        if credential in self._credentials:
            raise LedgerError("credential already registered")
        record = PeerRecord(
            peer_id=peer_id,
            credential=credential,
            tokens=self.initial_tokens,
            sequence=len(self._registry),
        )
        self._registry[peer_id] = record
        self._credentials.add(credential)
        self._record(
            OP_REGISTER,
            str(peer_id),
            {"credential_digest": hashlib.sha256(credential.encode()).hexdigest()},
        )
        return record

    def save_cluster_centers(self, centroids: list[np.ndarray], caller: int) -> None:
        self._require_registered(caller)
        if not centroids:
            raise LedgerError("no centroids to save")
        self._centroids = [np.asarray(c, dtype=np.float64).copy() for c in centroids]
        payload = {"centroids": [[float(v) for v in c] for c in self._centroids]}
        self._record(OP_SAVE_CENTERS, str(caller), payload)

    def assign_segment(self, peer_id: int, spec: SegmentSpec) -> None:
        self._require_registered(peer_id)
        if self._centroids is None:
            raise LedgerError("segments cannot be assigned before clustering")
        self._segments[peer_id] = spec
        self._record(
            OP_ASSIGN_SEGMENT,
            str(peer_id),
            {"cluster": spec.cluster_id, "start": spec.start, "end": spec.end},
        )

    def get_segment(self, peer_id: int) -> SegmentSpec:
        self._require_registered(peer_id)
        spec = self._segments.get(peer_id)
        if spec is None:
            raise LedgerError(f"peer {peer_id} has no assigned segment")
        self._record(
            OP_GET_SEGMENT,
            str(peer_id),
            {"cluster": spec.cluster_id, "start": spec.start, "end": spec.end},
        )
        return spec

    # -- contract #2: hashes, validation, tokens -----------------------------

    def save_hash(self, peer_id: int, cid: Cid, round_tag: str) -> None:
        self._require_registered(peer_id)
        cid_hex = cid.hex
        same_round = self._records_by_tag_peer.get((round_tag, peer_id), ())
        if any(rec["cid"] == cid_hex for rec in same_round):
            raise LedgerError(
                f"peer {peer_id} already recorded cid {cid_hex[:12]} under {round_tag}"
            )
        self._hash_keys.add((peer_id, cid_hex))
        self._recorded_cids.add(cid_hex)
        rec = {"peer": peer_id, "cid": cid_hex, "tag": round_tag, "seq": len(self._hash_records)}
        self._hash_records.append(rec)
        self._records_by_tag.setdefault(round_tag, []).append(rec)
        self._records_by_tag_peer.setdefault((round_tag, peer_id), []).append(rec)
        self._record(OP_SAVE_HASH, str(peer_id), {"cid": cid_hex, "tag": round_tag})

    def has_hash_record(self, peer_id: int, cid: Cid) -> bool:
        return (peer_id, cid.hex) in self._hash_keys

    def hash_records(
        self,
        round_tag: str | None = None,
        peers: set[int] | None = None,
    ) -> list[dict]:
        """Off-chain read of recorded hashes, in recording order."""
        if round_tag is None:
            recs = self._hash_records
            if peers is not None:
                recs = [rec for rec in recs if rec["peer"] in peers]
        elif peers is None:
            recs = self._records_by_tag.get(round_tag, [])
        else:
            by_peer = self._records_by_tag_peer
            recs = sorted(
                (rec for p in peers for rec in by_peer.get((round_tag, p), ())),
                key=itemgetter("seq"),
            )
        return [dict(rec) for rec in recs]

    def validate_update(self, cid: Cid, content_digest: Cid, caller: str = "system") -> bool:
        """Charged check that a fetched update matches some recorded hash."""
        cid_hex = cid.hex
        ok = cid_hex in self._recorded_cids and content_digest == cid
        self._record(
            OP_VALIDATE_UPDATE,
            caller,
            {"cid": cid_hex, "digest": content_digest.hex, "ok": ok},
        )
        return ok

    def penalize(self, peer_id: int, amount: int, reason: str = "") -> int:
        record = self._require_registered(peer_id)
        if amount < 0:
            raise LedgerError("penalty amount must be >= 0")
        record.tokens = max(0, record.tokens - amount)
        self._record(
            OP_PENALIZE,
            str(peer_id),
            {"amount": amount, "reason": reason, "balance": record.tokens},
        )
        return record.tokens

    def reward(self, peer_id: int, amount: int, reason: str = "") -> int:
        record = self._require_registered(peer_id)
        if amount < 0:
            raise LedgerError("reward amount must be >= 0")
        record.tokens += amount
        self._record(
            OP_REWARD,
            str(peer_id),
            {"amount": amount, "reason": reason, "balance": record.tokens},
        )
        return record.tokens

    def reset_balance(self, peer_id: int) -> int:
        record = self._require_registered(peer_id)
        record.tokens = self.initial_tokens
        self._record(OP_RESET_BALANCE, str(peer_id), {"balance": record.tokens})
        return record.tokens

    def balance(self, peer_id: int) -> int:
        return self._require_registered(peer_id).tokens

    def registered_peers(self) -> list[int]:
        return sorted(self._registry, key=lambda p: self._registry[p].sequence)

    # -- chain ---------------------------------------------------------------

    def elect_leader(self, tick: int) -> int:
        """Uniform choice over registered peers, derived from tip hash and tick."""
        peers = sorted(self._registry, key=lambda p: self._registry[p].sequence)
        if not peers:
            raise LedgerError("cannot elect a leader with no registered peers")
        tip = self._blocks[-1].block_hash() if self._blocks else GENESIS_HASH
        digest = hashlib.sha256(tip + struct.pack("<q", tick)).digest()
        leader = peers[int.from_bytes(digest, "big") % len(peers)]
        self._record(OP_ELECT_LEADER, "scheduler", {"tick": tick, "leader": leader})
        return leader

    def pending_count(self) -> int:
        return len(self._pending)

    def seal_block(self, tick: int) -> LedgerBlock:
        if not self._pending:
            raise LedgerError("no pending transactions to seal")
        txs = tuple(self._pending)
        prev = self._blocks[-1].block_hash() if self._blocks else GENESIS_HASH
        block = LedgerBlock(
            height=len(self._blocks),
            prev_hash=prev,
            merkle_root=merkle_root([t.digest() for t in txs]),
            transactions=txs,
            gas_used=self._pending_gas,
            timestamp=tick,
        )
        self._blocks.append(block)
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

    def gas_summary(self) -> dict[str, dict[str, int]]:
        """Per-operation transaction counts and gas totals over sealed blocks."""
        summary: dict[str, dict[str, int]] = {}
        for block in self._blocks:
            for tx in block.transactions:
                row = summary.setdefault(tx.op, {"count": 0, "unit_gas": tx.gas, "gas": 0})
                row["count"] += 1
                row["gas"] += tx.gas
        return summary

    def dump_text(self) -> str:
        """One tab-separated record per sealed transaction."""
        lines = ["height\top\tcaller\tgas\tpayload_digest"]
        for block in self._blocks:
            for tx in block.transactions:
                payload_digest = hashlib.sha256(
                    json.dumps(tx.payload, sort_keys=True, separators=(",", ":")).encode()
                ).hexdigest()
                lines.append(
                    f"{block.height}\t{tx.op}\t{tx.caller}\t{tx.gas}\t{payload_digest}"
                )
        return "\n".join(lines) + "\n"

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(self.dump_text(), encoding="utf-8")
