"""Peer state machine: train, privatize, publish, pull, combine, reconstruct.

Updates travel as parameter deltas relative to the publisher's last global
sync point.  A peer's wire bytes carry a small header (round, sender,
cluster, claimed loss) followed by the canonical tensor encoding; the header
loss is advisory only, incentive decisions always use the receiver's own
evaluation.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import trainer
from .aggregation import is_trim_feasible, plain_mean, trimmed_mean
from .cas import BlockStore, Cid
from .config import RunConfig
from .errors import (
    IntegrityError,
    LedgerError,
    NotFoundError,
    SerializationError,
)
from .ledger import Ledger
from .model import (
    ModelParams,
    SegmentSpec,
    canonical_bytes,
    mask_to_segment,
    params_from_bytes,
    segment_coords,
)
from .privacy import clip_and_noise, sigma_at

_UPDATE_MAGIC = b"GSU1"
_UPDATE_VERSION = 1

REWARD = "reward"
PENALTY = "penalty"
NEUTRAL = "neutral"


def round_tag(round_index: int) -> str:
    return f"r{round_index}"


def global_tag(round_index: int) -> str:
    return f"g{round_index}"


@dataclass(frozen=True)
class UpdatePayload:
    """Decoded wire update."""

    delta: ModelParams
    round_index: int
    sender: int
    cluster_id: int
    claimed_loss: float


def encode_update(
    delta: ModelParams,
    round_index: int,
    sender: int,
    cluster_id: int,
    claimed_loss: float,
) -> bytes:
    header = _UPDATE_MAGIC + struct.pack(
        "<HIIHd", _UPDATE_VERSION, round_index, sender, cluster_id, claimed_loss
    )
    return header + canonical_bytes(delta)


def decode_update(buf: bytes) -> UpdatePayload:
    if len(buf) < 24 or buf[:4] != _UPDATE_MAGIC:
        raise SerializationError("bad update magic")
    version, round_index, sender, cluster_id, claimed_loss = struct.unpack_from(
        "<HIIHd", buf, 4
    )
    if version != _UPDATE_VERSION:
        raise SerializationError(f"unsupported update version {version}")
    delta = params_from_bytes(buf[24:])
    return UpdatePayload(
        delta=delta,
        round_index=round_index,
        sender=sender,
        cluster_id=cluster_id,
        claimed_loss=claimed_loss,
    )


def incentive_check(loss_before: float, loss_after: float, tolerance: float) -> str:
    """Judge a received update by the receiver's own loss change."""
    if loss_after < loss_before:
        return REWARD
    if loss_after - loss_before > tolerance:
        return PENALTY
    return NEUTRAL


@dataclass
class RunContext:
    """Shared services and run-wide state for one simulation."""

    cfg: RunConfig
    ledger: Ledger
    store: BlockStore
    segment_specs: dict[int, SegmentSpec]
    peers: dict[int, "Peer"]
    global_params: ModelParams | None = None
    global_cid: Cid | None = None
    global_round: int = 0
    quarantined: set[str] = field(default_factory=set)
    consumed_log: list[tuple[int, int, str]] = field(default_factory=list)
    segment_violations: int = 0
    integrity_alarms: int = 0
    segment_carryovers: int = 0
    aborted_iterations: int = 0
    trim_fallbacks: int = 0
    fault_hook: Callable[[int, Cid, int], None] | None = None
    cluster_mates: dict[int, np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        # each peer's cluster mates, ascending; fixed for the whole run
        self.cluster_mates = {
            pid: np.array(
                sorted(
                    p
                    for p, other in self.peers.items()
                    if other.cluster_id == peer.cluster_id and p != pid
                )
            )
            for pid, peer in self.peers.items()
        }

    def flag_bad_update(self, consumer_id: int, sender: int, cid: Cid) -> None:
        """Quarantine a cid; the first detection carries the penalty."""
        if cid.hex in self.quarantined:
            return
        self.quarantined.add(cid.hex)
        self.integrity_alarms += 1
        self.ledger.penalize(sender, self.cfg.penalty_amount, reason="integrity")


def _robust_combine(
    ctx: RunContext, flats: list[np.ndarray], fallback: np.ndarray | None = None
) -> np.ndarray:
    """Trimmed mean when feasible for this count, otherwise ``fallback``.

    A configured trim that is infeasible for this count is counted in
    ``ctx.trim_fallbacks``; without a ``fallback`` it falls back to the
    plain mean, as does a zero trim ratio.
    """
    trim_ratio = ctx.cfg.trim.trim_ratio
    if trim_ratio > 0:
        if is_trim_feasible(len(flats), trim_ratio):
            return trimmed_mean(flats, trim_ratio)
        ctx.trim_fallbacks += 1
        if fallback is not None:
            return fallback
    return plain_mean(flats)


@dataclass
class Peer:
    peer_id: int
    cluster_id: int
    segment: SegmentSpec
    params: ModelParams
    baseline: ModelParams
    features: np.ndarray
    labels: np.ndarray
    rng: np.random.Generator
    byzantine: bool = False
    batch_size: int = 32
    synced_round: int = -1
    iteration: int = 0
    last_published: Cid | None = None

    def __post_init__(self) -> None:
        eval_count = min(64, len(self.labels))
        self.eval_features = self.features[:eval_count]
        self.eval_labels = self.labels[:eval_count]

    # -- sync ---------------------------------------------------------------

    def maybe_sync(self, ctx: RunContext) -> bool:
        if ctx.global_cid is None or ctx.global_round <= self.synced_round:
            return False
        return self.sync_global(ctx)

    def sync_global(self, ctx: RunContext) -> bool:
        """Fetch the current global model; keep local state if it fails."""
        try:
            content = ctx.store.get(ctx.global_cid)
            fresh = params_from_bytes(content)
        except (IntegrityError, NotFoundError, SerializationError):
            ctx.integrity_alarms += 1
            return False
        self.params = fresh
        self.baseline = fresh.copy()
        self.synced_round = ctx.global_round
        return True

    # -- local work ----------------------------------------------------------

    def _batch(self) -> tuple[np.ndarray, np.ndarray]:
        size = min(self.batch_size, len(self.labels))
        idx = self.rng.choice(len(self.labels), size=size, replace=False)
        return self.features[idx], self.labels[idx]

    def _local_steps(self, cfg: RunConfig) -> None:
        for _ in range(cfg.train.local_steps):
            x, y = self._batch()
            grad = trainer.gradient(self.params, x, y)
            grad = mask_to_segment(grad, self.segment)
            self.params = trainer.sgd_step(self.params, grad, cfg.train.learning_rate)

    def _privatize(self, ctx: RunContext, delta: np.ndarray) -> np.ndarray:
        """Clipped, noised copy of the delta on this peer's owned coordinates."""
        cfg = ctx.cfg
        schedule_round = min(self.iteration, cfg.dp.total_rounds - 1)
        sigma = sigma_at(schedule_round, cfg.dp)
        return clip_and_noise(delta, cfg.dp.clip_norm, sigma, self.rng)

    def _hostile_delta(self, ctx: RunContext, size: int) -> np.ndarray:
        """Saturated random signs for ``size`` owned coordinates."""
        signs = self.rng.choice(np.array([-1.0, 1.0]), size=size)
        return ctx.cfg.byzantine_scale * signs

    def _rebased(self, owned: np.ndarray, delta: np.ndarray) -> ModelParams:
        """The baseline with ``delta`` added on its ``owned`` coordinates."""
        buf = self.baseline.buf.copy()
        buf[owned] += delta
        return self.baseline.with_buf(buf)

    def _publish(self, ctx: RunContext, payload: bytes) -> Cid | None:
        try:
            cid = ctx.store.put(payload)
        except OSError:
            try:
                cid = ctx.store.put(payload)
            except OSError:
                return None
        if not ctx.ledger.has_hash_record(self.peer_id, cid):
            ctx.ledger.save_hash(self.peer_id, cid, round_tag(ctx.global_round))
        if ctx.fault_hook is not None:
            ctx.fault_hook(self.peer_id, cid, self.iteration)
        self.last_published = cid
        return cid

    def _fetch_validated(self, ctx: RunContext, sender: int, cid: Cid) -> bytes | None:
        if cid.hex in ctx.quarantined:
            return None
        try:
            content = ctx.store.get(cid)
        except IntegrityError:
            ctx.flag_bad_update(self.peer_id, sender, cid)
            return None
        except NotFoundError:
            return None
        # a successful get has re-hashed the canonical DAG, so the content's
        # digest is the cid itself
        if not ctx.ledger.validate_update(cid, cid, caller=str(self.peer_id)):
            ctx.flag_bad_update(self.peer_id, sender, cid)
            return None
        return content

    def _pull(self, ctx: RunContext, sender: int, cid_hex: str) -> UpdatePayload | None:
        """Fetch, validate and decode one round update.

        An update that does not decode to this peer's geometry is flagged
        like a tampered one; only an accepted update is logged as consumed.
        """
        cid = Cid(bytes.fromhex(cid_hex))
        content = self._fetch_validated(ctx, sender, cid)
        if content is None:
            return None
        try:
            update = decode_update(content)
        except SerializationError:
            update = None
        if update is None or update.delta.shapes != self.baseline.shapes:
            ctx.flag_bad_update(self.peer_id, sender, cid)
            return None
        if update.sender != sender or update.round_index != ctx.global_round:
            return None
        ctx.consumed_log.append((self.peer_id, sender, cid.hex))
        return update

    def _collect(self, ctx: RunContext) -> list[UpdatePayload]:
        cfg = ctx.cfg
        mates = ctx.cluster_mates[self.peer_id]
        if len(mates) == 0 or cfg.fanout == 0:
            return []
        k = min(cfg.fanout, len(mates))
        chosen = set(int(p) for p in self.rng.choice(mates, size=k, replace=False))
        records = ctx.ledger.hash_records(round_tag=round_tag(ctx.global_round), peers=chosen)
        latest = {rec["peer"]: rec["cid"] for rec in records}
        pulled = [self._pull(ctx, s, latest[s]) for s in sorted(latest)]
        return [update for update in pulled if update is not None]

    # -- one gossip iteration -------------------------------------------------

    def peer_iteration(self, ctx: RunContext, tick: int) -> bool:
        """Train, publish a privatized delta, pull neighbors, combine, apply.

        Returns False when a ledger rejection aborted the iteration; peer
        state is then left exactly as before the call.
        """
        cfg = ctx.cfg
        snapshot = (self.params.copy(), self.iteration, self.last_published)
        try:
            self._local_steps(cfg)
            # only owned coordinates are combined; all others keep the baseline
            owned = segment_coords(self.params, self.segment).owned
            delta = self.params.buf[owned] - self.baseline.buf[owned]
            own = (
                self._hostile_delta(ctx, delta.size)
                if self.byzantine
                else self._privatize(ctx, delta)
            )
            _, own_loss = trainer.evaluate(
                self.params, self.eval_features, self.eval_labels
            )
            claimed = 0.0 if self.byzantine else own_loss
            published = self.params.with_buf(np.zeros_like(self.params.buf))
            published.buf[owned] = own
            payload = encode_update(
                published, ctx.global_round, self.peer_id, self.cluster_id, claimed
            )
            self._publish(ctx, payload)

            vectors = [own]
            for update in self._collect(ctx):
                pulled = update.delta.buf[owned]
                candidate = self._rebased(owned, pulled)
                _, loss_after = trainer.evaluate(
                    candidate, self.eval_features, self.eval_labels
                )
                verdict = incentive_check(own_loss, loss_after, cfg.penalty_loss_delta)
                if verdict == REWARD:
                    ctx.ledger.reward(
                        update.sender, cfg.reward_amount, reason="loss-improved"
                    )
                elif verdict == PENALTY:
                    ctx.ledger.penalize(
                        update.sender, cfg.penalty_amount, reason="loss-deviation"
                    )
                vectors.append(pulled)

            # alone, or too few updates for a feasible trim: pure local progress
            combined = (
                vectors[0]
                if len(vectors) == 1
                else _robust_combine(ctx, vectors, fallback=vectors[0])
            )
            self.params = self._rebased(owned, combined)
            self.iteration += 1
        except LedgerError:
            self.params, self.iteration, self.last_published = snapshot
            ctx.aborted_iterations += 1
            return False
        if cfg.audit:
            self._audit_segment(ctx)
        return True

    def _audit_segment(self, ctx: RunContext) -> None:
        foreign = segment_coords(self.params, self.segment).foreign
        if self.params.buf[foreign].tobytes() != self.baseline.buf[foreign].tobytes():
            ctx.segment_violations += 1


def leader_duty(leader: Peer, ctx: RunContext, tick: int) -> Cid | None:
    """Reconstruct the global model from the latest validated round updates.

    Per segment, the rows it owns are combined coordinate-wise over its
    members' deltas; lower layers are combined across every accepted update.
    No other coordinate is read, and segments with no updates carry the
    previous global values.  The result is stored in the block store and its
    CID recorded on the ledger.
    """
    base = ctx.global_params
    if base is None:
        return None
    records = ctx.ledger.hash_records(round_tag=round_tag(ctx.global_round))
    latest = {rec["peer"]: rec["cid"] for rec in records if rec["peer"] in ctx.peers}
    by_cluster: dict[int, list[np.ndarray]] = {}
    all_flats: list[np.ndarray] = []
    for sender in sorted(latest):
        update = leader._pull(ctx, sender, latest[sender])
        if update is not None:
            by_cluster.setdefault(ctx.peers[sender].cluster_id, []).append(update.delta.buf)
            all_flats.append(update.delta.buf)

    theta = base.copy()
    for cluster_id, spec in ctx.segment_specs.items():
        flats = by_cluster.get(cluster_id)
        if not flats:
            ctx.segment_carryovers += 1
            continue
        rows = segment_coords(base, spec).rows
        theta.buf[rows] += _robust_combine(ctx, [flat[rows] for flat in flats])
    if all_flats:
        lower = slice(0, base.lower_size)
        theta.buf[lower] += _robust_combine(ctx, [flat[lower] for flat in all_flats])
    content = canonical_bytes(theta)
    cid = ctx.store.put(content)
    ctx.ledger.save_hash(leader.peer_id, cid, global_tag(ctx.global_round + 1))
    ctx.global_params = theta
    ctx.global_cid = cid
    ctx.global_round += 1
    return cid
