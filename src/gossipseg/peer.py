"""Peer state machine: train, privatize, publish, pull, combine, reconstruct.

Updates travel as parameter deltas relative to the publisher's last global
sync point.  A peer's wire bytes carry a small header (round, sender,
cluster, claimed loss) followed by the canonical tensor encoding of a full
buffer that is zero outside the sender's segment.  The header's cluster id
and claimed loss are written, never read: a receiver decodes by the sender's
ledger segment, and incentive decisions always use the receiver's own
evaluation.  :func:`encode_update` and :func:`decode_update` are the only
code that knows this format.
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
from .datasets import LabeledDataset
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
    gather,
    mask_to_segment,
    params_from_bytes,
    segment_coords,
    split_over,
)
from .privacy import clip_and_noise, sigma_at
from .trainer import TrainConfig

_UPDATE_MAGIC = b"GSU1"
_UPDATE_VERSION = 1

# a peer's eval set is the first rows of its shard, at most this many
EVAL_ROWS = 64

REWARD = "reward"
PENALTY = "penalty"
NEUTRAL = "neutral"

# tokens a rewarded or penalized peer gains or loses
REWARD_AMOUNT = 10
PENALTY_AMOUNT = 10


def round_tag(round_index: int) -> str:
    return f"r{round_index}"


def global_tag(round_index: int) -> str:
    return f"g{round_index}"


def encode_update(
    owned: np.ndarray,
    template: ModelParams,
    segment: SegmentSpec,
    round_index: int,
    sender: int,
    claimed_loss: float,
) -> bytes:
    """The wire bytes of an update holding ``owned`` on the coordinates
    ``segment`` owns in ``template``'s geometry."""
    header = _UPDATE_MAGIC + struct.pack(
        "<HIIHd", _UPDATE_VERSION, round_index, sender, segment.cluster_id, claimed_loss
    )
    buf = np.zeros_like(template.buf)
    for r, part in split_over(owned, segment_coords(template, segment).owned):
        buf[r] = part
    return header + canonical_bytes(template.with_buf(buf))


def decode_update(
    buf: bytes, template: ModelParams, segment: SegmentSpec
) -> tuple[int, int, np.ndarray]:
    """The round, sender and owned values of :func:`encode_update` bytes.

    Malformed bytes, and an update of any geometry but ``template``'s, raise
    :class:`SerializationError`.
    """
    if len(buf) < 24 or buf[:4] != _UPDATE_MAGIC:
        raise SerializationError("bad update magic")
    version, round_index, sender = struct.unpack_from("<HII", buf, 4)
    if version != _UPDATE_VERSION:
        raise SerializationError(f"unsupported update version {version}")
    delta = params_from_bytes(memoryview(buf)[24:])
    if delta.shapes != template.shapes:
        raise SerializationError("update geometry differs from the model's")
    return round_index, sender, gather(delta.buf, segment_coords(template, segment).owned)


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
    peers: dict[int, "Peer"]
    # set by ``publish_global`` only; round -1 is "no global model yet"
    global_params: ModelParams | None = None
    global_cid: Cid | None = None
    global_bytes: bytes = b""
    global_round: int = -1
    quarantined: set[str] = field(default_factory=set)
    consumed_log: list[tuple[int, int, str]] = field(default_factory=list)
    segment_violations: int = 0
    integrity_alarms: int = 0
    segment_carryovers: int = 0
    aborted_iterations: int = 0
    trim_fallbacks: int = 0
    fault_hook: Callable[[int, Cid, int], None] | None = None
    segment_specs: dict[int, SegmentSpec] = field(init=False)
    members: dict[int, np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        # each cluster's segment and its member ids, ascending, by cluster id,
        # ascending; both fixed for the whole run
        members: dict[int, list[int]] = {}
        for pid in sorted(self.peers):
            members.setdefault(self.peers[pid].segment.cluster_id, []).append(pid)
        self.members = {c: np.array(members[c]) for c in sorted(members)}
        self.segment_specs = {c: self.peers[ids[0]].segment for c, ids in self.members.items()}

    def flag_bad_update(self, sender: int, cid: Cid) -> None:
        """Quarantine a cid; the first detection carries the penalty."""
        if cid.hex in self.quarantined:
            return
        self.quarantined.add(cid.hex)
        self.integrity_alarms += 1
        self.ledger.penalize(sender, PENALTY_AMOUNT, reason="integrity")


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
    """One peer.  ``shard`` indexes this peer's rows of ``train``, the run's
    one training set; after a sync, ``params`` and ``baseline`` are both the
    round's read-only global model."""

    peer_id: int
    segment: SegmentSpec
    params: ModelParams
    baseline: ModelParams
    train: LabeledDataset
    shard: np.ndarray
    rng: np.random.Generator
    synced_round: int = -1
    iteration: int = 0

    def __post_init__(self) -> None:
        rows = self.shard[:EVAL_ROWS]
        self.eval_features = self.train.features[rows]
        self.eval_labels = self.train.labels[rows]

    # -- sync ---------------------------------------------------------------

    def sync_global(self, ctx: RunContext) -> bool:
        """Adopt the current global model; keep local state if its fetch fails.

        A successful ``get`` has re-hashed the block, so its content is the
        bytes :func:`publish_global` encoded from ``ctx.global_params``.
        """
        try:
            ctx.store.get(ctx.global_cid)
        except (IntegrityError, NotFoundError):
            ctx.integrity_alarms += 1
            return False
        self.params = self.baseline = ctx.global_params
        self.synced_round = ctx.global_round
        return True

    # -- local work ----------------------------------------------------------

    def _batches(self, train: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
        """Features and labels of every local step's batch, stacked by step."""
        size = min(train.batch_size, len(self.shard))
        idx = np.stack(
            [
                self.rng.choice(len(self.shard), size=size, replace=False)
                for _ in range(train.local_steps)
            ]
        )
        rows = self.shard[idx]
        return self.train.features[rows], self.train.labels[rows]

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

    def _rebased(self, owned: tuple[slice, ...], deltas: list[np.ndarray]) -> ModelParams:
        """The baseline with each delta added on its ``owned`` coordinates:
        one stacked model per delta."""
        buf = np.repeat(self.baseline.buf[None], len(deltas), axis=0)
        for row, delta in zip(buf, deltas):
            for r, part in split_over(delta, owned):
                row[r] += part
        return self.baseline.with_buf(buf)

    def _publish(self, ctx: RunContext, payload: bytes) -> Cid | None:
        try:
            cid = ctx.store.put(payload)
        except OSError:
            try:
                cid = ctx.store.put(payload)
            except OSError:
                return None
        tag = round_tag(ctx.global_round)
        if not ctx.ledger.has_hash_record(self.peer_id, cid, tag):
            ctx.ledger.save_hash(self.peer_id, cid, tag)
        if ctx.fault_hook is not None:
            ctx.fault_hook(self.peer_id, cid, self.iteration)
        return cid

    def _pull(self, ctx: RunContext, sender: int, cid: Cid) -> np.ndarray | None:
        """Fetch, validate and decode one round update: the sender's owned values.

        An update that fails the store's re-hash or decoding to this peer's
        geometry is flagged; only an accepted update is logged as consumed.
        """
        if cid.hex in ctx.quarantined:
            return None
        try:
            content = ctx.store.get(cid)
        except IntegrityError:
            ctx.flag_bad_update(sender, cid)
            return None
        except NotFoundError:
            return None
        # a successful get has re-hashed the canonical DAG, so the content's
        # digest is the cid itself, which the caller read from the ledger's
        # hash records: the charged check always passes
        ctx.ledger.validate_update(cid, cid, caller=str(self.peer_id))
        try:
            round_index, claimed_sender, owned = decode_update(
                content, self.baseline, ctx.peers[sender].segment
            )
        except SerializationError:
            ctx.flag_bad_update(sender, cid)
            return None
        if claimed_sender != sender or round_index != ctx.global_round:
            return None
        ctx.consumed_log.append((self.peer_id, sender, cid.hex))
        return owned

    def _collect(self, ctx: RunContext) -> list[tuple[int, np.ndarray]]:
        """Each accepted update of this round's drawn mates, as (sender, owned values)."""
        cfg = ctx.cfg
        members = ctx.members[self.segment.cluster_id]
        others = len(members) - 1
        if others == 0 or cfg.fanout == 0:
            return []
        # distinct positions among the other members, stepped past this
        # peer's own position in the ascending member array
        picks = self.rng.choice(others, size=min(cfg.fanout, others), replace=False)
        picks += picks >= np.searchsorted(members, self.peer_id)
        chosen = set(members[picks].tolist())
        latest = ctx.ledger.hash_records(round_tag=round_tag(ctx.global_round), peers=chosen)
        pulled = [(s, self._pull(ctx, s, latest[s])) for s in sorted(latest)]
        return [(s, owned) for s, owned in pulled if owned is not None]

    # -- one gossip iteration -------------------------------------------------

    def peer_iteration(self, ctx: RunContext, trained: ModelParams, own_loss: float) -> bool:
        """Publish a privatized delta, pull neighbors, combine, apply.

        ``trained`` is this peer's ``params`` after its local steps and
        ``own_loss`` their loss on its eval set, as :func:`local_steps`
        returns them; the update header claims that loss, and the incentive
        check judges candidates against it.  Returns False when the
        iteration was aborted: at once, publishing nothing, when an honest
        peer's own delta is not finite (its training diverged, and such a
        delta cannot be clipped), or when a ledger rejection stopped it.
        ``params`` and ``iteration`` are assigned last, so an abort leaves
        them as they were before training; it undoes nothing else: the
        peer's RNG stays advanced, and whatever the iteration did before the
        rejection remains.  That can be the block written to the store, its
        queued ``save_hash``, ``validate_update``, reward and penalize
        transactions, quarantined cids, consumed-log entries and run
        counters.
        """
        cfg = ctx.cfg
        byzantine = self.peer_id in cfg.byzantine_peers
        # only owned coordinates are combined; all others keep the baseline
        owned = segment_coords(trained, self.segment).owned
        delta = gather(trained.buf, owned) - gather(self.baseline.buf, owned)
        if not byzantine and not np.isfinite(delta).all():
            ctx.aborted_iterations += 1
            return False
        try:
            own = (
                self._hostile_delta(ctx, delta.size)
                if byzantine
                else self._privatize(ctx, delta)
            )
            claimed = 0.0 if byzantine else own_loss
            payload = encode_update(
                own, trained, self.segment, ctx.global_round, self.peer_id, claimed
            )
            self._publish(ctx, payload)

            updates = self._collect(ctx)
            pulled = [values for _, values in updates]
            if pulled:
                # every candidate is scored on this peer's eval set in one stacked call
                _, losses = trainer.evaluate(
                    self._rebased(owned, pulled), self.eval_features, self.eval_labels
                )
                for (sender, _), loss_after in zip(updates, losses.tolist()):
                    verdict = incentive_check(own_loss, loss_after, cfg.penalty_loss_delta)
                    if verdict == REWARD:
                        ctx.ledger.reward(sender, REWARD_AMOUNT, reason="loss-improved")
                    elif verdict == PENALTY:
                        ctx.ledger.penalize(sender, PENALTY_AMOUNT, reason="loss-deviation")

            vectors = [own, *pulled]
            # alone, or too few updates for a feasible trim: pure local progress
            combined = (
                vectors[0]
                if len(vectors) == 1
                else _robust_combine(ctx, vectors, fallback=vectors[0])
            )
            [self.params] = self._rebased(owned, [combined]).unstacked()
            self.iteration += 1
        except LedgerError:
            ctx.aborted_iterations += 1
            return False
        self._audit_segment(ctx)
        return True

    def _audit_segment(self, ctx: RunContext) -> None:
        foreign = segment_coords(self.params, self.segment).foreign
        if any(
            self.params.buf[r].tobytes() != self.baseline.buf[r].tobytes() for r in foreign
        ):
            ctx.segment_violations += 1


def local_steps(peers: list[Peer], train: TrainConfig) -> list[tuple[ModelParams, float]]:
    """Every peer's ``params`` after its local SGD steps, with their loss on
    its eval set, in ``peers`` order.

    The peers train as one stacked computation whose batches are padded to
    ``train.batch_size`` rows, and are then scored as one stack whose eval
    sets are padded to ``EVAL_ROWS``; 1-row batches and sets stack apart,
    unpadded.  Both run in passes cut by :func:`trainer.in_passes`.  Each
    peer draws its batches from its own RNG, and each stacked model runs the
    same shapes whichever peers share its pass, so it computes bit for bit
    what it would alone.  No peer's state but its RNG changes.
    """
    batches = [peer._batches(train) for peer in peers]
    batch_rows = [len(y[0]) for _, y in batches]
    trained: dict[int, ModelParams] = {}
    for group, width in _stacks(batch_rows, train.batch_size):
        for members in trainer.in_passes(group, peers[group[0]].params, width):
            # (step, peer, batch row, feature): each step's batches are contiguous
            x, y = (_padded([batches[i][k] for i in members], width) for k in (0, 1))
            rows = np.array([batch_rows[i] for i in members])
            stacked = np.stack([peers[i].params.buf for i in members])
            params = peers[members[0]].params.with_buf(stacked)
            segments = [peers[i].segment for i in members]
            for step in range(train.local_steps):
                grad = mask_to_segment(trainer.gradient(params, x[step], y[step], rows), segments)
                params = trainer.sgd_step(params, grad, train.learning_rate)
            trained.update(zip(members, params.unstacked()))
    eval_rows = [len(peer.eval_labels) for peer in peers]
    losses: dict[int, float] = {}
    for group, width in _stacks(eval_rows, EVAL_ROWS):
        # an eval set is a batch of one step
        x = _padded([peers[i].eval_features[None] for i in group], width)[0]
        y = _padded([peers[i].eval_labels[None] for i in group], width)[0]
        rows = np.array([eval_rows[i] for i in group])
        stacked = trained[group[0]].with_buf(np.stack([trained[i].buf for i in group]))
        _, loss = trainer.evaluate(stacked, x, y, rows)
        losses.update(zip(group, loss.tolist()))
    return [(trained[i], losses[i]) for i in range(len(peers))]


def _stacks(sizes: list[int], width: int) -> list[tuple[list[int], int]]:
    """The indices of ``sizes`` that share one stack, each with its row width.

    Sets of one row stack apart, unpadded: numpy multiplies a 1-row matrix
    by another BLAS kernel (``gemv``), which sums in another order, so padding
    them would change their results.  Every other set is padded to ``width``.
    """
    single = [i for i, n in enumerate(sizes) if n == 1]
    padded = [i for i, n in enumerate(sizes) if n != 1]
    return [(group, w) for group, w in ((single, 1), (padded, width)) if group]


def _padded(parts: list[np.ndarray], width: int) -> np.ndarray:
    """``(steps, n, ...)`` arrays with ``n <= width`` stacked as
    ``(steps, len(parts), width, ...)``, zero past each part's own rows."""
    steps, _, *tail = parts[0].shape
    out = np.zeros((steps, len(parts), width, *tail), dtype=parts[0].dtype)
    for j, part in enumerate(parts):
        out[:, j, : part.shape[1]] = part
    return out


def leader_duty(leader: Peer, ctx: RunContext) -> Cid:
    """Reconstruct the global model from the latest validated round updates.

    Per segment, the rows it owns are combined coordinate-wise over its
    members' deltas; lower layers are combined across every accepted update.
    No other coordinate is read, and segments with no updates carry the
    previous global values.  The result is published as the next global
    round.
    """
    base = ctx.global_params
    lower = base.lower_size
    latest = ctx.ledger.hash_records(round_tag=round_tag(ctx.global_round), peers=ctx.peers)
    by_cluster: dict[int, list[np.ndarray]] = {}
    all_owned: list[np.ndarray] = []
    for sender in sorted(latest):
        owned = leader._pull(ctx, sender, latest[sender])
        if owned is not None:
            cluster_id = ctx.peers[sender].segment.cluster_id
            by_cluster.setdefault(cluster_id, []).append(owned)
            all_owned.append(owned)

    theta = base.copy()
    for cluster_id, spec in ctx.segment_specs.items():
        updates = by_cluster.get(cluster_id)
        if not updates:
            ctx.segment_carryovers += 1
            continue
        # an owned vector is the lower layers, then the segment's final-layer rows
        combined = _robust_combine(ctx, [owned[lower:] for owned in updates])
        for r, part in split_over(combined, segment_coords(base, spec).owned[1:]):
            theta.buf[r] += part
    if all_owned:
        theta.buf[:lower] += _robust_combine(ctx, [owned[:lower] for owned in all_owned])
    return publish_global(ctx, leader.peer_id, theta)


def publish_global(ctx: RunContext, publisher: int, params: ModelParams) -> Cid:
    """Store ``params``, record it under the next ``g*`` tag, advance ``ctx``."""
    content = canonical_bytes(params)
    # every synced peer holds this one object, so it becomes read-only, and
    # so do tensor views made before this call
    for array in (params.buf, *params.tensors()):
        array.flags.writeable = False
    cid = ctx.store.put(content)
    ctx.ledger.save_hash(publisher, cid, global_tag(ctx.global_round + 1))
    ctx.global_params = params
    ctx.global_cid = cid
    ctx.global_bytes = content
    ctx.global_round += 1
    return cid
