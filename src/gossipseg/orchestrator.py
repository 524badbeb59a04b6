"""Two-phase experiment driver and artifact writer.

Phase 1 registers peers, clusters them by label distribution, and assigns
final-layer segments on the ledger.  Phase 2 runs the asynchronous gossip
simulation on a deterministic event scheduler and writes metrics, ledger
dump, gas report, and the final global model.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import paillier, trainer
from .cas import BlockStore
from .clustering import ClusterAssignment, one_shot_cluster
from .config import RunConfig, save_config
from .datasets import LabeledDataset, dirichlet_partition, load_idx_dataset, synthetic_blobs
from .errors import ConfigurationError
from .ledger import Ledger, gas_report
from .model import SegmentSpec, segment_boundaries
from .peer import Peer, RunContext, leader_duty, local_steps, publish_global
from .scheduler import Scheduler

METRICS_HEADER = "tick,peer_id,cluster_id,iteration,loss,accuracy,tokens,cumulative_gas"
METRICS_VERSION_LINE = "# gossipseg-metrics v1"
# ticks between two ledger block seals
SEAL_PERIOD = 10


def derive_seed(base: int, label: str) -> int:
    """Stable domain-separated sub-seed."""
    digest = hashlib.sha256(f"{base}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class Phase1Result:
    ledger: Ledger
    store: BlockStore
    assignment: ClusterAssignment
    # each peer's segment as the ledger's get_segment returned it
    segments: dict[int, SegmentSpec]
    train_data: LabeledDataset
    test_data: LabeledDataset
    shards: list[np.ndarray]


@dataclass
class RunReport:
    initial_accuracy: dict[int, float]
    final_accuracy: dict[int, float]
    growth_delta: dict[int, float]
    tokens: dict[int, int]
    total_gas: int
    global_rounds: int
    final_global_cid: str
    ticks: int
    segment_violations: int
    integrity_alarms: int
    segment_carryovers: int
    aborted_iterations: int
    quarantined_updates: int
    consumed_updates: int
    trim_fallbacks: int
    artifacts: dict[str, str] = field(default_factory=dict)
    artifact_digests: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        # str keys, as JSON would make them, sort as text: "10" before "2"
        return {
            name: {str(k): v for k, v in value.items()} if isinstance(value, dict) else value
            for name, value in asdict(self).items()
        }


def build_dataset(cfg: RunConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Train and held-out test splits from one generator draw."""
    data_cfg = cfg.data
    if data_cfg.idx_images is not None:
        train = load_idx_dataset(
            data_cfg.idx_images, data_cfg.idx_labels, data_cfg.num_classes
        )
        test = load_idx_dataset(
            data_cfg.idx_test_images, data_cfg.idx_test_labels, data_cfg.num_classes
        )
        # the model's input width is the training set's
        if test.features.shape[1] != train.features.shape[1]:
            raise ConfigurationError(
                f"idx test images have {test.features.shape[1]} features per sample, "
                f"the training images {train.features.shape[1]}"
            )
        return train, test
    rng = np.random.default_rng(derive_seed(cfg.seed, "data"))
    per_class = data_cfg.samples_per_class + data_cfg.test_per_class
    full = synthetic_blobs(
        data_cfg.num_classes,
        per_class,
        data_cfg.input_dim,
        rng,
        center_scale=data_cfg.center_scale,
        spread=data_cfg.spread,
    )
    # synthetic_blobs lays the classes out in blocks of per_class rows
    rows = np.arange(data_cfg.num_classes * per_class).reshape(data_cfg.num_classes, per_class)
    train_idx = rows[:, : data_cfg.samples_per_class].ravel()
    test_idx = rows[:, data_cfg.samples_per_class :].ravel()
    train = LabeledDataset(
        full.features[train_idx], full.labels[train_idx], data_cfg.num_classes
    )
    test = LabeledDataset(
        full.features[test_idx], full.labels[test_idx], data_cfg.num_classes
    )
    return train, test


def run_phase1(cfg: RunConfig) -> Phase1Result:
    """Register, cluster, and segment; exactly one assignment pass.

    The output paths, the data and its partition into shards are checked
    first, so a rejected config costs no key generation.  The block store
    is created last, so a config rejected anywhere in this phase leaves
    nothing on disk.
    """
    paths = cfg.artifact_paths()
    # no two artifacts may share a file, and the CAS directory holds no artifact
    cas, *files = [(name, Path(os.path.realpath(path))) for name, path in paths.items()]
    for i, (name, path) in enumerate(files):
        for other, taken in (cas, *files[:i]):
            if path == taken or taken in path.parents or path in taken.parents:
                raise ConfigurationError(f"{name} path {path} collides with {other} path {taken}")
    out_dirs = [paths["cas"]]
    for name, path in paths.items():
        if name == "cas":
            continue
        if path.is_dir():
            raise ConfigurationError(f"output file {path} is a directory")
        out_dirs.append(path.parent)
    for out_dir in out_dirs:
        # the nearest existing path at or above it is where mkdir would start
        existing = next(p for p in (out_dir, *out_dir.parents) if os.path.lexists(p))
        if not existing.is_dir():
            raise ConfigurationError(f"output directory {out_dir}: {existing} is not a directory")
    train_data, test_data = build_dataset(cfg)
    shards, label_counts = dirichlet_partition(
        train_data, cfg.num_peers, cfg.beta, derive_seed(cfg.seed, "partition")
    )
    ledger = Ledger()
    keypair = paillier.keygen(cfg.paillier_bits, seed=derive_seed(cfg.seed, "paillier"))
    ledger.deploy_contracts(
        {"paillier_n": str(keypair.public.n), "paillier_g": str(keypair.public.g)}
    )
    for pid in range(cfg.num_peers):
        credential = hashlib.sha256(
            f"{cfg.seed}:{pid}:credential".encode("utf-8")
        ).hexdigest()
        ledger.register(pid, credential)
    cluster_rng = np.random.default_rng(derive_seed(cfg.seed, "clustering"))
    assignment = one_shot_cluster(
        label_counts / label_counts.sum(axis=1, keepdims=True),
        cfg.num_clusters,
        cluster_rng,
        keypair,
        random.Random(derive_seed(cfg.seed, "blinding")),
        assignment_sigma=cfg.dp.sigma_max if cfg.cluster_dp else 0.0,
        assignment_clip=cfg.dp.clip_norm,
    )
    ledger.save_cluster_centers(assignment.centroids, caller=0)
    specs = segment_boundaries(cfg.data.num_classes, cfg.num_clusters)
    for pid in range(cfg.num_peers):
        ledger.assign_segment(pid, specs[assignment.assignment[pid]])
    segments = {pid: ledger.get_segment(pid) for pid in range(cfg.num_peers)}
    ledger.seal_block(tick=0)
    return Phase1Result(
        ledger=ledger,
        store=BlockStore(paths["cas"]),
        assignment=assignment,
        segments=segments,
        train_data=train_data,
        test_data=test_data,
        shards=shards,
    )


def _ledger_state(ctx: RunContext, peer: Peer) -> tuple[int, int]:
    """The peer's balance and the cumulative gas, as a metrics row shows them."""
    return ctx.ledger.balance(peer.peer_id), ctx.ledger.cumulative_gas()


def _metric_row(
    tick: int, peer: Peer, accuracy: float, loss: float, ledger_state: tuple[int, int]
) -> str:
    """One metrics.csv line, in ``METRICS_HEADER`` order."""
    tokens, gas = ledger_state
    return (
        f"{tick},{peer.peer_id},{peer.segment.cluster_id},{peer.iteration},"
        f"{loss!r},{accuracy!r},{tokens},{gas}"
    )


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_phase2(
    cfg: RunConfig,
    phase1: Phase1Result,
    fault_hook=None,
) -> tuple[RunReport, RunContext]:
    """Drive the gossip simulation and write all run artifacts.

    ``fault_hook(peer_id, cid, iteration)`` runs after every publish; test
    harnesses use it to corrupt stored blocks mid-run.
    """
    ledger, store = phase1.ledger, phase1.store
    test_x, test_y = phase1.test_data.features, phase1.test_data.labels
    init_rng = np.random.default_rng(derive_seed(cfg.seed, "init"))
    initial_params = trainer.init_params(
        phase1.train_data.features.shape[1],
        cfg.train.hidden_dim,
        cfg.data.num_classes,
        init_rng,
    )

    peers: dict[int, Peer] = {}
    for pid in range(cfg.num_peers):
        peers[pid] = Peer(
            peer_id=pid,
            segment=phase1.segments[pid],
            params=initial_params,
            baseline=initial_params,
            train=phase1.train_data,
            shard=phase1.shards[pid],
            rng=np.random.default_rng(derive_seed(cfg.seed, f"peer{pid}")),
        )

    ctx = RunContext(
        cfg=cfg,
        ledger=ledger,
        store=store,
        peers=peers,
        fault_hook=fault_hook,
    )

    publish_global(ctx, ledger.elect_leader(0), initial_params)
    for pid in sorted(peers):
        peers[pid].sync_global(ctx)

    # no batch holds more rows than its shard, so no stack is padded wider
    # than the largest shard
    largest_shard = max(len(shard) for shard in phase1.shards)
    train = replace(cfg.train, batch_size=min(cfg.train.batch_size, largest_shard))

    rows = [METRICS_VERSION_LINE, METRICS_HEADER]

    def record(tick: int, scored: list[Peer], states: list[tuple[int, int]]) -> list[float]:
        """Append the peers' metrics rows, scored on the test set in stacked
        passes; return their accuracies.

        Peers that hold one params object, as every peer does after a sync
        until it trains, share one score: a model's score does not depend
        on the models stacked with it.
        """
        models = list({id(peer.params): peer.params for peer in scored}.values())
        scores: dict[int, tuple[float, float]] = {}
        for run in trainer.in_passes(models, initial_params, len(test_y)):
            stacked = initial_params.with_buf(np.stack([params.buf for params in run]))
            accuracy, loss = trainer.evaluate(stacked, test_x, test_y)
            scores.update(zip(map(id, run), zip(accuracy.tolist(), loss.tolist())))
        per_peer = [scores[id(peer.params)] for peer in scored]
        for peer, (acc, loss), state in zip(scored, per_peer, states):
            rows.append(_metric_row(tick, peer, acc, loss, state))
        return [acc for acc, _ in per_peer]

    # every peer now holds the initial model, whether its sync succeeded or not
    initial = [peers[pid] for pid in sorted(peers)]
    accuracy = record(0, initial, [_ledger_state(ctx, peer) for peer in initial])
    initial_accuracy = {peer.peer_id: acc for peer, acc in zip(initial, accuracy)}

    sched = Scheduler()
    # the peers that wake on each pending tick, in the order they were scheduled
    due: dict[int, list[Peer]] = {}

    def schedule_wake(peer: Peer, tick: int) -> None:
        nxt = tick + int(peer.rng.integers(cfg.interval_min, cfg.interval_max + 1))
        if nxt <= cfg.duration_ticks:
            if nxt not in due:
                due[nxt] = []
                sched.at(nxt, wake)
            due[nxt].append(peer)

    def leader_tick(tick: int) -> None:
        leader_id = ledger.elect_leader(tick)
        leader_duty(peers[leader_id], ctx)
        for pid in sorted(peers):
            peers[pid].sync_global(ctx)

    def seal_tick(tick: int) -> None:
        if ledger.pending_count():
            ledger.seal_block(tick)

    def wake(tick: int) -> None:
        woken = due.pop(tick)
        for peer in woken:
            if ctx.global_round > peer.synced_round:  # retry a failed sync
                peer.sync_global(ctx)
        states = []
        for peer, (trained, own_loss) in zip(woken, local_steps(woken, train)):
            peer.peer_iteration(ctx, trained, own_loss)
            states.append(_ledger_state(ctx, peer))
            schedule_wake(peer, tick)
        record(tick, woken, states)

    for tick in range(cfg.leader_period, cfg.duration_ticks + 1, cfg.leader_period):
        sched.at(tick, leader_tick)
    for tick in range(SEAL_PERIOD, cfg.duration_ticks + 1, SEAL_PERIOD):
        sched.at(tick, seal_tick)
    for pid in sorted(peers):
        schedule_wake(peers[pid], 0)

    sched.run_until(cfg.duration_ticks)
    if ledger.pending_count():
        ledger.seal_block(cfg.duration_ticks)

    final = [peers[pid] for pid in sorted(peers)]
    accuracy = record(cfg.duration_ticks, final, [_ledger_state(ctx, peer) for peer in final])
    final_accuracy = {peer.peer_id: acc for peer, acc in zip(final, accuracy)}

    paths = cfg.artifact_paths()
    for path in paths.values():
        path.parent.mkdir(parents=True, exist_ok=True)
    paths["metrics"].write_text("\n".join(rows) + "\n", encoding="utf-8")
    write_ledger(ledger, paths["ledger"], paths["gas_report"])
    paths["model"].write_bytes(ctx.global_bytes)
    save_config(cfg, paths["config"])

    report = RunReport(
        initial_accuracy=initial_accuracy,
        final_accuracy=final_accuracy,
        growth_delta={
            pid: final_accuracy[pid] - initial_accuracy[pid] for pid in final_accuracy
        },
        tokens={pid: ledger.balance(pid) for pid in sorted(peers)},
        total_gas=ledger.total_gas(),
        global_rounds=ctx.global_round,
        final_global_cid=ctx.global_cid.hex,
        ticks=cfg.duration_ticks,
        segment_violations=ctx.segment_violations,
        integrity_alarms=ctx.integrity_alarms,
        segment_carryovers=ctx.segment_carryovers,
        aborted_iterations=ctx.aborted_iterations,
        quarantined_updates=len(ctx.quarantined),
        consumed_updates=len(ctx.consumed_log),
        trim_fallbacks=ctx.trim_fallbacks,
        artifacts={
            name: str(path) for name, path in paths.items() if name not in ("cas", "report")
        },
        artifact_digests={
            name: _file_digest(paths[name]) for name in ("metrics", "ledger", "model")
        },
    )
    paths["report"].write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report, ctx


def run_full(
    cfg: RunConfig, fault_hook=None
) -> tuple[Phase1Result, RunReport, RunContext]:
    phase1 = run_phase1(cfg)
    report, ctx = run_phase2(cfg, phase1, fault_hook=fault_hook)
    return phase1, report, ctx


def write_ledger(ledger: Ledger, ledger_path: Path, gas_path: Path) -> str:
    """Write the ledger dump and the gas table of that one dump; return the table."""
    table = gas_report(ledger.dump(ledger_path))
    gas_path.write_text(table, encoding="utf-8")
    return table
