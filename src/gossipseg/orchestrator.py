"""Two-phase experiment driver and artifact writer.

Phase 1 registers peers, clusters them by label distribution, and assigns
final-layer segments on the ledger.  Phase 2 runs the asynchronous gossip
simulation on a deterministic event scheduler and writes metrics, ledger
dump, gas report, and the final global model.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import paillier, trainer
from .cas import BlockStore
from .clustering import ClusterAssignment, CryptoContext, one_shot_cluster
from .config import RunConfig, save_config
from .datasets import (
    LabeledDataset,
    LabelDistribution,
    dirichlet_partition,
    label_distribution,
    load_idx_dataset,
    synthetic_blobs,
)
from .errors import ConfigurationError
from .ledger import Ledger
from .model import SegmentSpec, canonical_bytes, segment_boundaries
from .peer import Peer, RunContext, global_tag, leader_duty
from .scheduler import Scheduler

METRICS_HEADER = "tick,peer_id,cluster_id,iteration,loss,accuracy,tokens,cumulative_gas"
METRICS_VERSION_LINE = "# gossipseg-metrics v1"


def derive_seed(base: int, label: str) -> int:
    """Stable domain-separated sub-seed."""
    digest = hashlib.sha256(f"{base}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class Phase1Result:
    cfg: RunConfig
    ledger: Ledger
    store: BlockStore
    keypair: paillier.PaillierKeyPair
    assignment: ClusterAssignment
    segment_specs: dict[int, SegmentSpec]
    train_data: LabeledDataset
    test_data: LabeledDataset
    shards: list[np.ndarray]
    distributions: dict[int, LabelDistribution]


@dataclass
class RunReport:
    initial_accuracy: dict[int, float]
    final_accuracy: dict[int, float]
    growth_delta: dict[int, float]
    tokens: dict[int, int]
    total_gas: int
    global_rounds: int
    final_global_cid: str | None
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
    if data_cfg.kind == "idx":
        train = load_idx_dataset(
            data_cfg.idx_images, data_cfg.idx_labels, data_cfg.num_classes
        )
        if data_cfg.idx_test_images and data_cfg.idx_test_labels:
            test = load_idx_dataset(
                data_cfg.idx_test_images, data_cfg.idx_test_labels, data_cfg.num_classes
            )
        else:
            raise ConfigurationError("idx datasets need test image and label paths")
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
    train_idx, test_idx = [], []
    for k in range(data_cfg.num_classes):
        block = np.flatnonzero(full.labels == k)
        train_idx.extend(block[: data_cfg.samples_per_class])
        test_idx.extend(block[data_cfg.samples_per_class :])
    train_idx = np.array(train_idx)
    test_idx = np.array(test_idx)
    train = LabeledDataset(
        full.features[train_idx], full.labels[train_idx], data_cfg.num_classes
    )
    test = LabeledDataset(
        full.features[test_idx], full.labels[test_idx], data_cfg.num_classes
    )
    return train, test


def run_phase1(cfg: RunConfig) -> Phase1Result:
    """Register, cluster, and segment; exactly one assignment pass."""
    store = BlockStore(cfg.resolve_cas_dir())
    ledger = Ledger(cfg.gas_table(), cfg.initial_tokens)
    keypair = paillier.keygen(
        cfg.paillier_bits,
        seed=derive_seed(cfg.seed, "paillier") if cfg.deterministic else None,
    )
    ledger.deploy_contracts(
        {"paillier_n": str(keypair.public.n), "paillier_g": str(keypair.public.g)}
    )
    train_data, test_data = build_dataset(cfg)
    shards = dirichlet_partition(
        train_data, cfg.num_peers, cfg.beta, derive_seed(cfg.seed, "partition")
    )
    for pid in range(cfg.num_peers):
        credential = hashlib.sha256(
            f"{cfg.seed}:{pid}:credential".encode("utf-8")
        ).hexdigest()
        ledger.register(pid, credential)
    distributions = {
        pid: label_distribution(shards[pid], train_data) for pid in range(cfg.num_peers)
    }
    blinding = (
        random.Random(derive_seed(cfg.seed, "blinding")) if cfg.deterministic else None
    )
    crypto = CryptoContext(keypair, cfg.fixed_point_scale, blinding)
    cluster_rng = np.random.default_rng(derive_seed(cfg.seed, "clustering"))
    assignment = one_shot_cluster(
        distributions,
        cfg.num_clusters,
        cluster_rng,
        crypto,
        assignment_sigma=cfg.dp.sigma_max if cfg.cluster_dp else 0.0,
        assignment_clip=cfg.dp.clip_norm,
    )
    ledger.save_cluster_centers(assignment.centroids, caller=0)
    specs = {
        s.cluster_id: s
        for s in segment_boundaries(cfg.data.num_classes, cfg.num_clusters)
    }
    for pid in range(cfg.num_peers):
        ledger.assign_segment(pid, specs[assignment.assignment[pid]])
    for pid in range(cfg.num_peers):
        ledger.get_segment(pid)
    ledger.seal_block(tick=0)
    return Phase1Result(
        cfg=cfg,
        ledger=ledger,
        store=store,
        keypair=keypair,
        assignment=assignment,
        segment_specs=specs,
        train_data=train_data,
        test_data=test_data,
        shards=shards,
        distributions=distributions,
    )


def _metric_row(
    ctx: RunContext, tick: int, peer: Peer, accuracy: float, loss: float
) -> dict:
    return {
        "tick": tick,
        "peer_id": peer.peer_id,
        "cluster_id": peer.cluster_id,
        "iteration": peer.iteration,
        "loss": loss,
        "accuracy": accuracy,
        "tokens": ctx.ledger.balance(peer.peer_id),
        "cumulative_gas": ctx.ledger.cumulative_gas(),
    }


def _write_metrics(rows: list[dict], path: Path) -> None:
    lines = [METRICS_VERSION_LINE, METRICS_HEADER]
    for row in rows:
        lines.append(
            f"{row['tick']},{row['peer_id']},{row['cluster_id']},{row['iteration']},"
            f"{row['loss']!r},{row['accuracy']!r},{row['tokens']},{row['cumulative_gas']}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        shard = phase1.shards[pid]
        cluster_id = phase1.assignment.assignment[pid]
        peers[pid] = Peer(
            peer_id=pid,
            cluster_id=cluster_id,
            segment=phase1.segment_specs[cluster_id],
            params=initial_params.copy(),
            baseline=initial_params.copy(),
            features=phase1.train_data.features[shard],
            labels=phase1.train_data.labels[shard],
            rng=np.random.default_rng(derive_seed(cfg.seed, f"peer{pid}")),
            byzantine=pid in cfg.byzantine_peers,
            batch_size=cfg.train.batch_size,
        )

    ctx = RunContext(
        cfg=cfg,
        ledger=ledger,
        store=store,
        segment_specs=phase1.segment_specs,
        peers=peers,
        fault_hook=fault_hook,
    )

    genesis_leader = ledger.elect_leader(0)
    initial_bytes = canonical_bytes(initial_params)
    genesis_cid = store.put(initial_bytes)
    ledger.save_hash(genesis_leader, genesis_cid, global_tag(0))
    ctx.global_params = initial_params.copy()
    ctx.global_cid = genesis_cid
    ctx.global_round = 0
    for pid in sorted(peers):
        peers[pid].sync_global(ctx)

    rows: list[dict] = []
    initial_accuracy: dict[int, float] = {}
    for pid in sorted(peers):
        acc, loss = trainer.evaluate(peers[pid].params, test_x, test_y)
        initial_accuracy[pid] = acc
        rows.append(_metric_row(ctx, 0, peers[pid], acc, loss))

    sched = Scheduler()

    def leader_tick(tick: int) -> None:
        leader_id = ledger.elect_leader(tick)
        leader_duty(peers[leader_id], ctx, tick)
        for pid in sorted(peers):
            peers[pid].maybe_sync(ctx)

    def seal_tick(tick: int) -> None:
        if ledger.pending_count():
            ledger.seal_block(tick)

    def make_wake(pid: int):
        def wake(tick: int) -> None:
            peer = peers[pid]
            peer.maybe_sync(ctx)
            peer.peer_iteration(ctx, tick)
            acc, loss = trainer.evaluate(peer.params, test_x, test_y)
            rows.append(_metric_row(ctx, tick, peer, acc, loss))
            nxt = tick + int(
                peer.rng.integers(cfg.interval_min, cfg.interval_max + 1)
            )
            if nxt <= cfg.duration_ticks:
                sched.at(nxt, wake)

        return wake

    for tick in range(cfg.leader_period, cfg.duration_ticks + 1, cfg.leader_period):
        sched.at(tick, leader_tick)
    for tick in range(cfg.seal_period, cfg.duration_ticks + 1, cfg.seal_period):
        sched.at(tick, seal_tick)
    for pid in sorted(peers):
        first = int(
            peers[pid].rng.integers(cfg.interval_min, cfg.interval_max + 1)
        )
        if first <= cfg.duration_ticks:
            sched.at(first, make_wake(pid))

    sched.run_until(cfg.duration_ticks)
    if ledger.pending_count():
        ledger.seal_block(cfg.duration_ticks)

    final_accuracy: dict[int, float] = {}
    for pid in sorted(peers):
        acc, loss = trainer.evaluate(peers[pid].params, test_x, test_y)
        final_accuracy[pid] = acc
        rows.append(_metric_row(ctx, cfg.duration_ticks, peers[pid], acc, loss))

    out_dir = cfg.resolve_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = cfg.resolve_metrics_out()
    ledger_path = cfg.resolve_ledger_out()
    metrics_path.parent.mkdir(parents=True, exist_ok=True)
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "global_model.bin"
    report_path = out_dir / "run_report.json"
    gas_path = out_dir / "gas_report.txt"
    config_path = out_dir / "config.json"

    _write_metrics(rows, metrics_path)
    ledger.dump(ledger_path)
    model_path.write_bytes(
        canonical_bytes(ctx.global_params) if ctx.global_params else b""
    )
    report_gas(ledger, gas_path)
    save_config(cfg, config_path)

    report = RunReport(
        initial_accuracy=initial_accuracy,
        final_accuracy=final_accuracy,
        growth_delta={
            pid: final_accuracy[pid] - initial_accuracy[pid] for pid in final_accuracy
        },
        tokens={pid: ledger.balance(pid) for pid in sorted(peers)},
        total_gas=ledger.total_gas(),
        global_rounds=ctx.global_round,
        final_global_cid=ctx.global_cid.hex if ctx.global_cid else None,
        ticks=cfg.duration_ticks,
        segment_violations=ctx.segment_violations,
        integrity_alarms=ctx.integrity_alarms,
        segment_carryovers=ctx.segment_carryovers,
        aborted_iterations=ctx.aborted_iterations,
        quarantined_updates=len(ctx.quarantined),
        consumed_updates=len(ctx.consumed_log),
        trim_fallbacks=ctx.trim_fallbacks,
        artifacts={
            "metrics": str(metrics_path),
            "ledger": str(ledger_path),
            "model": str(model_path),
            "gas_report": str(gas_path),
            "config": str(config_path),
        },
        artifact_digests={
            "metrics": _file_digest(metrics_path),
            "ledger": _file_digest(ledger_path),
            "model": _file_digest(model_path),
        },
    )
    report_path.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report, ctx


def run_full(
    cfg: RunConfig, fault_hook=None
) -> tuple[Phase1Result, RunReport, RunContext]:
    phase1 = run_phase1(cfg)
    report, ctx = run_phase2(cfg, phase1, fault_hook=fault_hook)
    return phase1, report, ctx


def _render_gas_table(summary: dict[str, dict[str, int]]) -> str:
    lines = [f"{'operation':<22}{'count':>8}{'unit_gas':>12}{'total_gas':>14}"]
    total = 0
    for op in sorted(summary):
        row = summary[op]
        lines.append(
            f"{op:<22}{row['count']:>8}{row['unit_gas']:>12}{row['gas']:>14}"
        )
        total += row["gas"]
    lines.append(f"{'TOTAL':<22}{'':>8}{'':>12}{total:>14}")
    return "\n".join(lines) + "\n"


def report_gas(ledger: Ledger, path: str | Path | None = None) -> str:
    """Render per-operation counts and gas totals over sealed blocks."""
    text = _render_gas_table(ledger.gas_summary())
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def gas_report_from_dump(path: str | Path) -> str:
    """Aggregate a ledger dump file into the same table as :func:`report_gas`."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "height\top\tcaller\tgas\tpayload_digest":
        raise ConfigurationError("not a ledger dump file")
    summary: dict[str, dict[str, int]] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ConfigurationError(f"malformed dump line: {line!r}")
        op, gas = parts[1], int(parts[3])
        row = summary.setdefault(op, {"count": 0, "unit_gas": gas, "gas": 0})
        row["count"] += 1
        row["gas"] += gas
    return _render_gas_table(summary)
