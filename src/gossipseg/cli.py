"""Command line entry points: run, phase1, replay, gas-report."""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .aggregation import TrimConfig
from .config import RunConfig, load_config
from .errors import GossipSegError
from .orchestrator import (
    gas_report_from_dump,
    report_gas,
    run_full,
    run_phase1,
)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--peers", type=int, default=None)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--beta", type=float, default=None, help="Dirichlet concentration")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ticks", type=int, default=None, help="simulation duration")
    p.add_argument("--dp-clip", type=float, default=None)
    p.add_argument("--dp-sigma-max", type=float, default=None)
    p.add_argument("--dp-sigma-min", type=float, default=None)
    p.add_argument("--trim-ratio", type=float, default=None)
    p.add_argument("--fanout", type=int, default=None)
    p.add_argument("--leader-period", type=int, default=None)
    p.add_argument("--deterministic", action="store_true", default=None)
    p.add_argument("--no-deterministic", dest="deterministic", action="store_false")
    p.add_argument("--cluster-dp", action="store_true", default=None)
    p.add_argument("--paillier-bits", type=int, default=None)
    p.add_argument("--out-dir", type=str, default=None)
    p.add_argument("--cas-dir", type=str, default=None)
    p.add_argument("--metrics-out", type=str, default=None)
    p.add_argument("--ledger-out", type=str, default=None)


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    scalar = {
        "peers": "num_peers",
        "clusters": "num_clusters",
        "beta": "beta",
        "seed": "seed",
        "ticks": "duration_ticks",
        "fanout": "fanout",
        "leader_period": "leader_period",
        "deterministic": "deterministic",
        "cluster_dp": "cluster_dp",
        "paillier_bits": "paillier_bits",
        "out_dir": "out_dir",
        "cas_dir": "cas_dir",
        "metrics_out": "metrics_out",
        "ledger_out": "ledger_out",
    }
    updates = {}
    for arg_name, field_name in scalar.items():
        value = getattr(args, arg_name)
        if value is not None:
            updates[field_name] = value
    dp_kwargs = {}
    if args.dp_clip is not None:
        dp_kwargs["clip_norm"] = args.dp_clip
    if args.dp_sigma_max is not None:
        dp_kwargs["sigma_max"] = args.dp_sigma_max
    if args.dp_sigma_min is not None:
        dp_kwargs["sigma_min"] = args.dp_sigma_min
    if dp_kwargs:
        updates["dp"] = dataclasses.replace(cfg.dp, **dp_kwargs)
    if args.trim_ratio is not None:
        updates["trim"] = TrimConfig(trim_ratio=args.trim_ratio)
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    phase1, report, _ = run_full(cfg)
    print(f"peers={cfg.num_peers} clusters={cfg.num_clusters} ticks={cfg.duration_ticks}")
    print(f"cluster assignment: {phase1.assignment.assignment}")
    for pid in sorted(report.final_accuracy):
        print(
            f"peer {pid}: accuracy {report.initial_accuracy[pid]:.4f} -> "
            f"{report.final_accuracy[pid]:.4f}, tokens {report.tokens[pid]}"
        )
    print(f"global rounds: {report.global_rounds}")
    print(f"final global cid: {report.final_global_cid}")
    print(f"total gas: {report.total_gas}")
    print(f"artifacts in {cfg.resolve_out_dir()}")
    return 0


def _cmd_phase1(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    phase1 = run_phase1(cfg)
    out_dir = cfg.resolve_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger_path = cfg.resolve_ledger_out()
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    phase1.ledger.dump(ledger_path)
    print(f"cluster assignment: {phase1.assignment.assignment}")
    for cluster_id, spec in sorted(phase1.segment_specs.items()):
        print(f"cluster {cluster_id}: rows [{spec.start}, {spec.end}]")
    print(report_gas(phase1.ledger, out_dir / "gas_report.txt"), end="")
    print(f"total gas: {phase1.ledger.total_gas()}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    expected_path = cfg.resolve_out_dir() / "run_report.json"
    expected = None
    if expected_path.exists():
        expected = json.loads(expected_path.read_text(encoding="utf-8"))
    if args.out_dir:
        cfg = dataclasses.replace(cfg, out_dir=args.out_dir, cas_dir=None,
                                  metrics_out=None, ledger_out=None)
    _, report, _ = run_full(cfg)
    print(f"replayed {cfg.duration_ticks} ticks, final cid {report.final_global_cid}")
    if expected is None:
        print("no prior run report found; nothing to compare")
        return 0
    mismatches = []
    for key in ("ledger", "model", "metrics"):
        before = expected.get("artifact_digests", {}).get(key)
        after = report.artifact_digests.get(key)
        status = "identical" if before == after else "DIFFERS"
        if before != after:
            mismatches.append(key)
        print(f"{key}: {status}")
    if expected.get("final_global_cid") != report.final_global_cid:
        mismatches.append("final_global_cid")
        print("final_global_cid: DIFFERS")
    return 1 if mismatches else 0


def _cmd_gas_report(args: argparse.Namespace) -> int:
    print(gas_report_from_dump(args.ledger), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipseg",
        description="Ledger-scheduled segmented gossip learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="phase 1 + gossip simulation + artifacts")
    _add_run_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_phase1 = sub.add_parser("phase1", help="registration, clustering, segmentation only")
    _add_run_flags(p_phase1)
    p_phase1.set_defaults(fn=_cmd_phase1)

    p_replay = sub.add_parser("replay", help="re-run a saved config and compare artifacts")
    p_replay.add_argument("--config", type=str, required=True)
    p_replay.add_argument("--out-dir", type=str, default=None,
                          help="write replay artifacts here instead of the config's out_dir")
    p_replay.set_defaults(fn=_cmd_replay)

    p_gas = sub.add_parser("gas-report", help="aggregate a ledger dump into a gas table")
    p_gas.add_argument("--ledger", type=str, required=True, help="ledger dump file")
    p_gas.set_defaults(fn=_cmd_gas_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GossipSegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
