"""Command line entry points: run, phase1, replay, gas-report."""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

from .config import RunConfig, load_config, read_input
from .errors import GossipSegError
from .ledger import gas_report
from .orchestrator import run_full, run_phase1, write_ledger


# each run flag once: the RunConfig field it sets ("sub.field" for a nested
# config), the value type, and its help text
_RUN_FLAGS = {
    "--peers": ("num_peers", int, None),
    "--clusters": ("num_clusters", int, None),
    "--beta": ("beta", float, "Dirichlet concentration"),
    "--seed": ("seed", int, None),
    "--ticks": ("duration_ticks", int, "simulation duration"),
    "--dp-clip": ("dp.clip_norm", float, None),
    "--dp-sigma-max": ("dp.sigma_max", float, None),
    "--dp-sigma-min": ("dp.sigma_min", float, None),
    "--trim-ratio": ("trim.trim_ratio", float, None),
    "--fanout": ("fanout", int, None),
    "--leader-period": ("leader_period", int, None),
    "--cluster-dp": ("cluster_dp", bool, "noise label distributions before clustering"),
    "--paillier-bits": ("paillier_bits", int, None),
    "--out-dir": ("out_dir", str, None),
    "--cas-dir": ("cas_dir", str, None),
    "--metrics-out": ("metrics_out", str, None),
    "--ledger-out": ("ledger_out", str, None),
}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    for flag, (path, value_type, help_text) in _RUN_FLAGS.items():
        if value_type is bool:
            p.add_argument(flag, dest=path, action="store_true", default=None, help=help_text)
        else:
            p.add_argument(flag, dest=path, type=value_type, default=None, help=help_text)


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The config file (or defaults) with every given flag applied at once.

    Each nested config and then the run config is replaced once, so no
    half-applied combination of flags is ever validated on its own.
    """
    cfg = load_config(args.config) if args.config else RunConfig()
    outer: dict = {}
    nested: dict[str, dict] = {}
    for path, _, _ in _RUN_FLAGS.values():
        value = getattr(args, path)
        if value is None:
            continue
        sub, _, name = path.rpartition(".")
        if sub:
            nested.setdefault(sub, {})[name] = value
        else:
            outer[name] = value
    for sub, changes in nested.items():
        outer[sub] = dataclasses.replace(getattr(cfg, sub), **changes)
    return dataclasses.replace(cfg, **outer)


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
    print(f"artifacts in {Path(cfg.out_dir)}")
    return 0


def _cmd_phase1(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    phase1 = run_phase1(cfg)
    paths = cfg.artifact_paths()
    for name in ("ledger", "gas_report"):
        paths[name].parent.mkdir(parents=True, exist_ok=True)
    table = write_ledger(phase1.ledger, paths["ledger"], paths["gas_report"])
    print(f"cluster assignment: {phase1.assignment.assignment}")
    for spec in sorted(set(phase1.segments.values()), key=lambda s: s.cluster_id):
        print(f"cluster {spec.cluster_id}: rows [{spec.start}, {spec.end}]")
    print(table, end="")
    print(f"total gas: {phase1.ledger.total_gas()}")
    return 0


def _lines(path: Path) -> list[str] | None:
    return path.read_text(encoding="utf-8").splitlines() if path.is_file() else None


def _clip(line: str | None, width: int = 100) -> str:
    if line is None:
        return "(no line)"
    return line if len(line) <= width else line[: width - 3] + "..."


def _cmd_replay(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    prior = cfg.artifact_paths()
    expected = None
    if prior["report"].exists():
        expected = json.loads(prior["report"].read_text(encoding="utf-8"))
    # read before the replay can overwrite them
    saved = {key: _lines(prior[key]) for key in ("metrics", "ledger")}
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
        first = None
        if saved.get(key) is not None:
            pairs = itertools.zip_longest(saved[key], _lines(cfg.artifact_paths()[key]))
            first = next(((n, a, b) for n, (a, b) in enumerate(pairs, 1) if a != b), None)
        recorded = expected.get("artifact_digests", {}).get(key)
        if first or recorded != report.artifact_digests[key]:
            mismatches.append(key)
        print(f"{key}: {'DIFFERS' if key in mismatches else 'identical'}")
        if first:
            n, old, new = first
            print(f"  first difference at line {n}:")
            print(f"    saved:    {_clip(old)}")
            print(f"    replayed: {_clip(new)}")
    if expected.get("final_global_cid") != report.final_global_cid:
        mismatches.append("final_global_cid")
        print("final_global_cid: DIFFERS")
    return 1 if mismatches else 0


def _cmd_gas_report(args: argparse.Namespace) -> int:
    print(gas_report(read_input(args.ledger)), end="")
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
