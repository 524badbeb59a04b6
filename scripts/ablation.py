#!/usr/bin/env python3
"""Run every variant of one experiment suite on every seed and print one table.

A suite is a base RunConfig and a table of named variants, each a dict of
RunConfig overrides. Each row gives, averaged over the seeds, the mean and
the worst final accuracy of the honest peers (the peers that no variant of
the suite makes Byzantine), the setup gas, the gossip gas per completed
peer iteration, and then each seed's mean.

    python3 scripts/ablation.py segmentation --seeds 1 2 3
"""
import argparse
import dataclasses
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gossipseg.aggregation import TrimConfig
from gossipseg.config import DataConfig, RunConfig
from gossipseg.orchestrator import run_phase1, run_phase2

# 8 peers on 4 well-separated blobs: without an attack every peer ends near 1.0
BLOB = RunConfig(
    duration_ticks=130,
    leader_period=30,
    paillier_bits=512,
    data=DataConfig(samples_per_class=200, test_per_class=50),
)
# 8 overlapping blobs on skewed shards: accuracy ends well short of 1.0, so a
# variant can be seen to help or to hurt
HARD = RunConfig(
    num_peers=16,
    num_clusters=4,
    beta=0.1,
    duration_ticks=300,
    paillier_bits=256,
    data=DataConfig(num_classes=8, center_scale=1.0, spread=1.0),
)
# a leader period past the last tick of any run: no leader round ever runs
NO_LEADER = sys.maxsize

SUITES = {
    "segmentation": (HARD, {
        "as-configured": {},
        "one-cluster": {"num_clusters": 1},
        "no-leader-round": {"leader_period": NO_LEADER},
    }),
    "beta": (HARD, {f"beta-{beta:g}": {"beta": beta} for beta in (10.0, 1.0, 0.5, 0.1)}),
    "byzantine": (BLOB, {
        "clean": {},
        "trimmed": {"byzantine_peers": (5,), "trim": TrimConfig(trim_ratio=0.2)},
        "untrimmed": {"byzantine_peers": (5,), "trim": TrimConfig(trim_ratio=0.0)},
    }),
    "gas": (BLOB, {f"{n}-peers": {"num_peers": n} for n in (2, 4, 8, 16, 32)}),
}


def run(cfg: RunConfig) -> tuple[dict[int, float], int, float]:
    """Each peer's final accuracy, the setup gas, and gossip gas per iteration."""
    phase1 = run_phase1(cfg)
    setup_gas = phase1.ledger.total_gas()
    report, ctx = run_phase2(cfg, phase1)
    iterations = sum(peer.iteration for peer in ctx.peers.values())
    per_iteration = (report.total_gas - setup_gas) / iterations if iterations else float("nan")
    return report.final_accuracy, setup_gas, per_iteration


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--ticks", type=int, help="run length in ticks, for every variant")
    parser.add_argument("--out", default="runs/ablation")
    args = parser.parse_args()

    base, variants = SUITES[args.suite]
    if args.ticks is not None:
        base = dataclasses.replace(base, duration_ticks=args.ticks)
    adversaries = {pid for v in variants.values() for pid in v.get("byzantine_peers", ())}
    print(
        f"{'variant':<16} {'mean':>6} {'worst':>6} {'setup gas':>12} {'gas/iter':>10}"
        "  per-seed means"
    )
    for name, overrides in variants.items():
        means, worsts, setup_gas, per_iteration = [], [], [], []
        for seed in args.seeds:
            cfg = dataclasses.replace(
                base, seed=seed, out_dir=f"{args.out}/{args.suite}/{name}/seed-{seed}", **overrides
            )
            accuracy, setup, gas = run(cfg)
            honest = [acc for pid, acc in accuracy.items() if pid not in adversaries]
            means.append(statistics.mean(honest))
            worsts.append(min(honest))
            setup_gas.append(setup)
            per_iteration.append(gas)
        print(
            f"{name:<16} {statistics.mean(means):>6.3f} {statistics.mean(worsts):>6.3f}"
            f" {statistics.mean(setup_gas):>12,.0f} {statistics.mean(per_iteration):>10,.0f}  "
            + " / ".join(f"{m:.3f}" for m in means)
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
