#!/usr/bin/env python3
"""Print the setup-phase gas bill as the peer count grows.

Deployment and the cluster-centers save are flat; registration, segment
assignment, and boundary retrieval each bill once per peer, so the total
is affine in N. The table below makes the slope visible.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gossipseg.config import DataConfig, RunConfig
from gossipseg.ledger import OPERATIONS
from gossipseg.orchestrator import run_phase1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--peer-counts", type=int, nargs="+", default=[2, 4, 8, 16, 32])
    parser.add_argument("--clusters", type=int, default=2)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    prev = None
    print(f"{'peers':>6}  {'total gas':>12}  {'delta':>10}")
    for n in args.peer_counts:
        cfg = RunConfig(
            num_peers=n,
            num_clusters=min(args.clusters, n),
            seed=args.seed,
            paillier_bits=512,
            data=DataConfig(samples_per_class=50, test_per_class=10),
            out_dir=f"runs/gas_scaling/n-{n}",
        )
        total = run_phase1(cfg).ledger.total_gas()
        delta = "" if prev is None else f"{total - prev:>10,}"
        print(f"{n:>6}  {total:>12,}  {delta:>10}")
        prev = total

    print("\nper-operation costs:")
    for name, op in OPERATIONS.items():
        print(f"  {name:<22} {op.gas:>10,}  contract #{op.contract}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
