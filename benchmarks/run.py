"""gossipseg benchmark: closed loop, one client, one simulation at a time.

Usage:
    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed fixes the RunConfig of the
workload (see workloads.py), so every simulation in one run is the same
simulation.  Setups run back to back, each in a fresh process with a fresh
CAS and output directory, until the next one would overrun ``--seconds``;
at least two always run.  Each setup is followed by the workload's number
of gossip phases, each in a child process forked from the state the setup
left (see simulate.py), so that ``gossip_s`` has several samples per setup.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics: medians over the run's setups and gossip phases, with tracing off.
With ``--trace 1`` one traced simulation and the layer micro-benchmarks run
first, then untraced simulations for the overhead baseline, and the last
line carries the per-layer metrics.  Every gossip phase must pass the
correctness gate: a verified ledger chain, no segment violation, and
ledger, metrics and model digests plus final global cid identical across
the run.  Earlier lines report each setup and gossip phase, the spread of
each metric and whether the digests match those recorded for the seed in
digests.json.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import tail_percentile
from workdir import spread_subdirs
from workloads import COMMON_COUNTERS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
# a hung child is killed this long after the run started, so the run ends
# within 180 s whatever --seconds asks for
DEADLINE_S = 170


def run_child(script: str, args: list[str], deadline: float) -> dict | None:
    """Run one benchmark script in a fresh process with a fresh work directory.

    On timeout the script is killed; a gossip child it forked dies with it
    (simulate.py sets its parent-death signal).
    """
    spread_subdirs(WORK_DIR)
    out = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / script), *args, "--out", out],
            capture_output=True,
            text=True,
            timeout=max(0.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        print(f"{script} was killed at the run's {DEADLINE_S} s deadline", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"{script} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    return (
        f"median {statistics.median(values):.6g}, min {min(values):.6g}, "
        f"max {max(values):.6g} (n={len(values)})"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gossipseg" / "__init__.py").is_file():
        print(f"no gossipseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    sim_args = ["--workload", args.workload, "--seed", str(args.seed)]

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    traced = micro = None
    if args.trace:
        traced = run_child("simulate.py", [*sim_args, "--trace"], deadline)
        micro = run_child("micro.py", ["--seed", str(args.seed)], deadline)
    repeats = ["--repeats", str(workload.gossip_repeats)]
    setups: list[dict | None] = []
    durations: list[float] = []
    while True:
        began = time.perf_counter()
        setups.append(run_child("simulate.py", [*sim_args, *repeats], deadline))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed > DEADLINE_S:
            break
        if len(setups) >= 2 and elapsed + statistics.median(durations) > args.seconds:
            break
    shutil.rmtree(WORK_DIR, ignore_errors=True)

    # one record per gossip phase, None for a setup that failed
    sims: list[dict | None] = []
    for s in setups:
        sims.extend([None] if s is None else s["gossip"])
    ok = [s for s in sims if s is not None]
    if not ok:
        print("every simulation failed", file=sys.stderr)
        return 1
    checked = {f"sim {i}": sim for i, sim in enumerate(sims, 1)}
    if args.trace:
        traced = traced and traced["gossip"][0]
        checked = {"traced sim": traced, **checked}
    problems = []
    for i, setup in enumerate(setups, 1):
        if setup is not None:
            print(f"setup {i}: setup_s={setup['setup_s']:.4f}")
    for label, sim in checked.items():
        if sim is None:
            problems.append(f"{label} raised")
            continue
        print(
            f"{label}: gossip_s={sim['gossip_s']:.4f} "
            f"iterations={sim['iterations']} rss_mb={sim['rss_mb']:.1f} "
            f"ops={sim['ops_attempted']} failed_ops={sim['ops_failed']}"
        )
        if not sim["chain_ok"]:
            problems.append(f"{label}: ledger chain does not verify")
        if sim["segment_violations"]:
            problems.append(f"{label}: {sim['segment_violations']} segment violations")
    digests = [sim["digests"] for sim in checked.values() if sim is not None]
    if any(d != digests[0] for d in digests):
        problems.append("artifact digests differ between simulations of one seed")
    print(f"digests {args.workload} seed {args.seed}: {json.dumps(digests[0], sort_keys=True)}")
    recorded = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    expected = recorded.get(args.workload, {}).get(str(args.seed))
    if expected is None:
        print("recorded digests: none for this seed")
    else:
        print(f"recorded digests: {'match' if expected == digests[0] else 'DIFFER'}")

    # a setup whose process failed counts as one gossip phase with every operation failed
    failed_ratio = [1.0 if s is None else s["ops_failed"] / s["ops_attempted"] for s in sims]
    series = {
        "setup_s": [s["setup_s"] for s in setups if s is not None],
        "gossip_s": [s["gossip_s"] for s in ok],
        "peer_iters_per_s": [s["iterations"] / s["gossip_s"] for s in ok],
        "peak_rss_mb": [s["rss_mb"] for s in ok],
        "final_accuracy_mean": [s["accuracy_mean"] for s in ok],
    }
    for name, values in series.items():
        print(f"{name}: {spread(values)}")
    print(f"failed_op_ratio: {statistics.mean(failed_ratio):.6g}")

    if args.trace:
        if traced is None or micro is None:
            problems.append("the traced simulation or the micro-benchmarks failed")
            values = {}
        else:
            values = {**traced["layers"], **micro}
            values["trace.overhead_s"] = traced["gossip_s"] - statistics.median(series["gossip_s"])
            for name in (*COMMON_COUNTERS, *workload.counters):
                if not values[name]:
                    problems.append(f"layer counter {name} is zero: a wrapper missed it")
            samples = values["peer.peer_iteration.calls"]
            print(f"peer.peer_iteration.tail_ms is p{tail_percentile(samples)} of {samples} samples")
            holds = workload.intent_holds(values)
            print(f"intent ({workload.intent}): {'holds' if holds else 'DOES NOT HOLD'}")
        wanted = spec["per_layer"]
    else:
        values = {name: statistics.median(v) for name, v in series.items()}
        values["ok_op_ratio"] = 1.0 - statistics.mean(failed_ratio)
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not problems:
        problems.append(f"metrics not measured: {missing}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(checked),
                "failed": sum(1 for s in checked.values() if s is None or s["ops_failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
