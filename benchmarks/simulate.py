"""Run one setup and several gossip phases of a named workload; print one JSON line.

Usage: python3 benchmarks/simulate.py --workload NAME --seed N --out DIR
       [--repeats K] [--trace]

``run_phase1`` runs once.  Then ``run_phase2`` runs ``--repeats`` times,
each time in a child forked from the state phase 1 left, with a fresh copy
of what phase 1 left on disk as its output and CAS directory.  Every gossip
phase therefore starts from the same state a single simulation would, in
a process of its own, and one setup yields several gossip samples.  The
configured output directory is a link to the current copy; each copy has a
name of its own so that it lands on inodes not freed recently (workdir.py).
``run.py`` starts this script once per setup.  With ``--trace`` the public
functions of every layer are wrapped first and each gossip record also
carries the per-layer figures of the whole simulation.
"""
import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer, install, layer_metrics  # noqa: E402
from workdir import spread_subdirs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


PR_SET_PDEATHSIG = 1  # from linux/prctl.h


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gossip(orchestrator, cfg, phase1, tracer: Tracer | None, setup_rss_mb: float) -> dict:
    """Run phase 2 and return its figures."""
    start = time.perf_counter()
    report, ctx = orchestrator.run_phase2(cfg, phase1)
    gossip_s = time.perf_counter() - start
    layers = layer_metrics(tracer) if tracer else None

    ledger = phase1.ledger
    completed = sum(peer.iteration for peer in ctx.peers.values())
    validate_txs = sum(
        tx.op == "validate_update" for block in ledger.blocks for tx in block.transactions
    )
    result = {
        "gossip_s": gossip_s,
        "iterations": completed,
        "ops_attempted": completed + ctx.aborted_iterations + validate_txs,
        "ops_failed": ctx.aborted_iterations + ctx.integrity_alarms,
        "chain_ok": ledger.verify_chain(),
        "segment_violations": ctx.segment_violations,
        "accuracy_mean": sum(report.final_accuracy.values()) / len(report.final_accuracy),
        # the forked child starts from the parent's pages; the setup peak is the parent's
        "rss_mb": max(setup_rss_mb, peak_rss_mb()),
        "digests": {
            **{k: report.artifact_digests[k] for k in ("ledger", "metrics", "model")},
            "final_global_cid": report.final_global_cid,
        },
    }
    if layers is not None:
        layers["ledger.tx_count"] = sum(len(block.transactions) for block in ledger.blocks)
        layers["ledger.total_gas"] = report.total_gas
        layers["cas.blocks_on_disk"] = phase1.store.block_count()
        layers["peer.consumed_updates"] = len(ctx.consumed_log)
        layers["peer.segment_carryovers"] = ctx.segment_carryovers
        layers["peer.aborted_iterations"] = ctx.aborted_iterations
        result["layers"] = layers
    return result


def forked(fn) -> dict:
    """Call ``fn`` in a forked child and return the dict it returns."""
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            # the child dies with this process, even when that is killed
            ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != parent:
                raise RuntimeError("setup process ended before the gossip child started")
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(fn(), pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"gossip child exited with code {code}")
    return json.loads(text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    # looked up after install, so the traced run enters through the wrappers
    from gossipseg import orchestrator

    work = Path(args.out)
    spread_subdirs(work)
    out = work / "run"
    out.symlink_to(tempfile.mkdtemp(dir=work, prefix="run-"))
    cfg = WORKLOADS[args.workload].run_config(args.seed, str(out))
    start = time.perf_counter()
    phase1 = orchestrator.run_phase1(cfg)
    setup_s = time.perf_counter() - start
    setup_rss_mb = peak_rss_mb()

    # what phase 1 left on disk (so far an empty CAS directory), copied for each phase 2
    snapshot = out.resolve()
    runs = []
    for _ in range(args.repeats):
        copy = tempfile.mkdtemp(dir=work, prefix="run-")
        shutil.copytree(snapshot, copy, dirs_exist_ok=True)
        out.unlink()
        out.symlink_to(copy)
        runs.append(forked(lambda: gossip(orchestrator, cfg, phase1, tracer, setup_rss_mb)))
    print(json.dumps({"setup_s": setup_s, "gossip": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
