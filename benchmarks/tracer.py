"""In-memory span tracer that wraps gossipseg's public functions from outside.

``install`` replaces every public module-level function, and every public
method of each class defined in the traced modules, with a wrapper that
records one span per call: name, start, end and the index of the enclosing
span.  ``from .model import flatten`` binds a second name to the same
function in the importing module, so every such binding is rebound as well;
otherwise a layer would silently read zero.

A span's self time is its duration minus the time its child spans cover.
Calls are strictly nested in this single-threaded simulator, so the covered
time is the sum of the direct children's durations.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

LAYERS = (
    "ledger",
    "cas",
    "model",
    "trainer",
    "privacy",
    "aggregation",
    "paillier",
    "clustering",
    "datasets",
    "peer",
    "scheduler",
    "orchestrator",
)

PHASES = {"setup": "orchestrator.run_phase1", "gossip": "orchestrator.run_phase2"}

Probe = Callable[[Counter, tuple, object], None]


def _saved(counters: Counter, args: tuple, result: object) -> None:
    counters["ledger.saved_hashes"] += 1


def _scanned(counters: Counter, args: tuple, result: object) -> None:
    # the hash history a scan walks is every hash saved before the call
    counters["ledger.scan_rows"] += counters["ledger.saved_hashes"]


def _validated(counters: Counter, args: tuple, result: object) -> None:
    _scanned(counters, args, result)
    counters["ledger.validate_ok"] += bool(result)


PROBES: dict[str, Probe] = {
    "ledger.save_hash": _saved,
    "ledger.hash_records": _scanned,
    "ledger.validate_update": _validated,
    "cas.put": lambda c, args, result: c.update({"cas.put.bytes": len(args[1])}),
    "cas.get": lambda c, args, result: c.update({"cas.get.bytes": len(result)}),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, probe: Probe | None = None) -> Callable:
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(counters, args, result)
            return result

        return functools.wraps(fn)(traced)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module of gossipseg."""
    originals: dict[Callable, Callable] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"gossipseg.{layer}")
        seen: set[str] = set()

        def wrapped(attr: str, fn: Callable) -> Callable:
            name = f"{layer}.{attr}"
            if name in seen:
                raise RuntimeError(f"two traced functions would share the span name {name}")
            seen.add(name)
            return tracer.wrap(name, fn, PROBES.get(name))

        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                originals[value] = wrapped(attr, value)
            elif inspect.isclass(value):
                for method, fn in list(vars(value).items()):
                    if not method.startswith("_") and inspect.isfunction(fn):
                        setattr(value, method, wrapped(method, fn))
    for name, module in list(sys.modules.items()):
        if name != "gossipseg" and not name.startswith("gossipseg."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in originals:
                setattr(module, attr, originals[value])

    # Scheduler callbacks are orchestrator closures: trace each as its own
    # span so the glue they run is charged to the orchestrator, and count them.
    from gossipseg.scheduler import Scheduler

    traced_at = Scheduler.at

    def at(self, tick, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        event = tracer.wrap(
            f"{layer}.{fn.__name__}",
            fn,
            lambda c, args, result: c.update(("scheduler.events",)),
        )
        return traced_at(self, tick, event)

    Scheduler.at = at


def tail_percentile(count: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def _percentile_ms(durations: list[float], pct: float | None) -> float:
    if pct is None:
        return 1e3 * max(durations, default=0.0)
    cuts = statistics.quantiles(durations, n=1000, method="inclusive")
    return 1e3 * cuts[round(pct * 10) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function and per-layer figures from the recorded spans."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
            root[i] = root[parent]
    durations: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    phase_self: dict[tuple[str, str], float] = defaultdict(float)
    phase_s: dict[str, float] = defaultdict(float)
    phase_of = {name: phase for phase, name in PHASES.items()}
    for i, (name, start, end, parent) in enumerate(spans):
        own = end - start - child_s[i]
        durations[name].append(end - start)
        self_s[name] += own
        phase = phase_of.get(spans[root[i]][0])
        if phase is not None:
            phase_self[(phase, name.split(".", 1)[0])] += own
            if parent < 0:
                phase_s[phase] += end - start

    def calls(*names: str) -> int:
        return sum(len(durations[n]) for n in names)

    def seconds(*names: str) -> float:
        return sum(sum(durations[n]) for n in names)

    counters = tracer.counters
    out: dict[str, float] = {}
    for fn in (
        "ledger.validate_update",
        "ledger.hash_records",
        "ledger.save_hash",
        "ledger.seal_block",
        "ledger.cumulative_gas",
        "cas.put",
        "cas.get",
        "cas.compute_cid",
        "model.mask_to_segment",
        "trainer.gradient",
        "trainer.evaluate",
        "privacy.clip_and_noise",
        "aggregation.trimmed_mean",
        "paillier.encrypt",
        "paillier.decrypt",
        "peer.sync_global",
    ):
        out[f"{fn}.calls"] = calls(fn)
        out[f"{fn}.s"] = seconds(fn)
    validates = calls("ledger.validate_update")
    out["ledger.dump.s"] = seconds("ledger.dump")
    out["ledger.scan_rows"] = counters["ledger.scan_rows"]
    out["ledger.validate_ok_ratio"] = counters["ledger.validate_ok"] / validates if validates else 1.0
    out["cas.put.bytes"] = counters["cas.put.bytes"]
    out["cas.get.bytes"] = counters["cas.get.bytes"]
    out["model.codec.calls"] = calls("model.canonical_bytes", "model.params_from_bytes")
    out["model.codec.s"] = seconds("model.canonical_bytes", "model.params_from_bytes")
    out["model.flatten.s"] = seconds("model.flatten", "model.unflatten")
    out["model.assemble_global.s"] = seconds("model.assemble_global")
    out["trainer.sgd_step.s"] = seconds("trainer.sgd_step")
    trimmed, plain = calls("aggregation.trimmed_mean"), calls("aggregation.plain_mean")
    out["aggregation.plain_mean.calls"] = plain
    out["aggregation.trim_applied_ratio"] = trimmed / (trimmed + plain) if trimmed + plain else 1.0
    out["paillier.keygen.s"] = seconds("paillier.keygen")
    out["clustering.one_shot_cluster.self_s"] = sum(
        v for n, v in self_s.items() if n.startswith("clustering.")
    )
    out["datasets.build.s"] = seconds("datasets.synthetic_blobs", "datasets.dirichlet_partition")
    for fn in ("peer.peer_iteration", "peer.leader_duty"):
        out[f"{fn}.calls"] = calls(fn)
        out[f"{fn}.p50_ms"] = 1e3 * statistics.median(durations[fn]) if durations[fn] else 0.0
        out[f"{fn}.self_s"] = self_s[fn]
    iterations = durations["peer.peer_iteration"]
    out["peer.peer_iteration.tail_ms"] = _percentile_ms(iterations, tail_percentile(len(iterations)))
    out["scheduler.events"] = counters["scheduler.events"]
    # glue that no child span covers: the phase bodies, their scheduler
    # callbacks, metric rows and artifact writing
    out["orchestrator.run_phase1.self_s"] = phase_self[("setup", "orchestrator")]
    out["orchestrator.run_phase2.self_s"] = phase_self[("gossip", "orchestrator")]
    for phase in PHASES:
        total = phase_s[phase]
        for layer in LAYERS:
            out[f"{layer}.{phase}_share"] = phase_self[(phase, layer)] / total if total else 0.0
    out["trace.spans"] = len(spans)
    return out
