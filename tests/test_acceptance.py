"""End-to-end acceptance gate.

One test per shipping criterion; each prints a single PASS/FAIL line with
the measured quantity so a log scrape shows the whole gate at a glance.
Criteria with published cost numbers are checked exactly; statistical
criteria use fixed seeds so reruns are reproducible.
"""

import dataclasses
import hashlib
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import tamper
from gossipseg.aggregation import TrimConfig, is_trim_feasible, trimmed_mean
from gossipseg.cas import Cid
from gossipseg.config import DataConfig, RunConfig
from gossipseg.errors import LedgerError
from gossipseg.ledger import Ledger
from gossipseg.orchestrator import run_full, run_phase1, run_phase2
from gossipseg.paillier import (
    add,
    decrypt,
    encrypt,
    encrypt_vector,
    keygen,
    secure_mean,
)
from gossipseg.privacy import DpConfig, clip_and_noise, sigma_at
from gossipseg.trainer import forward_loss, gradient, init_params


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {detail}")
    assert ok, detail


def run_config(tmp_path, tag, **overrides):
    base = dict(
        num_peers=8,
        num_clusters=2,
        beta=0.5,
        seed=11,
        duration_ticks=130,
        leader_period=30,
        seal_period=10,
        paillier_bits=512,
        data=DataConfig(num_classes=4, samples_per_class=200, test_per_class=50, input_dim=8),
        out_dir=str(tmp_path / tag),
    )
    base.update(overrides)
    return RunConfig(**base)


def test_criterion_01_gas_reproduction(tmp_path):
    expected = (
        1_418_084 + 1_566_634 + 8 * 100_340 + 257_000 + 8 * 120_450 + 8 * 35_210
    )
    start = time.perf_counter()
    phase1 = run_phase1(run_config(tmp_path, "gas"))
    elapsed = time.perf_counter() - start
    total = phase1.ledger.total_gas()
    counts = {op: row["count"] for op, row in phase1.ledger.gas_summary().items()}
    ok = (
        total == expected
        and elapsed < 1.0
        and counts
        == {
            "deploy_contract_1": 1,
            "deploy_contract_2": 1,
            "register": 8,
            "save_cluster_centers": 1,
            "assign_segment": 8,
            "get_segment": 8,
        }
    )
    report(1, ok, f"total gas {total} (expected {expected}), {elapsed:.3f}s")


def test_criterion_02_paillier_suite():
    start = time.perf_counter()
    kp = keygen(bits=512, seed=2024)
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        a = rng.randrange(0, 2**64)
        b = rng.randrange(0, 2**64)
        total = decrypt(add(encrypt(a, kp.public, rng), encrypt(b, kp.public, rng), kp.public), kp)
        failures += total != a + b

    scale = 10**6
    np_rng = np.random.default_rng(2024)
    vectors = np_rng.random((6, 5))
    encrypted = [encrypt_vector(v, kp.public, scale, rng, contributors=6) for v in vectors]
    got = secure_mean(encrypted, 6, kp, scale)
    mean_err = float(np.max(np.abs(got - vectors.mean(axis=0))))
    elapsed = time.perf_counter() - start
    ok = failures == 0 and mean_err < 1e-6 and elapsed < 30.0
    report(
        2,
        ok,
        f"1000 homomorphism checks, {failures} failures, "
        f"secure mean err {mean_err:.2e}, {elapsed:.1f}s",
    )


def sort_and_slice_reference(vectors, ratio):
    """Exact-arithmetic reference aggregator, independent of the library."""
    n = len(vectors)
    frac = Fraction(ratio).limit_denominator(10**9)
    lo = int(-((-frac * n) // 1))
    hi = int((1 - frac) * n // 1)
    out = []
    for j in range(len(vectors[0])):
        column = sorted(float(v[j]) for v in vectors)[lo:hi]
        out.append(sum(column) / len(column))
    return np.array(out)


def test_criterion_03_trimmed_mean_oracle():
    frozen = trimmed_mean([np.array([v], dtype=float) for v in (1, 2, 3, 4, 100)], 0.2)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(500):
        # the trimmed mean is undefined when trimming empties the sample,
        # so draw until the (n, ratio) pair retains at least one value
        while True:
            ratio = float(rng.choice([0.0, 0.1, 0.2, 0.3]))
            n = int(rng.integers(1, 51))
            if is_trim_feasible(n, ratio):
                break
        dim = int(rng.integers(1, 9))
        vectors = [rng.normal(scale=25.0, size=dim) for _ in range(n)]
        got = trimmed_mean(vectors, ratio)
        want = sort_and_slice_reference(vectors, ratio)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = frozen[0] == 3.0 and worst < 1e-12
    report(3, ok, f"frozen case {frozen[0]}, worst deviation {worst:.2e} over 500 instances")


def test_criterion_04_dp_suite():
    rng = np.random.default_rng(4)
    clip = 1.5
    violations = 0
    for _ in range(1000):
        dim = int(rng.integers(1, 200))
        g = rng.normal(scale=float(rng.uniform(0.01, 50.0)), size=dim)
        out = clip_and_noise(g, clip, 0.0, rng)
        if float(np.linalg.norm(out)) > clip * (1 + 1e-12):
            violations += 1

    sigma = 0.25
    noise = clip_and_noise(np.zeros(10_000), clip, sigma, np.random.default_rng(44))
    var_ratio = float(noise.var() / (sigma * clip) ** 2)

    cfg = DpConfig(sigma_max=0.02, sigma_min=0.005, total_rounds=100)
    endpoints = sigma_at(0, cfg) == cfg.sigma_max and sigma_at(99, cfg) == cfg.sigma_min

    ok = violations == 0 and abs(var_ratio - 1.0) < 0.05 and endpoints
    report(
        4,
        ok,
        f"{violations} clip violations, variance ratio {var_ratio:.4f}, "
        f"endpoints exact {endpoints}",
    )


def test_criterion_05_gradient_check():
    h = 1e-6
    worst = 0.0
    for trial in range(5):
        rng = np.random.default_rng(500 + trial)
        dim = int(rng.integers(3, 7))
        hidden = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 5))
        params = init_params(dim, hidden, classes, rng)
        x = rng.normal(size=(6, dim))
        y = rng.integers(0, classes, size=6)
        analytic = gradient(params, x, y).buf
        flat = params.buf
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            plus, minus = flat.copy(), flat.copy()
            plus[i] += h
            minus[i] -= h
            numeric[i] = (
                forward_loss(params.with_buf(plus), x, y)[0]
                - forward_loss(params.with_buf(minus), x, y)[0]
            ) / (2 * h)
        rel = float(
            np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        )
        worst = max(worst, rel)
    ok = worst < 1e-4
    report(5, ok, f"worst relative gradient error {worst:.2e} over 5 nets")


def test_criterion_06_segment_discipline(tmp_path):
    cfg = run_config(
        tmp_path, "discipline", num_peers=4, duration_ticks=90, audit=True
    )
    _, report_out, ctx = run_full(cfg)
    iterations = sum(p.iteration for p in ctx.peers.values())
    ok = report_out.segment_violations == 0 and iterations > 0
    report(
        6,
        ok,
        f"{report_out.segment_violations} violations over {iterations} audited iterations",
    )


def test_criterion_07_integrity_tamper_detection(tmp_path):
    detected = 0
    clean_penalties = True
    never_aggregated = True
    runs = 20
    for trial in range(runs):
        state = {"cid": None}
        target = trial % 4
        cfg = run_config(
            tmp_path,
            f"tamper-{trial}",
            num_peers=4,
            seed=900 + trial,
            duration_ticks=15,
            leader_period=12,
            interval_min=6,
            interval_max=10,
            penalty_loss_delta=1e9,
        )

        phase1 = run_phase1(cfg)

        def fault(pid, cid, iteration):
            # flip one byte of the target peer's first stored update
            if pid != target or state["cid"] is not None:
                return
            state["cid"] = cid
            tamper(phase1.store, cid, len(phase1.store._read_block(cid)) // 2, 0xFF)

        _, ctx = run_phase2(cfg, phase1, fault_hook=fault)
        tampered = state["cid"]
        assert tampered is not None, "fault hook never fired"
        if tampered.hex in ctx.quarantined and ctx.integrity_alarms == 1:
            detected += 1
        if any(c == tampered.hex for _, _, c in ctx.consumed_log):
            never_aggregated = False
        if ctx.ledger.pending_count():
            ctx.ledger.seal_block(99)
        rows = [
            line
            for line in ctx.ledger.dump_text().splitlines()[1:]
            if line.split("\t")[1] == "penalize"
        ]
        if len(rows) != 1 or rows[0].split("\t")[3] != "77102":
            clean_penalties = False
    ok = detected == runs and clean_penalties and never_aggregated
    report(
        7,
        ok,
        f"{detected}/{runs} tampers detected, one 77102-gas penalty each: "
        f"{clean_penalties}, quarantined updates aggregated: {not never_aggregated}",
    )


def test_criterion_08_non_iid_alignment(tmp_path):
    results = {}
    timings = {}
    for beta in (1.0, 0.1):
        cfg = run_config(tmp_path, f"beta-{beta}", beta=beta, duration_ticks=250, leader_period=60)
        start = time.perf_counter()
        _, rep, _ = run_full(cfg)
        timings[beta] = time.perf_counter() - start
        results[beta] = rep.final_accuracy
    means = {b: float(np.mean(list(acc.values()))) for b, acc in results.items()}
    gap = abs(means[0.1] - means[1.0])
    max_spread = max(
        max(abs(acc - means[b]) for acc in results[b].values()) for b in results
    )
    ok = gap <= 0.10 and max_spread <= 0.05 and max(timings.values()) < 300.0
    report(
        8,
        ok,
        f"mean acc beta=1.0 {means[1.0]:.3f} vs beta=0.1 {means[0.1]:.3f} "
        f"(gap {gap:.3f}), worst peer spread {max_spread:.3f}, "
        f"slowest run {max(timings.values()):.1f}s",
    )


def test_criterion_09_byzantine_ab(tmp_path):
    honest = [p for p in range(8) if p != 5]

    def honest_mean(rep):
        return float(np.mean([rep.final_accuracy[p] for p in honest]))

    cfg_clean = run_config(tmp_path, "clean", seed=3)
    _, rep_clean, _ = run_full(cfg_clean)
    cfg_trim = dataclasses.replace(
        cfg_clean, byzantine_peers=(5,), out_dir=str(tmp_path / "adv-trim")
    )
    _, rep_trim, _ = run_full(cfg_trim)
    cfg_mean = dataclasses.replace(
        cfg_clean,
        byzantine_peers=(5,),
        trim=TrimConfig(trim_ratio=0.0),
        out_dir=str(tmp_path / "adv-mean"),
    )
    _, rep_mean, _ = run_full(cfg_mean)

    clean, with_trim, with_mean = (
        honest_mean(rep_clean),
        honest_mean(rep_trim),
        honest_mean(rep_mean),
    )
    ok = abs(with_trim - clean) <= 0.05 and (clean - with_mean) > 0.10
    report(
        9,
        ok,
        f"honest mean: clean {clean:.3f}, trimmed {with_trim:.3f} "
        f"(|diff| {abs(with_trim - clean):.3f}), untrimmed {with_mean:.3f} "
        f"(degraded {clean - with_mean:.3f})",
    )


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for run in range(2):
        cfg = run_config(
            tmp_path, f"det-{run}", num_peers=4, duration_ticks=80, deterministic=True
        )
        _, rep, _ = run_full(cfg)
        out = cfg.resolve_out_dir()
        outputs.append(
            (
                (out / "ledger.txt").read_bytes(),
                (out / "global_model.bin").read_bytes(),
                rep.final_global_cid,
            )
        )
    same_ledger = outputs[0][0] == outputs[1][0]
    same_model = outputs[0][1] == outputs[1][1]
    same_cid = outputs[0][2] == outputs[1][2]
    ok = same_ledger and same_model and same_cid
    report(
        10,
        ok,
        f"ledger identical {same_ledger}, model identical {same_model}, cid identical {same_cid}",
    )


def test_criterion_11_replay_rejection():
    ledger = Ledger()
    ledger.deploy_contracts()
    ledger.register(0, "replayer")
    rejected = 0
    for i in range(100):
        cid = Cid(hashlib.sha256(f"update-{i}".encode()).digest())
        ledger.save_hash(0, cid, f"r{i}")
        state_before = (ledger.cumulative_gas(), ledger.pending_count())
        try:
            ledger.save_hash(0, cid, f"r{i}")
        except LedgerError:
            if (ledger.cumulative_gas(), ledger.pending_count()) == state_before:
                rejected += 1
    ok = rejected == 100
    report(11, ok, f"{rejected}/100 duplicate submissions rejected without side effects")
