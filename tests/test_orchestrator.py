"""Two-phase driver, artifact formats, and the command line."""

import hashlib
import json

import numpy as np
import pytest

from gossipseg.cli import main
from gossipseg.config import DataConfig, RunConfig, load_config
from gossipseg.orchestrator import (
    METRICS_HEADER,
    METRICS_VERSION_LINE,
    build_dataset,
    derive_seed,
    gas_report_from_dump,
    report_gas,
    run_full,
    run_phase1,
)
from gossipseg.model import canonical_bytes
from gossipseg.privacy import DpConfig


def tiny_config(tmp_path, **overrides):
    base = dict(
        num_peers=4,
        num_clusters=2,
        beta=0.5,
        seed=11,
        duration_ticks=40,
        leader_period=10,
        seal_period=10,
        paillier_bits=512,
        data=DataConfig(num_classes=4, samples_per_class=60, test_per_class=15, input_dim=4),
        dp=DpConfig(clip_norm=5.0, sigma_max=0.01, sigma_min=0.001, total_rounds=50),
        out_dir=str(tmp_path / "run"),
    )
    base.update(overrides)
    return RunConfig(**base)


def test_derive_seed_matches_sha256_oracle():
    want = int.from_bytes(
        hashlib.sha256(b"42:partition").digest()[:8], "little"
    )
    assert derive_seed(42, "partition") == want
    assert derive_seed(42, "partition") != derive_seed(42, "clustering")
    assert derive_seed(42, "x") != derive_seed(43, "x")


def test_build_dataset_split_counts(tmp_path):
    cfg = tiny_config(tmp_path)
    train, test = build_dataset(cfg)
    assert len(train) == 4 * 60
    assert len(test) == 4 * 15
    assert np.bincount(train.labels, minlength=4).tolist() == [60] * 4
    assert np.bincount(test.labels, minlength=4).tolist() == [15] * 4
    # held-out rows are disjoint from training rows
    train_set = {tuple(row) for row in train.features}
    assert not any(tuple(row) in train_set for row in test.features)


def test_phase1_ledger_sequence_and_state(tmp_path):
    cfg = tiny_config(tmp_path)
    phase1 = run_phase1(cfg)
    ledger = phase1.ledger
    assert ledger.verify_chain()
    assert len(ledger.blocks) == 1
    ops = [tx.op for tx in ledger.blocks[0].transactions]
    assert ops[:2] == ["deploy_contract_1", "deploy_contract_2"]
    assert ops.count("register") == 4
    assert ops.count("save_cluster_centers") == 1
    assert ops.count("assign_segment") == 4
    assert ops.count("get_segment") == 4
    assert ledger.registered_peers() == [0, 1, 2, 3]
    # every peer landed in a valid cluster with a stored segment
    for pid in range(4):
        cluster = phase1.assignment.assignment[pid]
        assert phase1.segment_specs[cluster] == ledger._segments[pid]
    # segments tile the output rows exactly
    rows = []
    for spec in phase1.segment_specs.values():
        rows.extend(range(spec.start, spec.end + 1))
    assert sorted(rows) == list(range(cfg.data.num_classes))


def test_phase1_gas_total_matches_dump_aggregation(tmp_path):
    cfg = tiny_config(tmp_path)
    phase1 = run_phase1(cfg)
    dump_path = tmp_path / "ledger.txt"
    phase1.ledger.dump(dump_path)
    # loop oracle over the dump text
    total = 0
    for line in dump_path.read_text().splitlines()[1:]:
        total += int(line.split("\t")[3])
    assert total == phase1.ledger.total_gas()
    assert gas_report_from_dump(dump_path) == report_gas(phase1.ledger)


def test_full_run_report_and_artifacts(tmp_path):
    cfg = tiny_config(tmp_path)
    phase1, report, ctx = run_full(cfg)

    assert [p.name for p in cfg.resolve_cas_dir().iterdir()] == ["blocks.pack"]
    assert report.segment_violations == 0
    assert report.integrity_alarms == 0
    assert report.global_rounds >= 1
    assert ctx.ledger.verify_chain()
    for pid in range(4):
        assert report.growth_delta[pid] == pytest.approx(
            report.final_accuracy[pid] - report.initial_accuracy[pid]
        )
        assert report.tokens[pid] == ctx.ledger.balance(pid)
        assert 0.0 <= report.final_accuracy[pid] <= 1.0

    out = cfg.resolve_out_dir()
    for name in ("metrics.csv", "ledger.txt", "global_model.bin",
                 "gas_report.txt", "config.json", "run_report.json"):
        assert (out / name).exists(), name

    model_bytes = (out / "global_model.bin").read_bytes()
    assert model_bytes == canonical_bytes(ctx.global_params)
    assert report.final_global_cid == ctx.global_cid.hex

    saved = json.loads((out / "run_report.json").read_text())
    counters = {
        "segment_carryovers": ctx.segment_carryovers,
        "aborted_iterations": ctx.aborted_iterations,
        "quarantined_updates": len(ctx.quarantined),
        "consumed_updates": len(ctx.consumed_log),
        "trim_fallbacks": ctx.trim_fallbacks,
    }
    for key, value in counters.items():
        assert getattr(report, key) == value, key
        assert saved[key] == value, key
    for key, digest in saved["artifact_digests"].items():
        path = out / {"metrics": "metrics.csv", "ledger": "ledger.txt",
                      "model": "global_model.bin"}[key]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    assert load_config(out / "config.json") == cfg


def test_every_global_round_has_one_hash_record(tmp_path):
    # with a leader every tick, rounds without updates reproduce an earlier
    # global model, so the same (leader, cid) pair recurs under a new tag
    cfg = RunConfig(
        num_peers=4,
        num_clusters=2,
        paillier_bits=512,
        leader_period=1,
        duration_ticks=60,
        out_dir=str(tmp_path / "run"),
    )
    _, report, ctx = run_full(cfg)
    assert report.global_rounds == 60
    for round_index in range(report.global_rounds + 1):
        assert len(ctx.ledger.hash_records(round_tag=f"g{round_index}")) == 1
    records = ctx.ledger.hash_records()
    assert sum(r["tag"].startswith("g") for r in records) == report.global_rounds + 1
    assert len({(r["peer"], r["cid"]) for r in records if r["tag"].startswith("g")}) < 61


def test_metrics_file_format(tmp_path):
    cfg = tiny_config(tmp_path)
    _, report, _ = run_full(cfg)
    lines = (cfg.resolve_out_dir() / "metrics.csv").read_text().splitlines()
    assert lines[0] == METRICS_VERSION_LINE
    assert lines[1] == METRICS_HEADER
    rows = [line.split(",") for line in lines[2:]]
    assert all(len(r) == 8 for r in rows)
    # first and last sweeps cover every peer
    assert [r[1] for r in rows[:4]] == ["0", "1", "2", "3"]
    assert [r[1] for r in rows[-4:]] == ["0", "1", "2", "3"]
    assert all(r[0] == "0" for r in rows[:4])
    assert all(r[0] == str(cfg.duration_ticks) for r in rows[-4:])
    for r in rows:
        assert int(r[0]) >= 0
        loss, acc = float(r[4]), float(r[5])
        assert 0.0 <= acc <= 1.0
        assert loss >= 0.0
        assert int(r[6]) >= 0
        assert int(r[7]) >= 0
    # gas never decreases over the run
    gas = [int(r[7]) for r in rows]
    assert gas == sorted(gas)


def test_accuracy_improves_on_easy_blobs(tmp_path):
    cfg = tiny_config(tmp_path, duration_ticks=80)
    _, report, _ = run_full(cfg)
    mean_initial = np.mean(list(report.initial_accuracy.values()))
    mean_final = np.mean(list(report.final_accuracy.values()))
    assert mean_final > mean_initial + 0.3


def test_cli_run_and_artifacts(tmp_path, capsys):
    out = tmp_path / "cli-run"
    code = main([
        "run", "--peers", "4", "--clusters", "2", "--ticks", "30",
        "--seed", "5", "--paillier-bits", "512", "--out-dir", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "total gas:" in stdout
    assert (out / "run_report.json").exists()
    assert (out / "metrics.csv").exists()


def test_cli_phase1(tmp_path, capsys):
    out = tmp_path / "cli-p1"
    code = main([
        "phase1", "--peers", "4", "--clusters", "2",
        "--paillier-bits", "512", "--out-dir", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "cluster assignment" in stdout
    assert (out / "ledger.txt").exists()
    assert (out / "gas_report.txt").exists()


def test_cli_phase1_creates_ledger_parent_directory(tmp_path, capsys):
    ledger = tmp_path / "nested" / "deeper" / "ledger.txt"
    code = main([
        "phase1", "--peers", "4", "--clusters", "2", "--paillier-bits", "512",
        "--out-dir", str(tmp_path / "cli-p1"), "--ledger-out", str(ledger),
    ])
    assert code == 0
    assert "cluster assignment" in capsys.readouterr().out
    assert ledger.is_file() and ledger.read_text().strip()


def test_cli_replay_detects_match_and_mismatch(tmp_path, capsys):
    out = tmp_path / "original"
    assert main([
        "run", "--peers", "4", "--clusters", "2", "--ticks", "30",
        "--seed", "6", "--paillier-bits", "512", "--out-dir", str(out),
    ]) == 0
    capsys.readouterr()

    config_path = out / "config.json"
    assert main([
        "replay", "--config", str(config_path),
        "--out-dir", str(tmp_path / "replayed"),
    ]) == 0
    assert "identical" in capsys.readouterr().out

    # forge the recorded digest: the replay must flag it
    report_path = out / "run_report.json"
    saved = json.loads(report_path.read_text())
    saved["artifact_digests"]["model"] = "0" * 64
    report_path.write_text(json.dumps(saved))
    assert main([
        "replay", "--config", str(config_path),
        "--out-dir", str(tmp_path / "replayed-2"),
    ]) == 1
    assert "DIFFERS" in capsys.readouterr().out


def test_cli_gas_report(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    phase1 = run_phase1(cfg)
    dump = tmp_path / "ledger.txt"
    phase1.ledger.dump(dump)
    assert main(["gas-report", "--ledger", str(dump)]) == 0
    stdout = capsys.readouterr().out
    assert "TOTAL" in stdout
    assert str(phase1.ledger.total_gas()) in stdout


def test_cli_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "not-a-dump.txt"
    bad.write_text("hello\n")
    assert main(["gas-report", "--ledger", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
