"""Two-phase driver, artifact formats, and the command line."""

import dataclasses
import hashlib
import importlib
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import write_idx
from gossipseg import trainer
from gossipseg.aggregation import TrimConfig
from gossipseg.cli import _RUN_FLAGS, _build_config, build_parser, main
from gossipseg.config import DataConfig, RunConfig, config_to_dict, load_config, save_config
from gossipseg.errors import ConfigurationError, LedgerError
from gossipseg.ledger import OPERATIONS, gas_report
from gossipseg.orchestrator import (
    METRICS_HEADER,
    METRICS_VERSION_LINE,
    build_dataset,
    derive_seed,
    run_full,
    run_phase1,
    run_phase2,
)
from gossipseg.model import canonical_bytes
from gossipseg.peer import Peer
from gossipseg.privacy import DpConfig
from gossipseg.scheduler import Scheduler


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
    assert list(ledger._balances) == [0, 1, 2, 3]
    # every peer landed in its cluster's segment, as the ledger stores it
    for pid in range(4):
        assert phase1.segments[pid] == ledger._segments[pid]
        assert phase1.segments[pid].cluster_id == phase1.assignment.assignment[pid]
    # segments tile the output rows exactly
    rows = []
    for spec in set(phase1.segments.values()):
        rows.extend(range(spec.start, spec.end + 1))
    assert sorted(rows) == list(range(cfg.data.num_classes))


def test_phase1_gas_total_matches_dump_aggregation(tmp_path):
    cfg = tiny_config(tmp_path)
    phase1 = run_phase1(cfg)
    dump_path = tmp_path / "ledger.txt"
    assert phase1.ledger.dump(dump_path) == dump_path.read_text()
    # loop oracle over the dump text
    total = 0
    for line in dump_path.read_text().splitlines()[1:]:
        total += int(line.split("\t")[3])
    assert total == phase1.ledger.total_gas()
    assert gas_report(phase1.ledger.dump_text()).splitlines()[-1].split() == ["TOTAL", str(total)]


def idx_split_config(tmp_path, train_width, test_width):
    """Four-class IDX train and test files of the given feature widths."""
    paths = {}
    for split, width, count in (("train", train_width, 48), ("test", test_width, 12)):
        images = np.arange(count * width, dtype=np.uint8).reshape(count, width)
        labels = np.arange(count, dtype=np.uint8) % 4
        for kind, values in (("images", images), ("labels", labels)):
            path = tmp_path / f"{split}-{kind}.idx"
            write_idx(path, 0x08, values.shape, values.tobytes())
            paths[f"{split}_{kind}"] = str(path)
    data = DataConfig(
        num_classes=4,
        idx_images=paths["train_images"],
        idx_labels=paths["train_labels"],
        idx_test_images=paths["test_images"],
        idx_test_labels=paths["test_labels"],
    )
    return tiny_config(tmp_path, data=data)


def test_build_dataset_rejects_idx_test_set_of_another_width(tmp_path):
    train, test = build_dataset(idx_split_config(tmp_path, 6, 6))
    assert train.features.shape == (48, 6) and test.features.shape == (12, 6)
    with pytest.raises(ConfigurationError, match="features per sample"):
        build_dataset(idx_split_config(tmp_path, 6, 5))


def test_cli_rejects_idx_test_set_of_another_width_before_setup(tmp_path, capsys):
    cfg = idx_split_config(tmp_path, 6, 5)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(cfg)))
    assert main(["run", "--config", str(config_path)]) == 2
    assert "features per sample" in capsys.readouterr().err
    # rejected before the block store or any artifact exists
    assert not Path(cfg.out_dir).exists()


def test_phase2_peers_train_on_the_segments_the_ledger_returned(tmp_path):
    phase1, _, ctx = run_full(tiny_config(tmp_path, duration_ticks=10))
    for pid, peer in ctx.peers.items():
        assert peer.segment == phase1.segments[pid] == phase1.ledger._segments[pid]
    assert list(ctx.segment_specs) == sorted({s.cluster_id for s in phase1.segments.values()})


def test_full_run_report_and_artifacts(tmp_path):
    cfg = tiny_config(tmp_path)
    phase1, report, ctx = run_full(cfg)

    assert [p.name for p in cfg.artifact_paths()["cas"].iterdir()] == ["blocks.pack"]
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

    out = Path(cfg.out_dir)
    for name in ("metrics.csv", "ledger.txt", "global_model.bin",
                 "gas_report.txt", "config.json", "run_report.json"):
        assert (out / name).exists(), name

    model_bytes = (out / "global_model.bin").read_bytes()
    assert model_bytes == canonical_bytes(ctx.global_params)
    assert model_bytes == ctx.store.get(ctx.global_cid)
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
    # the audit record: the save_hash transactions of the sealed blocks
    global_records = [
        tx
        for block in ctx.ledger.blocks
        for tx in block.transactions
        if tx.op == "save_hash" and tx.payload["tag"].startswith("g")
    ]
    per_tag = Counter(tx.payload["tag"] for tx in global_records)
    assert per_tag == {f"g{r}": 1 for r in range(report.global_rounds + 1)}
    assert len({(tx.caller, tx.payload["cid"]) for tx in global_records}) < 61


def test_every_transaction_is_priced_by_the_operation_table(tmp_path):
    _, _, ctx = run_full(tiny_config(tmp_path, byzantine_peers=(1,)))
    ops = Counter()
    for block in ctx.ledger.blocks:
        for tx in block.transactions:
            assert (tx.contract, tx.gas) == OPERATIONS[tx.op], tx.op
            ops[tx.op] += 1
    # a byzantine peer's updates draw penalties, so every gossip op is seen
    assert set(ops) == set(OPERATIONS)


def test_each_peer_syncs_once_per_global_round(tmp_path, monkeypatch):
    syncs = Counter()
    real_sync = Peer.sync_global

    def counted_sync(peer, ctx):
        syncs[peer.peer_id] += 1
        return real_sync(peer, ctx)

    monkeypatch.setattr(Peer, "sync_global", counted_sync)
    _, report, ctx = run_full(tiny_config(tmp_path))
    assert report.integrity_alarms == 0
    # genesis is round 0, so a run of R rounds has R + 1 global models
    assert syncs == {pid: report.global_rounds + 1 for pid in ctx.peers}
    assert all(peer.synced_round == report.global_rounds for peer in ctx.peers.values())


def test_rejected_wake_rolls_back_only_that_peer(tmp_path, monkeypatch):
    # every peer wakes on ticks 4 and 8 and no leader runs; at tick 8 peer 1
    # publishes, then its validation of a pulled update is refused
    cfg = tiny_config(tmp_path, num_peers=3, num_clusters=1, fanout=2, interval_min=4,
                      interval_max=4, duration_ticks=10, leader_period=100)
    phase1 = run_phase1(cfg)
    refusing = {"on": False}
    real_validate = phase1.ledger.validate_update

    def validate(cid, digest, caller):
        if refusing["on"]:
            raise LedgerError("synthetic rejection")
        return real_validate(cid, digest, caller=caller)

    monkeypatch.setattr(phase1.ledger, "validate_update", validate)
    calls = []
    real_iteration = Peer.peer_iteration

    def iteration(peer, ctx, trained, own_loss):
        # local steps have already run for the whole tick, and change no peer state
        before = (canonical_bytes(peer.params), peer.iteration)
        refusing["on"] = peer.peer_id == 1 and peer.iteration == 1
        ok = real_iteration(peer, ctx, trained, own_loss)
        refusing["on"] = False
        after = (canonical_bytes(peer.params), peer.iteration)
        calls.append((peer.peer_id, ok, before, after))
        return ok

    monkeypatch.setattr(Peer, "peer_iteration", iteration)
    _, ctx = run_phase2(cfg, phase1)

    assert [(pid, ok) for pid, ok, _, _ in calls] == [
        (0, True), (1, True), (2, True), (0, True), (1, False), (2, True)
    ]
    _, _, before, after = calls[4]
    assert after == before
    assert ctx.aborted_iterations == 1
    assert [ctx.peers[pid].iteration for pid in range(3)] == [2, 1, 2]
    rows = [r.split(",") for r in cfg.artifact_paths()["metrics"].read_text().splitlines()[2:]]
    by_tick = {t: [r for r in rows if r[0] == t] for t in ("4", "8")}
    assert [(r[1], r[3]) for r in by_tick["8"]] == [("0", "2"), ("1", "1"), ("2", "2")]
    # peer 1's model is the one it scored at tick 4, loss and accuracy alike
    assert by_tick["8"][1][4:6] == by_tick["4"][1][4:6]


def test_record_scores_each_distinct_model_once(tmp_path, monkeypatch):
    # the run ends on a leader tick, so only the peers woken on that tick,
    # after the leader, hold a model other than the one global model
    cfg = tiny_config(tmp_path, num_peers=8, duration_ticks=40, leader_period=10)
    assert cfg.duration_ticks % cfg.leader_period == 0
    phase1 = run_phase1(cfg)
    # models per test-set evaluate call; None once the scheduler has run
    scored = []
    real_evaluate = trainer.evaluate
    real_run = Scheduler.run_until

    def evaluate(params, x, y, rows=None):
        if x is phase1.test_data.features:
            scored.append(len(params.buf))
        return real_evaluate(params, x, y, rows)

    def run_until(sched, end_tick):
        real_run(sched, end_tick)
        scored.append(None)

    monkeypatch.setattr(trainer, "evaluate", evaluate)
    monkeypatch.setattr(Scheduler, "run_until", run_until)
    run_phase2(cfg, phase1)
    rows = [r.split(",") for r in cfg.artifact_paths()["metrics"].read_text().splitlines()[2:]]
    # the final record's rows are the last num_peers rows
    woken_last = sum(r[0] == str(cfg.duration_ticks) for r in rows) - cfg.num_peers
    end = scored.index(None)
    # every peer starts from the one genesis model
    assert scored[0] == 1
    assert sum(scored[end + 1:]) <= woken_last + 1 < cfg.num_peers


@pytest.mark.filterwarnings(
    # the diverged models' logits overflow; numpy's default is to warn
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
def test_diverged_peers_abort_their_iterations_and_the_run_completes(tmp_path):
    # at trim 0 the plain mean carries the hostile 1e200 delta into the
    # honest peers' models, whose training then leaves the finite range
    cfg = RunConfig(
        num_peers=6,
        num_clusters=1,
        duration_ticks=120,
        paillier_bits=256,
        byzantine_peers=(1,),
        byzantine_scale=1e200,
        trim=TrimConfig(trim_ratio=0.0),
        out_dir=str(tmp_path / "run"),
    )
    with np.errstate(all="warn", under="ignore"):
        _, report, ctx = run_full(cfg)
    assert report.aborted_iterations > 0
    assert report.segment_violations == 0
    assert ctx.ledger.verify_chain()
    rows = [r.split(",") for r in cfg.artifact_paths()["metrics"].read_text().splitlines()[2:]]
    assert "nan" in {r[4] for r in rows}
    # an aborted iteration publishes nothing
    published = Counter(
        tx.caller
        for block in ctx.ledger.blocks
        for tx in block.transactions
        if tx.op == "save_hash" and tx.payload["tag"].startswith("r")
    )
    assert all(published[str(pid)] == peer.iteration for pid, peer in ctx.peers.items())


def test_metrics_file_format(tmp_path):
    cfg = tiny_config(tmp_path)
    _, report, _ = run_full(cfg)
    lines = cfg.artifact_paths()["metrics"].read_text().splitlines()
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


def test_peers_share_the_training_set_and_the_global_model(tmp_path):
    cfg = tiny_config(tmp_path)
    phase1 = run_phase1(cfg)
    _, ctx = run_phase2(cfg, phase1)
    train = phase1.train_data
    assert not ctx.global_params.buf.flags.writeable
    for pid, peer in ctx.peers.items():
        assert peer.train is train
        assert np.array_equal(peer.shard, phase1.shards[pid])
        arrays = {name for name, value in vars(peer).items() if isinstance(value, np.ndarray)}
        # beyond its shard indices, a peer copies only its eval rows
        assert arrays == {"shard", "eval_features", "eval_labels"}
        assert len(peer.eval_labels) <= 64
        for name in arrays:
            for shared in (train.features, train.labels):
                assert not np.shares_memory(getattr(peer, name), shared)


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


def test_cli_replay_names_the_first_differing_line(tmp_path, capsys):
    out = tmp_path / "original"
    assert main([
        "run", "--peers", "4", "--clusters", "2", "--ticks", "30",
        "--seed", "6", "--paillier-bits", "512", "--out-dir", str(out),
    ]) == 0
    capsys.readouterr()
    config_path = out / "config.json"
    assert main(["replay", "--config", str(config_path),
                 "--out-dir", str(tmp_path / "replayed")]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count(": identical") == 3 and "first difference" not in stdout

    metrics = out / "metrics.csv"
    lines = metrics.read_text().splitlines()
    original = lines[4]
    lines[4] = original.replace(",", ";", 1)
    metrics.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--config", str(config_path),
                 "--out-dir", str(tmp_path / "replayed-2")]) == 1
    stdout = capsys.readouterr().out
    assert "ledger: identical" in stdout and "model: identical" in stdout
    assert (
        "metrics: DIFFERS\n"
        "  first difference at line 5:\n"
        f"    saved:    {lines[4]}\n"
        f"    replayed: {original}\n"
    ) in stdout


def test_cli_gas_report(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    phase1 = run_phase1(cfg)
    dump = tmp_path / "ledger.txt"
    phase1.ledger.dump(dump)
    assert main(["gas-report", "--ledger", str(dump)]) == 0
    stdout = capsys.readouterr().out
    assert "TOTAL" in stdout
    assert str(phase1.ledger.total_gas()) in stdout


def test_cli_phase1_gas_report_matches_gas_report_command(tmp_path, capsys):
    out = tmp_path / "cli-p1"
    assert main([
        "phase1", "--peers", "4", "--clusters", "2",
        "--paillier-bits", "512", "--out-dir", str(out),
    ]) == 0
    capsys.readouterr()
    assert main(["gas-report", "--ledger", str(out / "ledger.txt")]) == 0
    assert capsys.readouterr().out.encode() == (out / "gas_report.txt").read_bytes()


def test_cli_rejects_bad_input(tmp_path, capsys):
    dump = "height\top\tcaller\tgas\tpayload_digest\n"
    inputs = {
        "not-a-dump.txt": "hello\n",
        "gas-not-an-integer.txt": dump + "0\tregister\t1\t1e5\t" + "0" * 64 + "\n",
        "short-line.txt": dump + "0\tregister\t1\n",
        "missing.txt": None,
    }
    for name, text in inputs.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert main(["gas-report", "--ledger", str(path)]) == 2, name
        assert "error:" in capsys.readouterr().err

    # an output file path that names a directory is rejected before any setup
    directory = tmp_path / "a-directory"
    directory.mkdir()
    out = tmp_path / "rejected-run"
    for command, flag in (("run", "--ledger-out"), ("run", "--metrics-out"),
                          ("phase1", "--ledger-out")):
        assert main([
            command, "--peers", "4", "--clusters", "2", "--paillier-bits", "512",
            "--out-dir", str(out), flag, str(directory),
        ]) == 2, (command, flag)
        assert "is a directory" in capsys.readouterr().err
        assert not (out / "cas").exists() and not (out / "metrics.csv").exists()
        assert list(directory.iterdir()) == []

    # so is a directory at any artifact path the run composes itself
    for command, name in (("run", "global_model.bin"), ("run", "run_report.json"),
                          ("run", "config.json"), ("run", "gas_report.txt"),
                          ("phase1", "gas_report.txt")):
        blocked = tmp_path / f"blocked-{command}-{name}"
        (blocked / name).mkdir(parents=True)
        assert main([
            command, "--peers", "4", "--clusters", "2", "--paillier-bits", "512",
            "--ticks", "30", "--out-dir", str(blocked),
        ]) == 2, (command, name)
        assert "is a directory" in capsys.readouterr().err
        assert [p.name for p in blocked.iterdir()] == [name]
        assert list((blocked / name).iterdir()) == []

    # an output directory, or an output file's parent, that is or lies under
    # an existing non-directory is rejected before any setup
    regular = tmp_path / "a-file"
    regular.write_text("keep")
    dangling = tmp_path / "a-dangling-link"
    dangling.symlink_to(tmp_path / "nowhere")
    before = sorted(tmp_path.iterdir())
    for command, flag, value in (
        ("run", "--out-dir", regular),
        ("phase1", "--out-dir", regular),
        ("run", "--cas-dir", regular),
        ("run", "--cas-dir", regular / "cas"),
        ("run", "--metrics-out", regular / "m.csv"),
        ("run", "--ledger-out", regular / "sub" / "ledger.txt"),
        ("run", "--out-dir", dangling),
    ):
        assert main([
            command, "--peers", "4", "--clusters", "2", "--paillier-bits", "512",
            "--out-dir", str(out), flag, str(value),
        ]) == 2, (command, flag, value)
        assert "is not a directory" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
        assert regular.read_text() == "keep"

    # two artifacts at one path, or a CAS directory that is, lies under or
    # contains an artifact file, are rejected before any setup
    collide = tmp_path / "collide"
    for command, flags in (
        ("run", ["--metrics-out", collide / "same.txt", "--ledger-out", collide / "same.txt"]),
        ("run", ["--metrics-out", collide / "global_model.bin"]),
        ("run", ["--ledger-out", collide / "sub" / ".." / "config.json"]),
        ("run", ["--metrics-out", collide / "ledger.txt" / "m.csv"]),
        ("run", ["--cas-dir", collide / "ledger.txt" / "x"]),
        ("run", ["--cas-dir", collide / "gas_report.txt"]),
        ("run", ["--metrics-out", collide / "cas" / "m.csv"]),
        ("run", ["--cas-dir", collide.parent]),
        ("phase1", ["--ledger-out", collide / "gas_report.txt"]),
    ):
        assert main([
            command, "--peers", "4", "--clusters", "2", "--paillier-bits", "256",
            "--ticks", "30", "--out-dir", str(collide), *map(str, flags),
        ]) == 2, (command, flags)
        assert "collides with" in capsys.readouterr().err
        assert not collide.exists()
        assert sorted(tmp_path.iterdir()) == before

    # settings that are not finite, or are negative, are rejected before any
    # key is generated or any file written, whether a flag or the file sets them
    settings = tmp_path / "settings.json"
    unset = tmp_path / "unset"
    for flags, text in (
        (["--beta", "nan"], "{}"),
        (["--beta", "inf"], "{}"),
        (["--dp-sigma-max", "nan"], "{}"),
        (["--dp-sigma-min", "nan"], "{}"),
        ([], '{"penalty_loss_delta": NaN}'),
        ([], '{"data": {"spread": -1.0}}'),
        ([], '{"data": {"center_scale": Infinity}}'),
        ([], '{"train": {"learning_rate": NaN}}'),
    ):
        settings.write_text(text)
        assert main([
            "run", "--config", str(settings), "--peers", "4", "--clusters", "2",
            "--ticks", "30", "--paillier-bits", "256", "--out-dir", str(unset), *flags,
        ]) == 2, (flags, text)
        assert "error:" in capsys.readouterr().err
        assert not (unset / "cas").exists() and not (unset / "metrics.csv").exists()
        assert not unset.exists()

    # so are more peers than training samples (4 classes × 400 = 1600)
    crowded = tmp_path / "crowded"
    assert main([
        "run", "--peers", "1700", "--clusters", "2", "--ticks", "5", "--out-dir", str(crowded),
    ]) == 2
    assert "more clients than samples" in capsys.readouterr().err
    assert not crowded.exists()

    # so are IDX files whose header is cut inside its dims, or that are missing
    (tmp_path / "idx").mkdir()
    cfg = idx_split_config(tmp_path / "idx", 6, 6)
    images = Path(cfg.data.idx_images)
    for damage in ("truncate", "remove"):
        if damage == "truncate":
            images.write_bytes(images.read_bytes()[:6])
        else:
            images.unlink()
        settings.write_text(json.dumps(config_to_dict(cfg)))
        assert main(["run", "--config", str(settings)]) == 2, damage
        assert "error:" in capsys.readouterr().err
        assert not Path(cfg.out_dir).exists()


def test_console_script_entry_point_is_callable():
    # tomllib is missing on Python 3.10, so the table is read with a regex
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    scripts = dict(re.findall(r'^(\S+)\s*=\s*"([^"]+)"', table.group(1), re.M))
    assert scripts == {"gossipseg": "gossipseg.cli:main"}
    module, _, attr = scripts["gossipseg"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_cli_rejects_malformed_config_file(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps({"data": {"bogus": 1}}))
    missing = str(tmp_path / "missing.json")
    for argv in (
        ["run", "--config", str(bad)],
        ["run", "--config", missing],
        ["phase1", "--config", missing],
        ["replay", "--config", missing],
    ):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


FLAG_CASES = [
    (["--peers", "3"], "num_peers", 3),
    (["--clusters", "1"], "num_clusters", 1),
    (["--beta", "0.25"], "beta", 0.25),
    (["--seed", "7"], "seed", 7),
    (["--ticks", "12"], "duration_ticks", 12),
    (["--dp-clip", "2.5"], "dp.clip_norm", 2.5),
    (["--dp-sigma-max", "0.5"], "dp.sigma_max", 0.5),
    (["--dp-sigma-min", "0.001"], "dp.sigma_min", 0.001),
    (["--trim-ratio", "0.0"], "trim.trim_ratio", 0.0),
    (["--fanout", "3"], "fanout", 3),
    (["--leader-period", "7"], "leader_period", 7),
    (["--cluster-dp"], "cluster_dp", True),
    (["--paillier-bits", "512"], "paillier_bits", 512),
    (["--out-dir", "a/out"], "out_dir", "a/out"),
    (["--cas-dir", "a/cas"], "cas_dir", "a/cas"),
    (["--metrics-out", "a/m.csv"], "metrics_out", "a/m.csv"),
    (["--ledger-out", "a/l.txt"], "ledger_out", "a/l.txt"),
]


@pytest.mark.parametrize("argv, field, expected", FLAG_CASES)
def test_cli_flag_sets_its_field(argv, field, expected):
    cfg = _build_config(build_parser().parse_args(["run", *argv]))
    sub, _, name = field.rpartition(".")
    want = RunConfig()
    if sub:
        want = dataclasses.replace(
            want, **{sub: dataclasses.replace(getattr(want, sub), **{name: expected})}
        )
    else:
        want = dataclasses.replace(want, **{name: expected})
    assert cfg == want


def test_every_run_flag_has_a_case():
    assert {argv[0] for argv, _, _ in FLAG_CASES} == set(_RUN_FLAGS)


@pytest.mark.parametrize("argv, fields", [
    (["--peers", "1", "--clusters", "1"], {"num_peers": 1, "num_clusters": 1}),
    (["--dp-sigma-max", "0.001", "--dp-sigma-min", "0.0001"],
     {"dp": DpConfig(sigma_max=0.001, sigma_min=0.0001)}),
])
def test_cli_flags_apply_together(tmp_path, argv, fields):
    cfg = _build_config(build_parser().parse_args(["run", *argv]))
    assert cfg == dataclasses.replace(RunConfig(), **fields)
    # flags also win over a config file
    path = tmp_path / "config.json"
    save_config(RunConfig(seed=3), path)
    from_file = _build_config(build_parser().parse_args(["run", "--config", str(path), *argv]))
    assert from_file == dataclasses.replace(RunConfig(seed=3), **fields)
