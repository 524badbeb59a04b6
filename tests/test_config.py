"""Config validation and JSON round trips."""

import dataclasses

import pytest

from gossipseg.aggregation import TrimConfig
from gossipseg.config import (
    DataConfig,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from gossipseg.errors import ConfigurationError
from gossipseg.privacy import DpConfig


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.num_peers == 8


def test_roundtrip_through_dict():
    cfg = RunConfig(
        num_peers=6,
        num_clusters=3,
        beta=0.1,
        byzantine_peers=(1, 4),
        dp=DpConfig(sigma_max=0.1, sigma_min=0.01, total_rounds=50),
        trim=TrimConfig(trim_ratio=0.25),
        data=DataConfig(num_classes=6, samples_per_class=10),
    )
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg


def test_roundtrip_through_file(tmp_path):
    cfg = RunConfig(num_peers=4, seed=9)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_unknown_keys_rejected():
    raw = config_to_dict(RunConfig())
    raw["not_a_field"] = 1
    with pytest.raises(ConfigurationError):
        config_from_dict(raw)


def test_validation_failures():
    with pytest.raises(ConfigurationError):
        RunConfig(num_peers=0)
    with pytest.raises(ConfigurationError):
        RunConfig(num_clusters=9)  # more clusters than peers
    with pytest.raises(ConfigurationError):
        RunConfig(num_clusters=5)  # more clusters than classes
    with pytest.raises(ConfigurationError):
        RunConfig(beta=0.0)
    with pytest.raises(ConfigurationError):
        RunConfig(interval_min=5, interval_max=3)
    with pytest.raises(ConfigurationError):
        RunConfig(byzantine_peers=(8,))
    # a wake interval is drawn as a signed 64-bit integer
    with pytest.raises(ConfigurationError):
        RunConfig(interval_max=2**63)
    RunConfig(interval_max=2**63 - 1)


IDX_PATHS = dict(
    idx_images="train-images", idx_labels="train-labels",
    idx_test_images="test-images", idx_test_labels="test-labels",
)


@pytest.mark.parametrize("given", [
    ("idx_images",),
    ("idx_images", "idx_labels"),  # no test split
    ("idx_labels", "idx_test_images", "idx_test_labels"),
])
def test_idx_paths_come_all_together(given):
    with pytest.raises(ConfigurationError):
        DataConfig(**{name: IDX_PATHS[name] for name in given})


def test_idx_data_with_all_four_paths_is_valid():
    cfg = RunConfig(data=DataConfig(**IDX_PATHS))
    assert config_from_dict(config_to_dict(cfg)) == cfg


@pytest.mark.parametrize("scale", [float("inf"), float("-inf"), float("nan"), 0.0, -5.0])
def test_byzantine_scale_must_be_positive_and_finite(scale):
    with pytest.raises(ConfigurationError):
        RunConfig(byzantine_scale=scale)


@pytest.mark.parametrize("raw", [
    {"data": {"bogus": 1}},
    {"data": {"kind": "blobs"}},  # a setting that no longer exists
    {"dp": 5},
    {"trim": [0.2]},
    {"byzantine_peers": 3},
    {"byzantine_peers": ["1"]},
    {"byzantine_peers": [True]},
    # scalar values of a type their field does not take
    {"num_peers": "8"},
    {"num_peers": 4.5},
    {"seed": True},
    {"seed": None},
    {"beta": "0.5"},
    {"cluster_dp": 1},
    {"out_dir": None},
    {"cas_dir": 5},
    {"data": {"num_classes": 4.0}},
    {"data": {"spread": "0.6"}},
    {"dp": {"sigma_max": None}},
    {"train": {"batch_size": "32"}},
])
def test_malformed_config_rejected(raw):
    with pytest.raises(ConfigurationError):
        config_from_dict(raw)


def test_int_for_float_and_null_for_optional_accepted():
    raw = {"beta": 1, "cas_dir": None, "data": {"spread": 1, "idx_images": None}}
    cfg = config_from_dict(raw)
    assert cfg.beta == 1 and cfg.cas_dir is None
    assert cfg.data.spread == 1 and cfg.data.idx_images is None


def test_trim_must_be_feasible_for_gossip_group():
    # fanout 1 -> groups of 2; trimming 0.3 from each tail keeps nobody
    with pytest.raises(ConfigurationError):
        RunConfig(fanout=1, trim=TrimConfig(trim_ratio=0.3))
    RunConfig(fanout=1, trim=TrimConfig(trim_ratio=0.0))
    RunConfig(fanout=4, trim=TrimConfig(trim_ratio=0.2))


def test_path_resolution():
    cfg = RunConfig(out_dir="/tmp/x")
    assert {name: str(path) for name, path in cfg.artifact_paths().items()} == {
        "cas": "/tmp/x/cas",
        "metrics": "/tmp/x/metrics.csv",
        "ledger": "/tmp/x/ledger.txt",
        "model": "/tmp/x/global_model.bin",
        "gas_report": "/tmp/x/gas_report.txt",
        "config": "/tmp/x/config.json",
        "report": "/tmp/x/run_report.json",
    }
    explicit = dataclasses.replace(
        cfg, cas_dir="/tmp/elsewhere", metrics_out="/tmp/m.csv", ledger_out="/tmp/l.txt"
    )
    paths = explicit.artifact_paths()
    assert [str(paths[name]) for name in ("cas", "metrics", "ledger", "model")] == [
        "/tmp/elsewhere", "/tmp/m.csv", "/tmp/l.txt", "/tmp/x/global_model.bin"
    ]
