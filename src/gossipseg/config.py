"""Run configuration: dataclasses, validation, and JSON round-trip."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .aggregation import TrimConfig, is_trim_feasible
from .errors import ConfigurationError
from .privacy import DpConfig
from .trainer import TrainConfig


@dataclass(frozen=True)
class DataConfig:
    """Synthetic blob corpus by default; IDX files when ``idx_images`` is set.

    The four IDX paths come together: train and test images and labels.
    """

    num_classes: int = 4
    samples_per_class: int = 400
    test_per_class: int = 100
    input_dim: int = 8
    center_scale: float = 3.0
    spread: float = 0.6
    idx_images: str | None = None
    idx_labels: str | None = None
    idx_test_images: str | None = None
    idx_test_labels: str | None = None

    def __post_init__(self) -> None:
        paths = (self.idx_images, self.idx_labels, self.idx_test_images, self.idx_test_labels)
        if any(p is not None for p in paths) and any(p is None for p in paths):
            raise ConfigurationError(
                "idx datasets need train and test image and label paths"
            )
        if self.num_classes < 2:
            raise ConfigurationError("need at least two classes")
        if self.samples_per_class < 1 or self.test_per_class < 1 or self.input_dim < 1:
            raise ConfigurationError("dataset sizes must be positive")
        if not (0 <= self.center_scale < math.inf and 0 <= self.spread < math.inf):
            raise ConfigurationError("center_scale and spread must be finite and >= 0")


@dataclass(frozen=True)
class RunConfig:
    num_peers: int = 8
    num_clusters: int = 2
    beta: float = 0.5
    seed: int = 42
    duration_ticks: int = 500
    leader_period: int = 50
    interval_min: int = 3
    interval_max: int = 8
    fanout: int = 2
    cluster_dp: bool = False
    paillier_bits: int = 1024
    penalty_loss_delta: float = 0.5
    byzantine_peers: tuple[int, ...] = ()
    byzantine_scale: float = 1000.0
    out_dir: str = "runs/default"
    cas_dir: str | None = None
    metrics_out: str | None = None
    ledger_out: str | None = None
    data: DataConfig = field(default_factory=DataConfig)
    dp: DpConfig = field(default_factory=DpConfig)
    trim: TrimConfig = field(default_factory=TrimConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        if self.num_peers < 1:
            raise ConfigurationError("num_peers must be >= 1")
        if not 1 <= self.num_clusters <= self.num_peers:
            raise ConfigurationError("num_clusters must lie in [1, num_peers]")
        if self.num_clusters > self.data.num_classes:
            raise ConfigurationError("more clusters than output units to segment")
        if not 0 < self.beta < math.inf:
            raise ConfigurationError("beta must be positive and finite")
        if self.duration_ticks < 0:
            raise ConfigurationError("duration_ticks must be >= 0")
        if self.leader_period < 1:
            raise ConfigurationError("leader_period must be >= 1")
        # a wake interval is drawn as a signed 64-bit integer
        if not 1 <= self.interval_min <= self.interval_max <= 2**63 - 1:
            raise ConfigurationError("need 1 <= interval_min <= interval_max <= 2**63 - 1")
        if self.fanout < 0:
            raise ConfigurationError("fanout must be >= 0")
        if self.trim.trim_ratio > 0 and not is_trim_feasible(
            self.fanout + 1, self.trim.trim_ratio
        ):
            raise ConfigurationError(
                "trim_ratio is infeasible for fanout+1 gossip updates"
            )
        if self.paillier_bits < 256:
            raise ConfigurationError("paillier_bits must be >= 256")
        if not 0 <= self.penalty_loss_delta < math.inf:
            raise ConfigurationError("penalty_loss_delta must be finite and >= 0")
        for pid in self.byzantine_peers:
            if not 0 <= pid < self.num_peers:
                raise ConfigurationError(f"byzantine peer {pid} out of range")
        if not (math.isfinite(self.byzantine_scale) and self.byzantine_scale > 0):
            raise ConfigurationError("byzantine_scale must be positive and finite")

    def artifact_paths(self) -> dict[str, Path]:
        """Where a run writes each artifact: the ``cas`` directory, then each file."""
        out = Path(self.out_dir)
        return {
            "cas": Path(self.cas_dir) if self.cas_dir else out / "cas",
            "metrics": Path(self.metrics_out) if self.metrics_out else out / "metrics.csv",
            "ledger": Path(self.ledger_out) if self.ledger_out else out / "ledger.txt",
            "model": out / "global_model.bin",
            "gas_report": out / "gas_report.txt",
            "config": out / "config.json",
            "report": out / "run_report.json",
        }


def config_to_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["byzantine_peers"] = list(cfg.byzantine_peers)
    return out


_NESTED = {"data": DataConfig, "dp": DpConfig, "trim": TrimConfig, "train": TrainConfig}


# the JSON values a scalar field takes: a bool is not an int, an int is a float
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _check_fields(raw: dict, cls: type, where: str) -> None:
    """Reject unknown keys and scalar values of a type their field does not take."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")
    for name, value in raw.items():
        kind = fields[name].type.removesuffix(" | None")
        accepted = _JSON_TYPES.get(kind)
        if accepted is None or (value is None and fields[name].default is None):
            continue
        if isinstance(value, bool) != (kind == "bool") or not isinstance(value, accepted):
            raise ConfigurationError(f"{where} key {name!r} must be {kind}, not {value!r}")


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, rejecting any malformed entry."""
    _check_fields(raw, RunConfig, "config")
    kwargs = dict(raw)
    for key, cls in _NESTED.items():
        if key not in kwargs:
            continue
        value = kwargs[key]
        if not isinstance(value, dict):
            raise ConfigurationError(f"config key {key!r} must hold an object")
        _check_fields(value, cls, f"{key!r}")
        kwargs[key] = cls(**value)
    if "byzantine_peers" in kwargs:
        peers = kwargs["byzantine_peers"]
        if not isinstance(peers, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in peers
        ):
            raise ConfigurationError("byzantine_peers must be a list of peer ids")
        kwargs["byzantine_peers"] = tuple(peers)
    return RunConfig(**kwargs)


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def read_input(path: str | Path) -> str:
    """The text of an input file; an unreadable one is a rejected input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(read_input(path))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config file must hold a JSON object")
    return config_from_dict(raw)
