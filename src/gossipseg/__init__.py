"""Deterministic simulator for ledger-scheduled segmented gossip learning."""
from __future__ import annotations

from .aggregation import TrimConfig, plain_mean, trimmed_mean
from .cas import BlockStore, Cid
from .clustering import ClusterAssignment, one_shot_cluster
from .config import DataConfig, RunConfig, load_config, save_config
from .datasets import LabeledDataset, dirichlet_partition, synthetic_blobs
from .ledger import OPERATIONS, Ledger
from .model import (
    ModelParams,
    SegmentSpec,
    canonical_bytes,
    mask_to_segment,
    params_from_bytes,
    segment_boundaries,
)
from .orchestrator import (
    Phase1Result,
    RunReport,
    run_full,
    run_phase1,
    run_phase2,
)
from .peer import Peer, RunContext, incentive_check, leader_duty
from .privacy import DpConfig, clip_and_noise, sigma_at
from .trainer import TrainConfig, evaluate, gradient, init_params, sgd_step

__version__ = "0.1.0"
