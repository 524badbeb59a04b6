"""The benchmark's named workloads: a RunConfig per (workload, seed).

Each workload exists so that one layer does most of the work while another
does little; ``stresses`` and ``bypasses`` name them.  A change to the
stressed layer should move the workload's numbers; on a workload that
bypasses the layer the prediction is no change.  BENCHMARK.json gives the
one-line reason for each workload it runs.

The seed is the RunConfig seed: it fixes the data, the partition, the
clustering, every peer's schedule and the Paillier key.  ``setup_s``
depends on it through the prime search in ``paillier.keygen``, whose number
of candidates varies with the seed, so compare two commits on the same
seeds.  ``digests.json`` records the artifact digests per workload and seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Layer counters that every traced run must see as non-zero; a zero means a
# wrapper missed a name binding and the layer silently reads nothing.
COMMON_COUNTERS = (
    "ledger.save_hash.calls",
    "ledger.validate_update.calls",
    "ledger.hash_records.calls",
    "cas.put.calls",
    "cas.get.bytes",
    "model.codec.calls",
    "model.mask_to_segment.calls",
    "trainer.gradient.calls",
    "trainer.evaluate.calls",
    "privacy.clip_and_noise.calls",
    "paillier.encrypt.calls",
    "paillier.decrypt.calls",
    "peer.peer_iteration.calls",
    "peer.leader_duty.calls",
    "scheduler.events",
)


def _largest_layer(metrics: dict, phase: str) -> str:
    shares = {
        name[: -len(f".{phase}_share")]: value
        for name, value in metrics.items()
        if name.endswith(f".{phase}_share")
    }
    return max(shares, key=shares.get)


@dataclass(frozen=True)
class Workload:
    name: str
    stresses: str
    bypasses: str
    config: dict
    data: dict
    train: dict
    # counters that must be non-zero on this workload in particular
    counters: tuple[str, ...]
    # the stated intent, checked against the traced run's layer metrics
    intent: str
    intent_holds: Callable[[dict], bool]
    # gossip phases forked from each setup: more samples of gossip_s per run
    gossip_repeats: int

    def run_config(self, seed: int, out_dir: str):
        from gossipseg.config import DataConfig, RunConfig
        from gossipseg.trainer import TrainConfig

        return RunConfig(
            seed=seed,
            out_dir=out_dir,
            data=DataConfig(**self.data),
            train=TrainConfig(**self.train),
            **self.config,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gossip-many-peers",
            stresses="ledger (validate_update, hash_records)",
            bypasses="trainer and cas: the 8-16-4 model makes per-update work tiny",
            config=dict(
                num_peers=32, num_clusters=2, paillier_bits=512, duration_ticks=300
            ),
            data={},
            train={},
            counters=("ledger.scan_rows", "aggregation.trimmed_mean.calls"),
            intent="ledger is the largest layer share of gossip_s",
            intent_holds=lambda m: _largest_layer(m, "gossip") == "ledger",
            gossip_repeats=2,
        ),
        Workload(
            name="gossip-wide-model",
            stresses="trainer, model codec, cas and aggregation",
            bypasses="ledger: fewer than 200 hash records are ever scanned",
            config=dict(
                num_peers=8,
                num_clusters=4,
                fanout=4,
                paillier_bits=512,
                duration_ticks=100,
            ),
            data=dict(
                num_classes=32, input_dim=64, samples_per_class=100, test_per_class=25
            ),
            train=dict(hidden_dim=512),
            counters=("aggregation.trimmed_mean.calls", "cas.get.bytes", "cas.put.bytes"),
            intent="trainer + cas + model + aggregation self time in gossip exceeds ledger's",
            intent_holds=lambda m: sum(
                m[f"{layer}.gossip_share"]
                for layer in ("trainer", "cas", "model", "aggregation")
            )
            > m["ledger.gossip_share"],
            gossip_repeats=3,
        ),
        Workload(
            name="setup-many-peers",
            stresses="paillier (encrypt, decrypt) in setup; ledger scans in the gossip tail",
            bypasses="ledger scans, trainer and cas in setup, which only appends transactions",
            config=dict(
                num_peers=96, num_clusters=4, paillier_bits=1024, duration_ticks=50
            ),
            data={},
            train={},
            counters=("paillier.encrypt.calls", "datasets.build.s"),
            intent="paillier is the largest layer share of setup_s",
            intent_holds=lambda m: _largest_layer(m, "setup") == "paillier",
            gossip_repeats=3,
        ),
    )
}
