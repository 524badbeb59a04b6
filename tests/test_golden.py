"""Golden-digest regression: one fixed small run must reproduce recorded bytes.

The determinism tests compare two runs of the same code with each other;
this one compares a run with constants recorded from an earlier version, so
a change that shifts any artifact byte (a reordered draw, a different float
summation, a changed ledger payload) fails here even when it is itself
deterministic.  Update the constants only together with a declared change
of the run's output.
"""

from gossipseg.config import RunConfig
from gossipseg.orchestrator import run_phase1, run_phase2

GOLDEN_DIGESTS = {
    "ledger": "a6b8b4be7f314f268b1fe89f1235d67e8601e4eb89098049ee6c8f1ce385d122",
    "metrics": "2bb9b9a4e3e60bd130c9a499c5603ba60890e87e7fcee950367fbcf73a9a5234",
    "model": "5ad0844d7b098bb4a3d00ebb34e3e71bfe276892690876ac3c4d7736cea89a93",
}
GOLDEN_FINAL_CID = "3a27c90cecf4890b7c1c74fb7325b74a922c159b37a25ae249758b6b2b60bcfd"
GOLDEN_PHASE1_GAS = 5_289_718
# float64 little-endian bytes of the two secure-mean centroids, in cluster order
GOLDEN_CENTROIDS = (
    "45b2913534afc83f9d1d5f31d92ed43fba94a938c42edd3fec4a708f4a56a23f"
    "0775a40d9a70ce3f9324f58bff28c93f17982855b5b7b63f3d05d3434785de3f"
)


def test_golden_run_reproduces_recorded_artifacts(tmp_path):
    cfg = RunConfig(
        num_peers=8,
        num_clusters=2,
        paillier_bits=512,
        duration_ticks=100,
        seed=42,
        out_dir=str(tmp_path / "run"),
    )
    phase1 = run_phase1(cfg)
    assert phase1.ledger.total_gas() == GOLDEN_PHASE1_GAS
    centroids = b"".join(c.tobytes() for c in phase1.assignment.centroids)
    assert centroids.hex() == GOLDEN_CENTROIDS

    report, _ = run_phase2(cfg, phase1)
    assert report.artifact_digests == GOLDEN_DIGESTS
    assert report.final_global_cid == GOLDEN_FINAL_CID


# One-row segments, leader combines of up to 24 updates and trim fallbacks
# on both the peer and the leader side: the paths that read segment ownership.
SEGMENT_STRESS_DIGESTS = {
    "ledger": "7335088e7ceca1efb480112770fe1ba51a488bf7f01e3e7b765cf1a8bda22ae9",
    "metrics": "8d065373ba68cb96ae95578d92fb0ae30c319f84be1f2325d9bf85a17c534e15",
    "model": "4e7af7569317ab88a71620f204b4301639adce35cee1b02b88aeaa942e609c3d",
}
SEGMENT_STRESS_FINAL_CID = "adbd4b56ad2ae137ad8e0d068d32ab00113db07526b50fe7432dedd711c6353d"


def test_golden_segment_stress_run_reproduces_recorded_artifacts(tmp_path):
    cfg = RunConfig(
        num_peers=24,
        num_clusters=3,
        paillier_bits=512,
        duration_ticks=120,
        leader_period=30,
        byzantine_peers=(5,),
        seed=7,
        out_dir=str(tmp_path / "run"),
    )
    report, _ = run_phase2(cfg, run_phase1(cfg))
    assert report.artifact_digests == SEGMENT_STRESS_DIGESTS
    assert report.final_global_cid == SEGMENT_STRESS_FINAL_CID
