"""Smoke runs of the experiment scripts on tiny settings: each must exit 0."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("byzantine_ab.py", ["--seeds", "3", "--ticks", "20", "--out", "{tmp}/byzantine_ab"]),
        ("beta_sweep.py", ["--betas", "1", "--ticks", "20", "--out", "{tmp}/beta_sweep"]),
        ("gas_scaling.py", ["--peer-counts", "2", "4"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    argv = [a.format(tmp=tmp_path) for a in args]
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        cwd=tmp_path,  # gas_scaling writes under runs/ in the working directory
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
