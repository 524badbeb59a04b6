"""Smoke runs of every suite of scripts/ablation.py on one seed and few ticks."""

import subprocess
import sys
from pathlib import Path

import pytest

ABLATION = Path(__file__).resolve().parent.parent / "scripts" / "ablation.py"
# each suite's number of variants: one table row each
VARIANTS = {"segmentation": 3, "beta": 4, "byzantine": 3, "gas": 5}


@pytest.mark.parametrize("suite", VARIANTS)
def test_ablation_runs(tmp_path, suite):
    result = subprocess.run(
        # -W error: the suite's warning policy reaches the child process too
        [sys.executable, "-W", "error", str(ABLATION), suite,
         "--seeds", "1", "--ticks", "20", "--out", str(tmp_path / "runs")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.startswith("variant") and len(rows) == VARIANTS[suite]
    if suite == "gas":
        # the setup gas bill at 2 and 8 peers does not depend on the run length
        assert "3,753,718" in result.stdout and "5,289,718" in result.stdout
