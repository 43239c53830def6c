"""The benchmark harness runs: its smallest ladder rung, as a subprocess."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_ladder_smallest_rung():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--ladder", "--rungs", "3x3x10", "--seed", "1"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    [rung] = json.loads(result.stdout)["rungs"]
    assert rung["rung"] == "3x3x10"
    assert rung["rating_records"] == 423
    assert rung["interaction_ratings"] == 141
