"""The benchmark harness runs, as a subprocess: its smallest ladder rung,
and one pass of the wide-terms workload with its output digests pinned."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


#: Output digests of one wide-terms pass (96 explained and rendered 12-term
#: comparisons) on the default and the held-out seed.
WIDE_TERMS_DIGESTS = {
    1: "600870c1f074ee15e6b7938ea85a6697196234538a6b4c68f7b476649653645e",
    9176: "f942f50c7c1031e90b8f13f2e6f487f9074913d6c8a8beec90e4170ddebecf84",
}


@pytest.mark.parametrize("seed", sorted(WIDE_TERMS_DIGESTS))
def test_wide_terms_digest(seed):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-terms",
         "--seconds", "0", "--seed", str(seed)],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    detail, summary = (json.loads(line) for line in result.stdout.splitlines()[-2:])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert detail["detail"]["digest"] == WIDE_TERMS_DIGESTS[seed]
