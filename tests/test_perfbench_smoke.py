"""The benchmark harness runs, as a subprocess: its smallest ladder rung,
and one pass each of the query and wide-terms workloads with their output
digests pinned. Its name tables cover every per-layer metric that
BENCHMARK.json names."""

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
    # Stores hold each interaction rating once; witnesses read it there.
    assert rung["rating_records"] == 141
    assert rung["interaction_ratings"] == 141


def one_pass_digest(workload, seed):
    """Run one pass of a workload; check it and return its output digest."""
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--seed", str(seed)],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    detail, summary = (json.loads(line) for line in result.stdout.splitlines()[-2:])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    return detail["detail"]["digest"]


#: Output digests of one query-16x8x60 pass on the default and the held-out
#: seed: 64 outputs on a 16x8x60 world, 32 ranking documents and 32
#: explanation documents each followed by its rendered text, under FIRE and
#: TRAVOS.
QUERY_DIGESTS = {
    1: "a3c94f41ce5fbfc7625121604917a6bb3b393aa4c93b2c7c94378387e500a375",
    9176: "10e085f6b470bafac5e952b6f3c052cf1101cf2427a8398b74a5c66865baf340",
}


@pytest.mark.parametrize("seed", sorted(QUERY_DIGESTS))
def test_query_digest(seed):
    assert one_pass_digest("query-16x8x60", seed) == QUERY_DIGESTS[seed]


#: Output digests of one wide-terms pass (96 explained and rendered 12-term
#: comparisons) on the default and the held-out seed.
WIDE_TERMS_DIGESTS = {
    1: "600870c1f074ee15e6b7938ea85a6697196234538a6b4c68f7b476649653645e",
    9176: "f942f50c7c1031e90b8f13f2e6f487f9074913d6c8a8beec90e4170ddebecf84",
}


@pytest.mark.parametrize("seed", sorted(WIDE_TERMS_DIGESTS))
def test_wide_terms_digest(seed):
    assert one_pass_digest("wide-terms", seed) == WIDE_TERMS_DIGESTS[seed]


def test_every_declared_layer_metric_is_emitted(monkeypatch):
    # The static part of ``run.py --self-check``: read the harness's name
    # tables, run no workload.
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import run
    import workloads

    emitted = set(run.layer_metrics({"spans": {}, "counters": {}}, 1, 1))
    emitted |= {"cli.interpreter_ms", "pipeline.stores_bytes_per_rating", "trace.overhead_pct"}
    emitted |= {f"cli.{key}" for key in workloads.import_times("")}
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    declared = [metric["name"] for metric in spec["per_layer"]]
    assert sorted(set(declared) - emitted) == []
