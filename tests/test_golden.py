"""End-to-end golden outputs of the demo scenario, uncapped and capped.

Simulates ``demos/delivery_scenario.json`` with ``history_cap`` null, 3
and 7 through the CLI, then pins the sha256 of the stores document, of
every agent's ``assess`` document and of every ordered provider pair's
``explain`` document and ``--text`` output, under both models. A command
that fails is pinned by its exit code instead. The capped runs pin the
eviction path end to end, and every run pins the witness evidence each
store reads through the witness index of its document's ``witnesses``
section. The uncapped commands must give the same outputs on
``data/demo_stores_v1.json``, the same stores in the stores/v1 format,
whose witness evidence is explicit witness copies and which has no
``witnesses`` section.

To print the table for the current code (after checking that a change
in it is intended):

    PYTHONPATH=src:tests python tests/test_golden.py > tests/demo_golden.json
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

from reptrace import cli
from reptrace.pipeline import dump_document, world_from_document, world_to_document

REPO = Path(__file__).resolve().parent.parent
SCENARIO_PATH = REPO / "demos" / "delivery_scenario.json"
GOLDEN_PATH = Path(__file__).resolve().parent / "demo_golden.json"
#: The uncapped demo's stores/v1 document, as ``simulate`` wrote it before
#: stores/v2, and its sha256: the golden ``null/stores`` of that time.
V1_STORES_PATH = Path(__file__).resolve().parent / "data" / "demo_stores_v1.json"
V1_STORES_SHA256 = "be7d444fb64732d8318ec10c0bce558d2b69aee78e58e2464ecea0e7d7ae0fa3"
#: The sha256 of that document loaded and written again as stores/v2: its
#: witness copies stay explicit records, and it gains no ``witnesses``
#: section. It was the golden ``null/stores`` while ``simulate`` wrote
#: witness copies.
V1_REWRITTEN_SHA256 = "9ee2479a7b15595539c323f003713678ab9847ca3106ffcae070ac40575e6fca"
CAPS = (None, 3, 7)
MODELS = ("fire", "travos")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> str | int:
    """The sha256 of the command's stdout, or its exit code if it fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return _sha256(out.getvalue().encode()) if code == 0 else code


def capture_commands(stores: Path, name: str, agents, providers) -> dict[str, str | int]:
    """Every pinned command on one stores document, keyed ``name/model/agent/command``."""
    table: dict[str, str | int] = {}
    for model, agent in itertools.product(MODELS, agents):
        base = [str(stores), "--model", model, "--assessor", agent]
        table[f"{name}/{model}/{agent}/assess"] = _run(["assess", *base])
        for preferred, other in itertools.permutations(providers, 2):
            pair = ["--preferred", preferred, "--other", other]
            key = f"{name}/{model}/{agent}/explain {preferred}>{other}"
            table[key] = _run(["explain", *base, *pair])
            table[f"{key} --text"] = _run(["explain", *base, *pair, "--text"])
    return table


def capture(workdir: Path) -> dict[str, str | int]:
    """Every pinned output, keyed ``cap/model/agent/command``."""
    scenario = json.loads(SCENARIO_PATH.read_text())
    agents = [a["id"] for a in scenario["agents"]]
    providers = [p["id"] for p in scenario["providers"]]
    table: dict[str, str | int] = {}
    for cap in CAPS:
        scenario["fire"]["history_cap"] = cap
        scenario_path = workdir / f"scenario-{cap}.json"
        stores = workdir / f"stores-{cap}.json"
        scenario_path.write_text(json.dumps(scenario))
        assert cli.main(["simulate", str(scenario_path), str(stores)]) == 0
        name = json.dumps(cap)
        table[f"{name}/stores"] = _sha256(stores.read_bytes())
        table.update(capture_commands(stores, name, agents, providers))
    return table


def _memoised_loading(monkeypatch) -> None:
    # Each stores document is parsed, validated and built once, not once
    # per command; the commands themselves run unchanged.
    worlds = {}

    def world_from_document(doc):
        if id(doc) not in worlds:
            worlds[id(doc)] = load_world(doc)
        return worlds[id(doc)]

    load_world = cli.world_from_document
    monkeypatch.setattr(cli, "_load_json", functools.lru_cache(None)(cli._load_json))
    monkeypatch.setattr(cli, "world_from_document", world_from_document)


_BUILTIN_SUM = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """The built-in ``sum`` as Python 3.12 and later round floats: with
    compensation, here through ``math.fsum`` when any item is a float."""
    items = [start, *iterable]
    if any(isinstance(x, float) for x in items):
        return math.fsum(items)
    return _BUILTIN_SUM(items[1:], start)


def test_demo_outputs_match_golden(tmp_path, monkeypatch):
    _memoised_loading(monkeypatch)
    expected = json.loads(GOLDEN_PATH.read_text())
    got = capture(tmp_path)
    assert list(got) == list(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, {key: (expected[key], got[key]) for key in changed}


def test_demo_outputs_match_golden_under_a_compensated_sum(tmp_path, monkeypatch):
    # Every figure is summed left to right by the package itself, so the
    # outputs must not depend on how the interpreter's ``sum`` rounds.
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    test_demo_outputs_match_golden(tmp_path, monkeypatch)


def test_v1_demo_stores_match_golden(monkeypatch):
    # A stores/v1 document still loads: it gives every uncapped golden
    # output, and written again it keeps its witness copies.
    _memoised_loading(monkeypatch)
    assert _sha256(V1_STORES_PATH.read_bytes()) == V1_STORES_SHA256
    golden = json.loads(GOLDEN_PATH.read_text())
    expected = {
        key: value
        for key, value in golden.items()
        if key.startswith("null/") and key != "null/stores"
    }
    scenario = json.loads(SCENARIO_PATH.read_text())
    got = capture_commands(
        V1_STORES_PATH,
        "null",
        [a["id"] for a in scenario["agents"]],
        [p["id"] for p in scenario["providers"]],
    )
    assert list(got) == list(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, {key: (expected[key], got[key]) for key in changed}
    world = world_from_document(json.loads(V1_STORES_PATH.read_text()))
    written = dump_document(world_to_document(world)).encode()
    assert _sha256(written) == V1_REWRITTEN_SHA256


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        json.dump(capture(Path(workdir)), sys.stdout, indent=1)
    sys.stdout.write("\n")
