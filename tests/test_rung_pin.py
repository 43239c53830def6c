"""Every output of the 10x5x40 world, seed 1, pinned by two SHA-256 digests.

The world is the demo scenario resized to 10 agents, 5 providers and 40
rounds, its providers reusing the demo's three provider models in turn,
with the complete witness topology. One digest covers its stores
document. The other covers, after the document is loaded back, for every
assessor and both models: the ranking document, then for each pair the
ranking orders, higher-ranked first, the explanation document or the
message the ``explain`` command would exit 4 with. That is 220 outputs,
each followed by one NUL byte.

The demo's golden file pins every output of a 3x3x10 world; this pins
the same pipeline at a size where stores hold hundreds of records per
bucket and TRAVOS consults witnesses on only some terms.

Run as a script, it prints both digests and exits 1 when either differs
from the pinned one; it needs only the standard library and ``reptrace``:

    PYTHONPATH=src python tests/test_rung_pin.py
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import sys
from pathlib import Path

from reptrace.errors import NotPreferredError
from reptrace.explain import Model
from reptrace.pipeline import (
    dump_document,
    explain_pair,
    explanation_to_document,
    rank,
    ranking_to_document,
    world_from_document,
    world_from_simulation,
    world_to_document,
)
from reptrace.scenario import scenario_from_document
from reptrace.simulate import run_scenario

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "demos" / "delivery_scenario.json"
RUNG = (10, 5, 40)
SEED = 1
STORES_SHA256 = "79118fb96acc0e87431b333c546633ad51ccd47d8c51c76408cc2bd51ceec34a"
OUTPUTS_SHA256 = "aee8a059878eb5a8c2e15eafd095d194ce7bccf22ce11d231ecee6166cbad1b4"


def rung_scenario(agents: int, providers: int, rounds: int, seed: int) -> dict:
    """The demo scenario resized, its provider models reused in turn."""
    doc = json.loads(SCENARIO_PATH.read_text(encoding="utf-8"))
    models = doc["providers"]
    doc["seed"] = seed
    doc["rounds"] = rounds
    doc["agents"] = [{"id": f"agent{i:02d}"} for i in range(agents)]
    doc["providers"] = [
        dict(copy.deepcopy(models[i % len(models)]), id=f"{models[i % len(models)]['id']}{i:02d}")
        for i in range(providers)
    ]
    doc["witnesses"] = "complete"
    return doc


def rung_outputs(stores_text: str):
    """Each output of the world a stores document holds, in pinned order."""
    world = world_from_document(json.loads(stores_text))
    for model, agent in itertools.product(Model, (a.id for a in world.agents)):
        ranked = rank(world, model, agent)
        yield dump_document(ranking_to_document(model, agent, ranked))
        order = [r.assessment.target for r in ranked]
        for preferred, other in itertools.combinations(order, 2):
            try:
                explanation = explain_pair(world, model, agent, preferred, other)
            except NotPreferredError as exc:
                yield f"error: {exc}"
            else:
                yield dump_document(explanation_to_document(explanation))


def digests() -> tuple[str, str, int]:
    """(stores digest, outputs digest, number of outputs)."""
    sim = run_scenario(scenario_from_document(rung_scenario(*RUNG, SEED)))
    stores_text = dump_document(world_to_document(world_from_simulation(sim)))
    outputs = hashlib.sha256()
    count = 0
    for output in rung_outputs(stores_text):
        outputs.update(output.encode() + b"\0")
        count += 1
    return hashlib.sha256(stores_text.encode()).hexdigest(), outputs.hexdigest(), count


def test_rung_outputs_match_the_pinned_digests():
    assert digests() == (STORES_SHA256, OUTPUTS_SHA256, 220)


if __name__ == "__main__":
    got = digests()
    print(f"stores  {got[0]}\noutputs {got[1]} over {got[2]} outputs")
    sys.exit(0 if got == (STORES_SHA256, OUTPUTS_SHA256, 220) else 1)
