"""Explanations of wide comparisons, pinned by one SHA-256 digest.

A seeded generator builds 48 comparisons of two providers over 12 terms
and all four reputation types, half under FIRE and half under TRAVOS,
with the diagnostics each model's arguments read. About one component
in seven is missing, so some terms have types only one provider has
evidence on. Values are drawn independently, so most comparisons are
trade-offs with several pros, and the weight-permutation search runs on
each of them. The digest covers, per comparison, the explanation
document and its rendered text, or the message the explainer raised,
each followed by one NUL byte.

The benchmark's wide-terms workload pins the same layers on its own
contexts; this keeps them pinned in the tier-1 suite, with nothing beyond
the standard library and ``reptrace``. Run as a script, it prints the
digest and exits 1 when it differs from the pinned one:

    PYTHONPATH=src python tests/test_wide_pin.py
"""

from __future__ import annotations

import hashlib
import random
import sys

from reptrace.core import (
    REPUTATION_ORDER,
    ComponentTrust,
    Preferences,
    ReputationType,
    build_assessment,
)
from reptrace.errors import NotPreferredError
from reptrace.explain import (
    ComparisonContext,
    FireDiagnostics,
    Model,
    TravosDiagnostics,
    explain,
)
from reptrace.pipeline import dump_document, explanation_to_document
from reptrace.render import render_text
from reptrace.travos import TravosTermDiagnostics

SEED = 20_111
COMPARISONS = 48
TERMS = tuple(f"term{i:02d}" for i in range(12))
#: Chance that a provider has no evidence of one type on one term.
MISSING = 1 / 7
NAMES = {"provA": "Provider A", "provB": "Provider B"}
OUTPUTS_SHA256 = "91cb781dc26345e833e4fcf2923e1d9144501a922ee6ce46c47d4143a64d1c19"
OUTPUTS = 96


def comparison(rng: random.Random, model: Model) -> ComparisonContext:
    """One comparison of provA and provB, the higher overall score first."""
    importance = {k: rng.uniform(0.1, 1.0) for k in REPUTATION_ORDER}
    prefs = Preferences(
        term_weights={t: rng.uniform(0.05, 1.0) for t in TERMS}, component_weights=importance
    )

    def assessment(target: str):
        components = {
            t: [
                ComponentTrust(k, rng.random(), importance[k] * rng.uniform(0.5, 1.0))
                for k in REPUTATION_ORDER
                if rng.random() >= MISSING
            ]
            for t in TERMS
        }
        return build_assessment("assessor", target, components, prefs)

    a, b = assessment("provA"), assessment("provB")
    if a.overall < b.overall:
        a, b = b, a
    if model is Model.FIRE:
        diagnostics = FireDiagnostics(
            uniform_preferred=assessment(a.target), uniform_other=assessment(b.target)
        )
        return ComparisonContext(
            "assessor", a, b, prefs, model=model, fire_diagnostics=diagnostics
        )
    threshold = 0.2

    def per_term(side):
        out = {}
        for t in TERMS:
            confidence = rng.uniform(0.0, 0.5)
            out[t] = TravosTermDiagnostics(
                interaction_confidence=confidence,
                low_confidence=confidence < threshold,
                witness_trust=side.component_value(t, ReputationType.WITNESS),
            )
        return out

    diagnostics = TravosDiagnostics(threshold=threshold, preferred=per_term(a), other=per_term(b))
    return ComparisonContext("assessor", a, b, prefs, model=model, travos_diagnostics=diagnostics)


def outputs():
    """Each output, in pinned order."""
    rng = random.Random(SEED)
    models = list(Model)
    for i in range(COMPARISONS):
        ctx = comparison(rng, models[i % len(models)])
        try:
            explanation = explain(ctx)
        except NotPreferredError as exc:
            yield f"error: {exc}"
        else:
            yield dump_document(explanation_to_document(explanation))
            yield render_text(explanation, NAMES)


def digest() -> tuple[str, int]:
    """(outputs digest, number of outputs)."""
    h = hashlib.sha256()
    count = 0
    for output in outputs():
        h.update(output.encode() + b"\0")
        count += 1
    return h.hexdigest(), count


def test_wide_outputs_match_the_pinned_digest():
    assert digest() == (OUTPUTS_SHA256, OUTPUTS)


if __name__ == "__main__":
    got = digest()
    print(f"outputs {got[0]} over {got[1]} outputs")
    sys.exit(0 if got == (OUTPUTS_SHA256, OUTPUTS) else 1)
