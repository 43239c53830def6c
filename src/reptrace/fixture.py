"""Built-in demo data: four providers with known component trusts.

The fixture injects interaction and witness trust values directly,
bypassing rating aggregation, so every downstream number is reproducible
in closed form. It drives the `demo` CLI command, the narrative demos and
the golden tests.
"""

from __future__ import annotations

from .core import (
    Assessment,
    ComponentTrust,
    Preferences,
    ReputationType,
    build_assessment,
)
from .explain import ComparisonContext

ASSESSOR = "A"
PROVIDERS = ("B", "C", "D", "E")
TERMS = ("quality", "timeliness", "cost")

INTERACTION_WEIGHT = 0.75
WITNESS_WEIGHT = 0.25
TERM_WEIGHTS = {"quality": 0.45, "timeliness": 0.35, "cost": 0.20}

#: (interaction, witness) trust values per provider and term.
COMPONENT_VALUES: dict[str, dict[str, tuple[float, float]]] = {
    "B": {"quality": (0.75, 0.95), "timeliness": (0.55, 0.70), "cost": (0.40, 0.30)},
    "C": {"quality": (0.10, 0.40), "timeliness": (0.20, 0.15), "cost": (0.15, 0.15)},
    "D": {"quality": (0.50, 0.60), "timeliness": (0.95, 0.80), "cost": (0.10, 0.10)},
    "E": {"quality": (0.10, 0.90), "timeliness": (0.20, 1.00), "cost": (0.40, 0.95)},
}

#: Golden values, rounded to 2 decimals.
EXPECTED_TERM_TRUSTS = {
    "B": {"quality": 0.80, "timeliness": 0.59, "cost": 0.38},
    "C": {"quality": 0.18, "timeliness": 0.19, "cost": 0.15},
    "D": {"quality": 0.53, "timeliness": 0.91, "cost": 0.10},
    "E": {"quality": 0.30, "timeliness": 0.40, "cost": 0.54},
}
EXPECTED_OVERALL = {"B": 0.64, "C": 0.17, "D": 0.58, "E": 0.38}
#: Term trusts of B and E on timeliness after swapping component weights.
EXPECTED_SWAP = (0.6625, 0.80)


def preferences() -> Preferences:
    return Preferences(
        term_weights=dict(TERM_WEIGHTS),
        component_weights={
            ReputationType.INTERACTION: INTERACTION_WEIGHT,
            ReputationType.WITNESS: WITNESS_WEIGHT,
        },
    )


def assessment(provider: str) -> Assessment:
    """Build one provider's assessment from the injected component trusts."""
    components = {
        term: [
            ComponentTrust(
                rep_type=ReputationType.INTERACTION,
                value=values[0],
                weight=INTERACTION_WEIGHT,
            ),
            ComponentTrust(
                rep_type=ReputationType.WITNESS,
                value=values[1],
                weight=WITNESS_WEIGHT,
            ),
        ]
        for term, values in COMPONENT_VALUES[provider].items()
    }
    return build_assessment(ASSESSOR, provider, components, preferences())


def comparison(preferred: str, other: str) -> ComparisonContext:
    """Model-agnostic comparison context between two fixture providers."""
    return ComparisonContext(
        assessor=ASSESSOR,
        preferred=assessment(preferred),
        other=assessment(other),
        preferences=preferences(),
    )
