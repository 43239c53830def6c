"""Reputation assessment and explanation engine.

Two reputation backends (recency-weighted means and beta-evidence pooling)
share one multi-term trust structure; pairwise rankings between providers
are justified by minimal argument sets rendered as plain sentences.
"""

from .core import (
    Assessment,
    BINARY_RANGE,
    BIPOLAR_RANGE,
    ComponentTrust,
    NativeRange,
    Preferences,
    Rating,
    ReputationType,
    TermAssessment,
    UNIT_RANGE,
    build_assessment,
    combine_term_trust,
    denormalize_rating,
    normalize_rating,
    overall_trust,
    validate_assessment,
)
from .explain import (
    ComparisonContext,
    DecisiveDominance,
    DecisiveTradeoff,
    Explanation,
    FireDiagnostics,
    FireRecencyGlobal,
    FireRecencyLocal,
    Model,
    TravosDiagnostics,
    TravosLowConfidence,
    TypePermutation,
    decisive_terms,
    decisive_terms_dominance,
    decisive_terms_tradeoff,
    dominates,
    fire_recency_global,
    fire_recency_local,
    invert_permutation,
    travos_low_confidence,
)
from .fire import FireConfig, recency_weight
from .render import TemplateSet, default_templates, load_templates, render_text
from .simulate import (
    Outcome,
    PhaseParams,
    ProviderModel,
    RaterProfile,
    Scenario,
    SimulationWorld,
    rate_outcome,
    run_scenario,
    simulate_interaction,
)
from .store import ObservationRecord, ObservationStore, RatingStore, RoleRule
from .travos import (
    BetaParams,
    TravosConfig,
    WitnessOpinion,
    beta_from_ratings,
    combine_evidence,
    confidence,
    decomposition_weights,
    discount_opinion,
    witness_accuracy,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
