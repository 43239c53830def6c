"""Model-independent trust types and combination math.

Every reputation backend in this package reduces its evidence to the same
three-level structure: per-component trust values are combined into a trust
value per term, and term trusts are combined into one overall score using
the assessor's term preferences. Both combinations are weighted means, so
weights never need to be pre-normalised.

All values handled here live in [0, 1]. Ratings arrive on that scale;
the one other scale, FIRE's [-1, 1] role-rule values, is mapped onto it
where role rules become pseudo-ratings.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

AgentId = str
Term = str


class ReputationType(Enum):
    """Evidence channel a rating belongs to.

    Members hash by identity, in C: each is a singleton and compares by
    identity, so the hash agrees with ``==``. ``Enum.__hash__`` is a
    Python-level call on every dict or set lookup.
    """

    INTERACTION = "interaction"
    WITNESS = "witness"
    ROLE_BASED = "role"
    CERTIFIED = "certified"

    __hash__ = object.__hash__


#: Canonical component ordering used for iteration and display.
REPUTATION_ORDER = (
    ReputationType.INTERACTION,
    ReputationType.WITNESS,
    ReputationType.ROLE_BASED,
    ReputationType.CERTIFIED,
)


class _RatingFields(NamedTuple):
    source: AgentId
    target: AgentId
    term: Term
    rep_type: ReputationType
    value: float
    timestamp: int
    interaction_id: Optional[str] = None


class Rating(_RatingFields):
    """One piece of trust evidence: source rated target on a term.

    ``value`` is the score in [0, 1]; ``timestamp`` is the simulation
    round the rating was recorded in.

    A named tuple, so building one stores its fields in one step: it is
    immutable, and equal and hashed by value. Only the constructor
    validates; ``_make`` and ``_replace`` skip the checks.
    """

    __slots__ = ()

    def __new__(cls, source, target, term, rep_type, value, timestamp, interaction_id=None):
        if not source or not target or not term:
            raise ValueError("source, target and term must be non-empty")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"rating value {value!r} outside [0, 1]")
        if timestamp < 0:
            raise ValueError("timestamp must be a non-negative round index")
        return tuple.__new__(
            cls, (source, target, term, rep_type, value, timestamp, interaction_id)
        )


def weight_problem(weights: Mapping[object, float]) -> Optional[str]:
    """Why a weight section cannot weigh a mean, or None if it can."""
    values = list(weights.values())
    if not all(math.isfinite(w) for w in values):
        return "a weight is not finite"
    if any(w < 0 for w in values):
        return "a weight is negative"
    if not any(w > 0 for w in values):
        return "no weight is positive"
    try:
        math.fsum(values)
    except OverflowError:
        return "the sum of the weights is not finite"
    return None


class _PreferencesFields(NamedTuple):
    term_weights: Mapping[Term, float]
    component_weights: Mapping[ReputationType, float]


class Preferences(_PreferencesFields):
    """Assessor preferences: term weights and component importance.

    Weights are finite and non-negative, each section has a positive
    weight and a finite sum, and weights need not sum to one; every
    combination divides by the applicable weight sum. Term declaration
    order (the insertion order of ``term_weights``) is meaningful:
    explanation arguments are emitted per term in this order.

    Only the constructor validates; ``_make`` and ``_replace`` skip the
    checks.
    """

    __slots__ = ()

    def __new__(cls, term_weights, component_weights):
        for section, weights in (("term", term_weights), ("component", component_weights)):
            problem = weight_problem(weights)
            if problem:
                raise ValueError(f"{section} weights invalid: {problem}")
        return tuple.__new__(cls, (term_weights, component_weights))

    @property
    def terms(self) -> tuple[Term, ...]:
        """Terms in declaration order."""
        return tuple(self.term_weights.keys())


class _ComponentTrustFields(NamedTuple):
    rep_type: ReputationType
    value: Optional[float]
    weight: float


class ComponentTrust(_ComponentTrustFields):
    """Aggregated trust for one reputation type on one term.

    ``value`` is None when the component has no evidence; an absent value
    forces a zero weight so it never enters a mean. ``weight`` is the
    effective combination weight (importance for FIRE, evidence-mass share
    for TRAVOS).

    Only the constructor validates; ``_make`` and ``_replace`` skip the
    checks.
    """

    __slots__ = ()

    def __new__(cls, rep_type, value, weight):
        if value is None:
            if weight != 0.0:
                raise ValueError("absent component value requires zero weight")
        elif not 0.0 <= value <= 1.0:
            raise ValueError(f"component trust {value!r} outside [0, 1]")
        if weight < 0:
            raise ValueError("component weight must be non-negative")
        return tuple.__new__(cls, (rep_type, value, weight))


class TermAssessment(NamedTuple):
    """Component breakdown and combined trust for a single term."""

    components: tuple[ComponentTrust, ...]
    term_trust: Optional[float]


class Assessment(NamedTuple):
    """Full per-provider breakdown: components, term trusts, overall score."""

    assessor: AgentId
    target: AgentId
    per_term: Mapping[Term, TermAssessment]
    overall: Optional[float]

    def term_trust(self, term: Term) -> Optional[float]:
        ta = self.per_term.get(term)
        return None if ta is None else ta.term_trust

    def component_value(self, term: Term, rep_type: ReputationType) -> Optional[float]:
        c = self.component(term, rep_type)
        return None if c is None else c.value

    def component(self, term: Term, rep_type: ReputationType) -> Optional[ComponentTrust]:
        ta = self.per_term.get(term)
        if ta is None:
            return None
        for c in ta.components:
            if c.rep_type is rep_type:
                return c
        return None


def total(values: Iterable[float]) -> float:
    """Sum of ``values``, added left to right in the order given.

    Every float sum in the package goes through here or through
    ``weighted_mean``, so the rounding is the same on every Python
    version: the built-in ``sum`` compensates rounding from 3.12 on.
    """
    s = 0.0
    for v in values:
        s += v
    return s


def weighted_mean(pairs: Iterable[tuple[float, float]]) -> Optional[float]:
    """Mean of the ``(value, weight)`` pairs weighted by their weights,
    summed left to right; None when the weights sum to zero or less."""
    num = 0.0
    den = 0.0
    for v, w in pairs:
        num += w * v
        den += w
    if den <= 0.0:
        return None
    return num / den


def term_assessment(components: Iterable[ComponentTrust]) -> TermAssessment:
    """A term's components and its trust: the mean of the evidenced
    components' values weighted by their weights, None when none has
    evidence and weight."""
    comps = tuple(components)
    return TermAssessment(
        comps, weighted_mean([(c.value, c.weight) for c in comps if c.value is not None])
    )


def assessment_of_terms(
    assessor: AgentId,
    target: AgentId,
    per_term: Mapping[Term, TermAssessment],
    preferences: Preferences,
) -> Assessment:
    """An Assessment whose ``per_term`` holds one TermAssessment per
    preferred term, in declaration order.

    Terms with a None term trust are left out of the overall mean, which
    renormalises over the remaining terms. The overall score is None only
    when no evidenced term carries weight.
    """
    evidenced: list[tuple[float, float]] = []
    for term, term_weight in preferences.term_weights.items():
        tt = per_term[term].term_trust
        if tt is not None:
            evidenced.append((tt, term_weight))
    return Assessment(assessor, target, per_term, weighted_mean(evidenced))


def build_assessment(
    assessor: AgentId,
    target: AgentId,
    components_by_term: Mapping[Term, Sequence[ComponentTrust]],
    preferences: Preferences,
) -> Assessment:
    """Assemble an Assessment from per-term component trusts: each term's
    ``term_assessment``, combined by ``assessment_of_terms``. A term
    without components gets a None term trust."""
    per_term = {
        term: term_assessment(components_by_term.get(term, ()))
        for term in preferences.term_weights
    }
    return assessment_of_terms(assessor, target, per_term, preferences)
