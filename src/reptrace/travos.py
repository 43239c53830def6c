"""Beta-evidence trust backend with witness-accuracy discounting.

Trust in a provider is the expected value of a beta distribution whose
parameters count positive and negative past interactions (each side offset
by the uniform prior's 1). When the assessor's own evidence is not
confident enough, witness opinions are gathered, discounted toward the
uniform prior in proportion to each witness's historical accuracy, and
pooled with the interaction evidence by summing parameters.

For the shared multi-term structure, the pooled trust is decomposed into
an interaction component and a witness component whose weights are the
share of the final evidence mass each side contributed; the two recombine
exactly to the pooled expected value.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .core import (
    AgentId,
    Assessment,
    ComponentTrust,
    Preferences,
    Rating,
    ReputationType,
    Term,
    build_assessment,
)
from .errors import DegenerateMomentsError, NumericalFailureError
from .store import ObservationRecord, ObservationStore, RatingStore, bin_bounds, bin_of

logger = logging.getLogger(__name__)

#: Standard deviation of the uniform prior Beta(1, 1).
UNIFORM_STD = math.sqrt(1.0 / 12.0)

#: Rating values at or above this count as a successful interaction.
SUCCESS_THRESHOLD = 0.5


@dataclass(frozen=True)
class BetaParams:
    """Parameters of a beta evidence distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"beta parameters must be positive, got {self}")

    @property
    def mass(self) -> float:
        return self.alpha + self.beta

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        m = self.alpha + self.beta
        return (self.alpha * self.beta) / (m * m * (m + 1.0))

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


#: Evidence-free prior.
UNIFORM_PRIOR = BetaParams(1.0, 1.0)


@dataclass(frozen=True)
class TravosConfig:
    """Tunables: confidence half-width, witness threshold, opinion bins."""

    epsilon: float = 0.2
    confidence_threshold: float = 0.2
    bins: int = 5

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        if not 0.0 < self.confidence_threshold < 1.0:
            raise ValueError("confidence_threshold must lie in (0, 1)")
        if self.bins < 1:
            raise ValueError("bins must be positive")


@dataclass(frozen=True)
class WitnessOpinion:
    """A witness's evidence counts about a target on one term."""

    witness: AgentId
    target: AgentId
    term: Term
    params: BetaParams


def binarize_value(value: float, threshold: float = SUCCESS_THRESHOLD) -> float:
    """Collapse a [0, 1] rating to binary success / failure."""
    return 1.0 if value >= threshold else 0.0


def binarized_beta(ratings: Sequence[Rating]) -> BetaParams:
    """Beta parameters of ratings binarized at the success threshold."""
    pos = sum(1 for r in ratings if binarize_value(r.value) == 1.0)
    return BetaParams(1.0 + pos, 1.0 + (len(ratings) - pos))


#: Continued-fraction stopping tolerance and iteration cap; the fraction
#: needs O(sqrt(max(a, b))) terms, so the cap is never near for real counts.
_BETACF_EPS = sys.float_info.epsilon
_BETACF_MAXIT = 10_000
_BETACF_TINY = 1e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b) by the modified Lentz method.

    Numerical Recipes section 6.4; converges fast for x < (a+1)/(a+b+2).
    Returns NaN if it does not converge within the iteration cap.
    """
    tiny = _BETACF_TINY
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= tiny else tiny)
    h = d
    for m in range(1, _BETACF_MAXIT + 1):
        m2 = 2 * m
        # Even step, then odd step, of the fraction's coefficients.
        for coeff in (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        ):
            d = 1.0 + coeff * d
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = 1.0 + coeff / c
            c = c if abs(c) >= tiny else tiny
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= _BETACF_EPS:
            return h
    return math.nan


@functools.lru_cache(maxsize=2048)
def regularized_incomplete_beta(x: float, alpha: float, beta: float) -> float:
    """Cumulative mass of Beta(alpha, beta) below x, clipping x into [0, 1].

    Memoized: binarized counts make the arguments a few hundred distinct
    values per world. The function is pure and logs nothing, so a cache
    hit skips no side effect, and a failure is raised again on every call
    because exceptions are never cached.
    """
    x = min(1.0, max(0.0, x))
    if x == 0.0 or x == 1.0:
        result = x
    else:
        front = math.exp(
            math.lgamma(alpha + beta)
            - math.lgamma(alpha)
            - math.lgamma(beta)
            + alpha * math.log(x)
            + beta * math.log1p(-x)
        )
        if x < (alpha + 1.0) / (alpha + beta + 2.0):
            result = front * _beta_continued_fraction(alpha, beta, x) / alpha
        else:
            result = 1.0 - front * _beta_continued_fraction(beta, alpha, 1.0 - x) / beta
    if not math.isfinite(result) or not -1e-12 <= result <= 1.0 + 1e-12:
        raise NumericalFailureError(
            f"regularized incomplete beta failed for x={x}, a={alpha}, b={beta}"
        )
    return min(1.0, max(0.0, result))


def interval_mass(p: BetaParams, lo: float, hi: float) -> float:
    """Probability mass of the distribution on [lo, hi] within [0, 1]."""
    if hi < lo:
        raise ValueError("interval upper bound below lower bound")
    return regularized_incomplete_beta(hi, p.alpha, p.beta) - regularized_incomplete_beta(
        lo, p.alpha, p.beta
    )


def confidence(p: BetaParams, epsilon: float) -> float:
    """Mass within epsilon of the expected value (limits clipped to [0, 1])."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    e = p.mean
    return interval_mass(p, e - epsilon, e + epsilon)


def witness_accuracy(
    obs: Sequence[ObservationRecord], opinion_bin: int, bins: int
) -> float:
    """Accuracy of a witness whose current opinion falls in the given bin.

    The outcomes that followed the witness's similar past opinions are
    binarized and counted into a beta distribution; the accuracy is that
    distribution's mass over the bin interval. With no history this is the
    uniform prior's mass, 1 / bins.
    """
    pos = sum(1 for rec in obs if binarize_value(rec.outcome_rating) == 1.0)
    neg = len(obs) - pos
    outcome_dist = BetaParams(1.0 + pos, 1.0 + neg)
    lo, hi = bin_bounds(opinion_bin, bins)
    return interval_mass(outcome_dist, lo, hi)


def beta_from_moments(mean: float, std: float, clamp: bool = True) -> BetaParams:
    """Invert (mean, std) to beta parameters by moment matching.

    When the moments are infeasible (non-positive parameters), either
    clamps to the uniform prior with a diagnostic or raises
    DegenerateMomentsError when ``clamp`` is False.
    """
    var = std * std
    alpha = (mean * mean - mean**3) / var - mean
    beta = ((1.0 - mean) ** 2 - (1.0 - mean) ** 3) / var - (1.0 - mean)
    if alpha <= 0.0 or beta <= 0.0:
        if not clamp:
            raise DegenerateMomentsError(
                f"moment matching degenerate for mean={mean}, std={std}: "
                f"alpha={alpha}, beta={beta}"
            )
        logger.warning(
            "degenerate moment inversion (mean=%s, std=%s); clamping to uniform prior",
            mean,
            std,
        )
        return UNIFORM_PRIOR
    return BetaParams(alpha, beta)


def discount_opinion(opinion: WitnessOpinion, rho: float) -> BetaParams:
    """Shrink a witness opinion toward the uniform prior by accuracy rho.

    The opinion's expected value and standard deviation are moved linearly
    toward the uniform prior's (0.5 and sqrt(1/12)); the discounted
    parameters are recovered from the adjusted moments. rho = 0 yields the
    uniform prior, rho = 1 returns the original parameters.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    e_bar = 0.5 + rho * (opinion.params.mean - 0.5)
    s_bar = UNIFORM_STD + rho * (opinion.params.std - UNIFORM_STD)
    return beta_from_moments(e_bar, s_bar)


def combine_evidence(
    interaction: BetaParams, discounted: Sequence[BetaParams]
) -> BetaParams:
    """Pool interaction evidence with discounted witness evidence by summing."""
    return BetaParams(
        interaction.alpha + sum(d.alpha for d in discounted),
        interaction.beta + sum(d.beta for d in discounted),
    )


def decomposition_weights(
    interaction: BetaParams, discounted: Sequence[BetaParams]
) -> tuple[float, float]:
    """Evidence-mass shares (interaction, witness) of the pooled distribution."""
    witness_mass = sum(d.mass for d in discounted)
    w_i = interaction.mass / (interaction.mass + witness_mass)
    return w_i, 1.0 - w_i


@dataclass(frozen=True)
class WitnessContribution:
    """Per-witness trace of the discounting pipeline."""

    witness: AgentId
    opinion: BetaParams
    opinion_bin: int
    accuracy: float
    discounted: BetaParams


@dataclass(frozen=True)
class TravosTermResult:
    """Everything the backend derives for one (target, term) pair."""

    interaction: BetaParams
    interaction_confidence: float
    low_confidence: bool
    witnesses: tuple[WitnessContribution, ...]
    combined: BetaParams
    term_trust: float
    components: tuple[ComponentTrust, ...]

    @property
    def witness_trust(self) -> Optional[float]:
        for c in self.components:
            if c.rep_type is ReputationType.WITNESS:
                return c.value
        return None


def gather_witness_opinions(
    rating_store: RatingStore, assessor: AgentId, target: AgentId, term: Term
) -> list[WitnessOpinion]:
    """Build per-witness opinions from witness-type records about a target."""
    records = rating_store.query(target, term, ReputationType.WITNESS)
    by_witness: dict[AgentId, list[Rating]] = {}
    for r in records:
        if r.source == assessor:
            continue
        by_witness.setdefault(r.source, []).append(r)
    opinions = []
    for witness in sorted(by_witness):
        params = binarized_beta(by_witness[witness])
        opinions.append(
            WitnessOpinion(witness=witness, target=target, term=term, params=params)
        )
    return opinions


def assess_term(
    rating_store: RatingStore,
    obs_store: ObservationStore,
    assessor: AgentId,
    target: AgentId,
    term: Term,
    config: TravosConfig,
) -> TravosTermResult:
    """Run the full per-term pipeline against the assessor's stores.

    Interaction evidence always contributes. Witnesses are consulted only
    when the interaction confidence falls below the configured threshold;
    each consulted opinion is discounted by the witness's historical
    accuracy in the opinion's bin before pooling.
    """
    own = [
        r
        for r in rating_store.query(target, term, ReputationType.INTERACTION)
        if r.source == assessor
    ]
    interaction = binarized_beta(own)
    conf = confidence(interaction, config.epsilon)
    low_confidence = conf < config.confidence_threshold

    contributions: list[WitnessContribution] = []
    if low_confidence:
        for opinion in gather_witness_opinions(rating_store, assessor, target, term):
            opinion_bin = bin_of(opinion.params.mean, config.bins)
            obs = obs_store.query(
                assessor, opinion.witness, term, opinion_bin, config.bins
            )
            rho = witness_accuracy(obs, opinion_bin, config.bins)
            contributions.append(
                WitnessContribution(
                    witness=opinion.witness,
                    opinion=opinion.params,
                    opinion_bin=opinion_bin,
                    accuracy=rho,
                    discounted=discount_opinion(opinion, rho),
                )
            )

    discounted = [c.discounted for c in contributions]
    combined = combine_evidence(interaction, discounted)
    w_i, w_w = decomposition_weights(interaction, discounted)

    if discounted:
        pooled = BetaParams(
            sum(d.alpha for d in discounted), sum(d.beta for d in discounted)
        )
        witness_component = ComponentTrust(
            rep_type=ReputationType.WITNESS, value=pooled.mean, weight=w_w
        )
    else:
        witness_component = ComponentTrust(
            rep_type=ReputationType.WITNESS, value=None, weight=0.0
        )

    components = (
        ComponentTrust(
            rep_type=ReputationType.INTERACTION, value=interaction.mean, weight=w_i
        ),
        witness_component,
    )
    return TravosTermResult(
        interaction=interaction,
        interaction_confidence=conf,
        low_confidence=low_confidence,
        witnesses=tuple(contributions),
        combined=combined,
        term_trust=combined.mean,
        components=components,
    )


@dataclass(frozen=True)
class TravosTermDiagnostics:
    """Per-term extras the explanation layer needs."""

    interaction_confidence: float
    low_confidence: bool
    witness_trust: Optional[float]


@dataclass(frozen=True)
class TravosAssessment:
    """Assessment plus the diagnostics of every term's pipeline run."""

    assessment: Assessment
    term_results: Mapping[Term, TravosTermResult]

    def diagnostics(self) -> dict[Term, TravosTermDiagnostics]:
        return {
            term: TravosTermDiagnostics(
                interaction_confidence=res.interaction_confidence,
                low_confidence=res.low_confidence,
                witness_trust=res.witness_trust,
            )
            for term, res in self.term_results.items()
        }


def assess_provider(
    rating_store: RatingStore,
    obs_store: ObservationStore,
    assessor: AgentId,
    target: AgentId,
    preferences: Preferences,
    config: TravosConfig,
) -> TravosAssessment:
    """Assess one provider on every preferred term."""
    term_results: dict[Term, TravosTermResult] = {}
    components_by_term: dict[Term, tuple[ComponentTrust, ...]] = {}
    for term in preferences.terms:
        res = assess_term(rating_store, obs_store, assessor, target, term, config)
        term_results[term] = res
        components_by_term[term] = res.components
    assessment = build_assessment(assessor, target, components_by_term, preferences)
    return TravosAssessment(assessment=assessment, term_results=term_results)
