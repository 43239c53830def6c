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
import math
import sys
from typing import Mapping, NamedTuple, Optional, Sequence

from .core import (
    AgentId,
    Assessment,
    ComponentTrust,
    Preferences,
    Rating,
    ReputationType,
    Term,
    TermAssessment,
    assessment_of_terms,
    term_assessment,
    total,
)
from .store import ObservationStore, RatingStore, bin_bounds, bin_of

#: Standard deviation of the uniform prior Beta(1, 1).
UNIFORM_STD = math.sqrt(1.0 / 12.0)

#: Rating values at or above this count as a successful interaction.
SUCCESS_THRESHOLD = 0.5


class _BetaParamsFields(NamedTuple):
    alpha: float
    beta: float


class BetaParams(_BetaParamsFields):
    """Parameters of a beta evidence distribution.

    Only the constructor validates; ``_make`` and ``_replace`` skip the
    checks.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta):
        if not (alpha > 0 and beta > 0):
            raise ValueError(f"beta parameters must be positive, got {alpha!r} and {beta!r}")
        return tuple.__new__(cls, (alpha, beta))

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


class _TravosConfigFields(NamedTuple):
    epsilon: float
    confidence_threshold: float
    bins: int


class TravosConfig(_TravosConfigFields):
    """Tunables: confidence half-width, witness threshold, opinion bins.

    Only the constructor validates; ``_make`` and ``_replace`` skip the
    checks.
    """

    __slots__ = ()

    def __new__(cls, epsilon=0.2, confidence_threshold=0.2, bins=5):
        if not 0.0 < epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        if not 0.0 < confidence_threshold < 1.0:
            raise ValueError("confidence_threshold must lie in (0, 1)")
        if bins < 1:
            raise ValueError("bins must be positive")
        return tuple.__new__(cls, (epsilon, confidence_threshold, bins))


def binarize_value(value: float) -> float:
    """Collapse a [0, 1] rating to binary success / failure."""
    return 1.0 if value >= SUCCESS_THRESHOLD else 0.0


def binarized_beta(ratings: Sequence[Rating]) -> BetaParams:
    """Beta parameters of ratings binarized at the success threshold."""
    pos = 0
    for r in ratings:
        if r.value >= SUCCESS_THRESHOLD:
            pos += 1
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
        raise ValueError(
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


def witness_accuracy(n: int, successes: int, opinion_bin: int, bins: int) -> float:
    """Accuracy of a witness whose current opinion falls in the given bin.

    ``n`` outcomes followed the witness's past opinions in that bin, and
    ``successes`` of them were successful; they count into a beta
    distribution, and the accuracy is that distribution's mass over the
    bin interval. With no history this is the uniform prior's mass,
    1 / bins.
    """
    outcome_dist = BetaParams(1.0 + successes, 1.0 + (n - successes))
    lo, hi = bin_bounds(opinion_bin, bins)
    return interval_mass(outcome_dist, lo, hi)


def beta_from_moments(mean: float, std: float) -> BetaParams:
    """Invert (mean, std) to beta parameters by moment matching.

    When the moments are infeasible (non-positive parameters), clamps to
    the uniform prior and logs a warning, on every call.
    """
    params = _invert_moments(mean, std)
    if params is None:
        _log_clamp(mean, std)
        return UNIFORM_PRIOR
    return params


def _invert_moments(mean: float, std: float) -> Optional[BetaParams]:
    """``beta_from_moments`` without the clamp: None when infeasible."""
    var = std * std
    alpha = (mean * mean - mean**3) / var - mean
    beta = ((1.0 - mean) ** 2 - (1.0 - mean) ** 3) / var - (1.0 - mean)
    if alpha <= 0.0 or beta <= 0.0:
        return None
    return BetaParams(alpha, beta)


def _log_clamp(mean: float, std: float) -> None:
    """Log ``beta_from_moments``'s clamp warning."""
    import logging  # only this warning logs; most runs never import it

    logging.getLogger(__name__).warning(
        "degenerate moment inversion (mean=%s, std=%s); clamping to uniform prior",
        mean,
        std,
    )


def discount_opinion(opinion: BetaParams, rho: float) -> BetaParams:
    """Shrink a witness's opinion, its evidence counts, toward the uniform
    prior by accuracy rho.

    The opinion's expected value and standard deviation are moved linearly
    toward the uniform prior's (0.5 and sqrt(1/12)); the discounted
    parameters are recovered from the adjusted moments. rho = 0 yields the
    uniform prior, rho = 1 returns the original parameters within rounding.
    """
    return beta_from_moments(*_discounted_moments(opinion, rho))


def _discounted_moments(opinion: BetaParams, rho: float) -> tuple[float, float]:
    """The (mean, std) ``discount_opinion`` inverts."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    e_bar = 0.5 + rho * (opinion.mean - 0.5)
    s_bar = UNIFORM_STD + rho * (opinion.std - UNIFORM_STD)
    return e_bar, s_bar


def combine_evidence(
    interaction: BetaParams, discounted: Sequence[BetaParams]
) -> BetaParams:
    """Pool interaction evidence with discounted witness evidence by summing."""
    return BetaParams(
        interaction.alpha + total(d.alpha for d in discounted),
        interaction.beta + total(d.beta for d in discounted),
    )


def decomposition_weights(
    interaction: BetaParams, discounted: Sequence[BetaParams]
) -> tuple[float, float]:
    """Evidence-mass shares (interaction, witness) of the pooled distribution."""
    return _mass_shares(interaction.mass, total(d.mass for d in discounted))


def _mass_shares(interaction_mass: float, witness_mass: float) -> tuple[float, float]:
    """``decomposition_weights`` from the two evidence masses."""
    w_i = interaction_mass / (interaction_mass + witness_mass)
    return w_i, 1.0 - w_i


class WitnessContribution(NamedTuple):
    """Per-witness trace of the discounting pipeline."""

    witness: AgentId
    opinion: BetaParams
    opinion_bin: int
    accuracy: float
    discounted: BetaParams


class TravosTermResult(NamedTuple):
    """Everything the backend derives for one (target, term) pair."""

    interaction: BetaParams
    interaction_confidence: float
    low_confidence: bool
    witnesses: tuple[WitnessContribution, ...]
    components: tuple[ComponentTrust, ...]

    @property
    def witness_trust(self) -> Optional[float]:
        for c in self.components:
            if c.rep_type is ReputationType.WITNESS:
                return c.value
        return None


def gather_witness_opinions(
    rating_store: RatingStore, target: AgentId, term: Term
) -> list[tuple[AgentId, BetaParams]]:
    """Each witness's opinion of a target on one term, as ``(witness,
    params)`` pairs in witness order, from the witness-type records.

    Each witness's records are binarized as ``binarized_beta`` does.
    """
    return _opinions(rating_store.query(target, term, ReputationType.WITNESS))


def _opinions(records: Sequence[Rating]) -> list[tuple[AgentId, BetaParams]]:
    """``gather_witness_opinions`` of the records, counted in the one pass
    that groups them by witness."""
    counts: dict[AgentId, list[int]] = {}  # witness -> [n, successes]
    for r in records:
        count = counts.get(r.source)
        if count is None:
            count = counts[r.source] = [0, 0]
        count[0] += 1
        if r.value >= SUCCESS_THRESHOLD:
            count[1] += 1
    opinions = []
    for witness in sorted(counts):
        n, successes = counts[witness]
        opinions.append((witness, BetaParams(1.0 + successes, 1.0 + (n - successes))))
    return opinions


def assess_term(
    rating_store: RatingStore,
    obs_store: ObservationStore,
    target: AgentId,
    term: Term,
    config: TravosConfig,
) -> TravosTermResult:
    """Run the full per-term pipeline against the assessor's stores.

    Interaction evidence always contributes. Witnesses are consulted only
    when the interaction confidence falls below the configured threshold;
    each consulted opinion is discounted by the witness's historical
    accuracy in the opinion's bin before pooling.

    The interaction bucket keeps the term's result from its own evidence
    (``RatingStore.derived``), with its ``TermAssessment``; it is the
    whole result of a confident term. For a term of low confidence the
    witness bucket keeps the witness contributions and their pooled
    evidence per number of bins, for the last observation store the
    rating store was read with, and the two combine here. Every clamped
    discount logs its warning on every call, kept or not.
    """
    return _assessed_term(rating_store, obs_store, target, term, config)[0]


def _assessed_term(
    rating_store: RatingStore,
    obs_store: ObservationStore,
    target: AgentId,
    term: Term,
    config: TravosConfig,
) -> tuple[TravosTermResult, TermAssessment]:
    """``assess_term``'s result and the term's ``TermAssessment``."""
    own, own_assessment = rating_store.derived(
        target, term, ReputationType.INTERACTION, _interaction_result, config
    )
    if not own.low_confidence:
        return own, own_assessment
    pool = rating_store.derived(
        target, term, ReputationType.WITNESS, _witness_pool, term, obs_store, config.bins
    )
    for mean, std in pool.clamps:
        _log_clamp(mean, std)
    if not pool.contributions:
        return own, own_assessment
    interaction = own.interaction
    w_i, w_w = _mass_shares(interaction.mass, pool.mass)
    result = own._replace(
        witnesses=pool.contributions,
        components=(
            ComponentTrust(
                rep_type=ReputationType.INTERACTION, value=interaction.mean, weight=w_i
            ),
            ComponentTrust(rep_type=ReputationType.WITNESS, value=pool.trust, weight=w_w),
        ),
    )
    return result, term_assessment(result.components)


def _interaction_result(
    records: Sequence[Rating], config: TravosConfig
) -> tuple[TravosTermResult, TermAssessment]:
    """The term's result from the interaction records alone, consulting
    no witness, and its ``TermAssessment``."""
    interaction = binarized_beta(records)
    conf = confidence(interaction, config.epsilon)
    low_confidence = conf < config.confidence_threshold
    w_i, _ = decomposition_weights(interaction, ())
    result = TravosTermResult(
        interaction=interaction,
        interaction_confidence=conf,
        low_confidence=low_confidence,
        witnesses=(),
        components=(
            ComponentTrust(
                rep_type=ReputationType.INTERACTION, value=interaction.mean, weight=w_i
            ),
            ComponentTrust(rep_type=ReputationType.WITNESS, value=None, weight=0.0),
        ),
    )
    return result, term_assessment(result.components)


class _WitnessPool(NamedTuple):
    """The witness side of a term of low confidence."""

    contributions: tuple[WitnessContribution, ...]
    #: Discounted evidence mass, summed witness by witness.
    mass: float
    #: Mean of the pooled discounted evidence; None without a witness.
    trust: Optional[float]
    #: (mean, std) of each discount that clamped to the uniform prior.
    clamps: tuple[tuple[float, float], ...]


def _witness_pool(
    records: Sequence[Rating], term: Term, obs_store: ObservationStore, bins: int
) -> _WitnessPool:
    """Discount each witness's opinion in the witness records by its
    accuracy in the opinion's bin, and pool the discounted evidence."""
    contributions = []
    clamps = []
    for witness, opinion in _opinions(records):
        opinion_bin = bin_of(opinion.mean, bins)
        n, successes = obs_store.query(witness, term, opinion_bin, bins)
        rho = witness_accuracy(n, successes, opinion_bin, bins)
        moments = _discounted_moments(opinion, rho)
        discounted = _invert_moments(*moments)
        if discounted is None:
            clamps.append(moments)
            discounted = UNIFORM_PRIOR
        contributions.append(
            WitnessContribution(
                witness=witness,
                opinion=opinion,
                opinion_bin=opinion_bin,
                accuracy=rho,
                discounted=discounted,
            )
        )
    discounted = [c.discounted for c in contributions]
    trust = None
    if discounted:
        trust = BetaParams(
            total(d.alpha for d in discounted), total(d.beta for d in discounted)
        ).mean
    return _WitnessPool(
        contributions=tuple(contributions),
        mass=total(d.mass for d in discounted),
        trust=trust,
        clamps=tuple(clamps),
    )


class TravosTermDiagnostics(NamedTuple):
    """Per-term extras the explanation layer needs."""

    interaction_confidence: float
    low_confidence: bool
    witness_trust: Optional[float]


class TravosAssessment(NamedTuple):
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
    """Assess one provider on every preferred term: each term's
    ``assess_term`` result, whose ``TermAssessment`` the interaction
    bucket keeps with it for a confident term."""
    term_results: dict[Term, TravosTermResult] = {}
    per_term: dict[Term, TermAssessment] = {}
    for term in preferences.term_weights:
        term_results[term], per_term[term] = _assessed_term(
            rating_store, obs_store, target, term, config
        )
    return TravosAssessment(
        assessment=assessment_of_terms(assessor, target, per_term, preferences),
        term_results=term_results,
    )
