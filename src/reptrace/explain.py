"""Argument generation for provider comparisons.

Given two assessments where one provider strictly outranks another, this
module selects the minimal set of arguments that justifies the ranking:

* a decisive-terms argument, chosen by ``decisive_terms`` from one pass
  over the terms both providers have a trust on: domination (better on
  some of them and worse on none, with the terms that matter most) or
  a trade-off (a minimal pro set whose weighted advantage covers the
  unmentioned cons);
* per decisive term, an optional weight-permutation argument showing that
  the component importance ordering was itself decisive;
* model-specific arguments: ranking flips caused by recency weighting,
  and witness-driven rankings under low interaction confidence.

Term weights are normalised internally so the reference weight 1/|T| used
by the domination rule is on the same scale as the actual weights.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .core import (
    AgentId,
    Assessment,
    Preferences,
    ReputationType,
    REPUTATION_ORDER,
    Term,
    total,
    weighted_mean,
)
from .errors import NotPreferredError
from .fire import RECENCY_TYPES
from .travos import TravosTermDiagnostics

#: Two overall scores at most this far apart are tied.
ORDER_TOL = 1e-9

#: Bounds nothing in this package: ``perfbench/workloads.py`` reads it to
#: size its wide-terms comparisons. It goes with the next benchmark change.
EXHAUSTIVE_TERM_LIMIT = 12

#: How far from zero a weight permutation's score table must put it, or put
#: the lower bound of every permutation, before ``invert_permutation``
#: decides from the table alone. Far above float rounding.
PERMUTATION_BOUND_MARGIN = 1e-12

class Model(Enum):
    FIRE = "fire"
    TRAVOS = "travos"


class FireDiagnostics(NamedTuple):
    """Uniform-weight baseline assessments for both providers."""

    uniform_preferred: Assessment
    uniform_other: Assessment


class TravosDiagnostics(NamedTuple):
    """Interaction confidences and witness trusts per provider and term."""

    threshold: float
    preferred: Mapping[Term, TravosTermDiagnostics]
    other: Mapping[Term, TravosTermDiagnostics]


class ComparisonContext(NamedTuple):
    """Inputs of one explanation: the two assessments plus model extras."""

    assessor: AgentId
    preferred: Assessment
    other: Assessment
    preferences: Preferences
    model: Optional[Model] = None
    fire_diagnostics: Optional[FireDiagnostics] = None
    travos_diagnostics: Optional[TravosDiagnostics] = None


class DecisiveDominance(NamedTuple):
    """Domination case: pros that matter most, never any cons."""

    kind = "decisive_dominance"
    pros: tuple[Term, ...]
    weighted_differences: Mapping[Term, float]
    reference: float


class DecisiveTradeoff(NamedTuple):
    """Trade-off case: minimal pros covering the unmentioned cons."""

    kind = "decisive_tradeoff"
    pros: tuple[Term, ...]
    cons: tuple[Term, ...]
    weighted_differences: Mapping[Term, float]


class TypePermutation(NamedTuple):
    """Weight swaps among reputation types that would flip a term trust."""

    kind = "type_permutation"
    term: Term
    swaps: tuple[tuple[ReputationType, ReputationType], ...]
    preferred_original: float
    other_original: float
    preferred_swapped: float
    other_swapped: float


class FireRecencyGlobal(NamedTuple):
    """Overall ranking that uniform rating weights would reverse."""

    kind = "recency_overall"
    preferred_overall: float
    other_overall: float
    uniform_preferred_overall: float
    uniform_other_overall: float


class FireRecencyLocal(NamedTuple):
    """Component trust ordering that uniform rating weights would reverse."""

    kind = "recency_component"
    term: Term
    rep_type: ReputationType
    preferred_value: float
    other_value: float
    uniform_preferred_value: float
    uniform_other_value: float


class TravosLowConfidence(NamedTuple):
    """Witness evidence decided this term under scarce own experience."""

    kind = "low_confidence"
    term: Term
    preferred_confidence: float
    other_confidence: float
    preferred_witness_trust: float
    other_witness_trust: float
    threshold: float


#: Every argument kind, in document schema order. Each class's ``kind`` is
#: its tag in explanation documents; its ``_fields``, in order, are the keys.
#: ``kind`` is a plain class attribute: an annotated one would be a field.
ARGUMENT_KINDS = (
    DecisiveDominance,
    DecisiveTradeoff,
    TypePermutation,
    FireRecencyGlobal,
    FireRecencyLocal,
    TravosLowConfidence,
)

Argument = Union[ARGUMENT_KINDS]


class Explanation(NamedTuple):
    """Ordered argument list justifying one pairwise ranking."""

    assessor: AgentId
    preferred: AgentId
    other: AgentId
    arguments: tuple[Argument, ...]
    model: Optional[Model] = None


def decisive_terms_tradeoff(
    pros: Sequence[Term], cons: Sequence[Term], weighted: Mapping[Term, float]
) -> Optional[DecisiveTradeoff]:
    """Trade-off argument selection by one sort-and-prefix rule.

    ``pros`` and ``cons`` come from ``decisive_terms``, each ordered by
    weighted difference, largest first, ties to the earlier-declared term.
    If some prefix of the pros outweighs every con, the shortest such
    prefix is the answer and no con is mentioned. Otherwise the answer is
    the top pro plus the fewest largest cons that leave less than it
    unmentioned, or None when even all the cons leave it nothing to cover.
    This is the pair an exhaustive search over all (pro subset, con
    subset) pairs picks: no mentioned cons first, then fewest pros, fewest
    cons, largest selected total and declaration order. Each cover test is
    exact: the sign of one correctly rounded ``math.fsum``, so ties never
    depend on float summation order.
    """

    gains = [weighted[t] for t in pros]
    losses = [-weighted[t] for t in cons]

    def covers(n_pros: int, n_cons: int) -> bool:
        """Do the top n_pros pros outweigh all but the top n_cons cons?"""
        return math.fsum(
            gains[:n_pros] + losses[n_cons:]
        ) > 0

    for k in range(1, len(pros) + 1):
        if covers(k, 0):
            return DecisiveTradeoff(
                pros=tuple(pros[:k]), cons=(), weighted_differences=weighted
            )
    for m in range(1, len(cons) + 1):
        if covers(1, m):
            return DecisiveTradeoff(
                pros=tuple(pros[:1]), cons=tuple(cons[:m]), weighted_differences=weighted
            )
    return None


def decisive_terms(ctx: ComparisonContext) -> DecisiveDominance | DecisiveTradeoff:
    """The decisive-terms argument, from one comparison of the providers.

    The compared terms are the declared terms on which both providers
    have a term trust, in declaration order; each provider's term trust
    is read once per term. A compared term's weighted difference is the
    absolute difference of the two trusts times the term's weight over
    the compared terms' weight sum. The pros are the terms on which the
    preferred provider is better, the cons those on which it is worse,
    each ordered by weighted difference, largest first, ties to the
    earlier-declared term.

    Pros and no cons is domination: the argument names the pros whose
    weighted difference exceeds the equal-importance reference, 1/|T|
    times the mean absolute difference over the |T| compared terms, or
    failing that the pro with the largest weighted difference, the
    earliest declared among equals. Otherwise ``decisive_terms_tradeoff``
    picks the trade-off. Raises NotPreferredError when the compared terms
    carry no weight, or when no pro outweighs what it leaves unmentioned.
    """
    weights = ctx.preferences.term_weights
    pref_trust, other_trust = ctx.preferred.term_trust, ctx.other.term_trust
    trusts = [(t, pref_trust(t), other_trust(t)) for t in weights]
    trusts = [(t, pv, ov) for t, pv, ov in trusts if pv is not None and ov is not None]
    den = total([weights[t] for t, _, _ in trusts])
    if den <= 0:
        raise NotPreferredError("all compared terms carry zero weight")
    deltas = [abs(pv - ov) for _, pv, ov in trusts]
    weighted = {t: weights[t] / den * d for (t, _, _), d in zip(trusts, deltas)}

    def largest_first(pool):
        # Terms come in declaration order, and sorted() keeps equal keys in
        # their given order, reversed or not.
        return sorted(pool, key=weighted.__getitem__, reverse=True)

    pros = largest_first(t for t, pv, ov in trusts if pv > ov)
    cons = largest_first(t for t, pv, ov in trusts if pv < ov)
    if pros and not cons:
        n = len(trusts)
        reference = (1.0 / n) * (total(deltas) / n)
        decisive = [t for t in pros if weighted[t] > reference]
        return DecisiveDominance(
            pros=tuple(decisive or pros[:1]),
            weighted_differences=weighted,
            reference=reference,
        )
    tradeoff = decisive_terms_tradeoff(pros, cons, weighted)
    if tradeoff is None:
        raise NotPreferredError(
            f"{ctx.preferred.target} is better than {ctx.other.target} on no "
            "weighted term both have evidence on"
        )
    return tradeoff


def _component_table(
    assessment: Assessment, term: Term
) -> dict[ReputationType, tuple[float, float]]:
    """Present components of one term as {type: (value, weight)}, in
    component order."""
    ta = assessment.per_term.get(term)
    if ta is None:
        return {}
    return {k: (v, w) for k, v, w in ta.components if v is not None}


def _recombine(
    table: Mapping[ReputationType, tuple[float, float]],
    shared: Sequence[ReputationType],
    weights: Sequence[float],
    image: Sequence[int],
) -> float:
    """Weighted mean of a component table's values, in component order,
    after each shared type ``shared[j]`` takes the weight
    ``weights[image[j]]``; the other types keep theirs. The table's
    weights have a positive sum."""
    permuted = dict(table)
    for k, i in zip(shared, image):
        permuted[k] = (table[k][0], weights[i])
    return weighted_mean(permuted.values())


@functools.cache
def _candidates(n: int) -> tuple[tuple, ...]:
    """Non-identity permutations of ``range(n)`` as (image, swaps), grouped
    by swap count, fewest first; each group is in canonical swap order.

    Each cycle, from its smallest index ``s``, becomes the sequential
    swaps (s, image[s]), (image[s], image[image[s]]), ... .
    """
    groups: list[list] = [[] for _ in range(n - 1)]
    for image in itertools.permutations(range(n)):
        seen = [False] * n
        swaps = []
        for start in range(n):
            a = start
            while not seen[a]:
                seen[a] = True
                if image[a] != start:
                    swaps.append((a, image[a]))
                a = image[a]
        if swaps:
            groups[len(swaps) - 1].append((image, tuple(swaps)))
    return tuple(tuple(sorted(g, key=lambda c: c[1])) for g in groups)


@functools.cache
def _pickers(n: int) -> tuple:
    """Getters over a row-major n×n score table: one for its rows, one for
    its columns, and for each swap-count group of ``_candidates(n)`` one
    per candidate, taking the entries (j, image[j]), next to the group."""
    rows = operator.itemgetter(*[slice(j * n, j * n + n) for j in range(n)])
    columns = operator.itemgetter(*[slice(k, None, n) for k in range(n)])

    def picker(image):
        return operator.itemgetter(*[j * n + k for j, k in enumerate(image)])

    groups = tuple(
        (tuple(picker(image) for image, _ in group), group) for group in _candidates(n)
    )
    return rows, columns, groups


def invert_permutation(
    ctx: ComparisonContext, term: Term
) -> Optional[TypePermutation]:
    """Search for weight swaps among reputation types flipping this term.

    Returns None when the preferred provider already dominates at the
    component level (no further justification needed), when either
    provider's present components on the term all weigh zero (it has no
    term trust to invert), or when no permutation of the shared types'
    component weights reverses the term-trust order. Each provider's
    weights are permuted the same way; components the other provider lacks
    keep their weights.

    Among inverting permutations the fewest swaps win; ties prefer the
    largest total weight gap across swapped pairs, measured on the
    preferred provider's weights, then canonical type order.

    The preferred mean minus the other's is linear in the permutation, so
    one table scores every candidate. Over the n shared types in canonical
    order, with values p and o, weights w and v and weight sums W_p and
    W_o, ``C[j][k] = p[j]·w[k]/W_p − o[j]·v[k]/W_o``; a permutation
    ``image`` scores ``offset + Σ_j C[j][image[j]]``, the offset holding
    the unshared components. Values lie in [0, 1] and weights are
    non-negative, so while both sums lie in [1e-300, 1e300] every entry,
    score and recombined mean is within a few ulp of its exact value. A
    score above ``PERMUTATION_BOUND_MARGIN`` therefore cannot invert, and
    one below its negative does. Only the candidates within the margin,
    and the answer, are recombined (see ``_recombine``); with a sum
    outside that range, every candidate is. The offset plus the row
    minima, or plus the column minima, bounds every score from below:
    either above the margin settles the search before any candidate.

    Candidates come from one cached table per n (see ``_candidates`` and
    ``_pickers``). Only the answer's swaps are mapped back to reputation
    types.
    """
    pref_table = _component_table(ctx.preferred, term)
    other_table = _component_table(ctx.other, term)
    shared = [k for k in REPUTATION_ORDER if k in pref_table and k in other_table]
    n = len(shared)
    if n < 2:
        return None
    of_shared = operator.itemgetter(*shared)
    pref_values, pref_weights = zip(*of_shared(pref_table))
    other_values, other_weights = zip(*of_shared(other_table))
    if any(map(operator.gt, pref_values, other_values)) and not any(
        map(operator.lt, pref_values, other_values)
    ):
        return None  # component-level domination: decisive term is enough
    pref_sum = total([w for _, w in pref_table.values()])
    other_sum = total([w for _, w in other_table.values()])
    if pref_sum <= 0 or other_sum <= 0:
        return None  # a side without term trust: nothing to invert
    if 1e-300 <= pref_sum <= 1e300 and 1e-300 <= other_sum <= 1e300:
        margin = PERMUTATION_BOUND_MARGIN
    else:
        margin = math.inf  # rounding is unbounded: every candidate is recombined

    pref_shares = [w / pref_sum for w in pref_weights]
    other_shares = [v / other_sum for v in other_weights]
    table = [
        p * w - o * v
        for p, o in zip(pref_values, other_values)
        for w, v in zip(pref_shares, other_shares)
    ]
    offset = 0.0  # what the components of unshared types add to every score
    if len(pref_table) > n or len(other_table) > n:
        offset = math.fsum(
            [v * (w / pref_sum) for k, (v, w) in pref_table.items() if k not in other_table]
            + [-v * (w / other_sum) for k, (v, w) in other_table.items() if k not in pref_table]
        )
    rows, columns, groups = _pickers(n)
    bound = max(math.fsum(map(min, rows(table))), math.fsum(map(min, columns(table))))
    if offset + bound > margin:
        return None

    for picks, group in groups:
        scores = [offset + math.fsum(pick(table)) for pick in picks]
        if min(scores) > margin:
            continue
        best = None
        for score, (image, swaps) in zip(scores, group):
            if score > margin or not score < -margin and not (
                _recombine(pref_table, shared, pref_weights, image)
                < _recombine(other_table, shared, other_weights, image)
            ):
                continue
            gap = total([abs(pref_weights[a] - pref_weights[b]) for a, b in swaps])
            if best is None or gap > best[0]:
                best = gap, image, swaps
        if best is not None:
            _, image, swaps = best
            return TypePermutation(
                term=term,
                swaps=tuple([
                    (shared[a], shared[b])
                    if pref_weights[a] >= pref_weights[b]
                    else (shared[b], shared[a])
                    for a, b in swaps
                ]),
                preferred_original=weighted_mean(pref_table.values()),
                other_original=weighted_mean(other_table.values()),
                preferred_swapped=_recombine(pref_table, shared, pref_weights, image),
                other_swapped=_recombine(other_table, shared, other_weights, image),
            )
    return None


def _require_fire_diagnostics(ctx: ComparisonContext) -> FireDiagnostics:
    if ctx.fire_diagnostics is None:
        raise ValueError("recency arguments need uniform-weight baseline assessments")
    return ctx.fire_diagnostics


def fire_recency_global(ctx: ComparisonContext) -> Optional[FireRecencyGlobal]:
    """Argument emitted when uniform weighting would reverse the overall order."""
    diag = _require_fire_diagnostics(ctx)
    po, oo = ctx.preferred.overall, ctx.other.overall
    up, uo = diag.uniform_preferred.overall, diag.uniform_other.overall
    if po is None or oo is None or up is None or uo is None:
        return None
    if po > oo and up < uo:
        return FireRecencyGlobal(
            preferred_overall=po,
            other_overall=oo,
            uniform_preferred_overall=up,
            uniform_other_overall=uo,
        )
    return None


def fire_recency_local(
    ctx: ComparisonContext, term: Term, rep_type: ReputationType
) -> Optional[FireRecencyLocal]:
    """Per-component recency conflict; applies to recency-weighted types only."""
    diag = _require_fire_diagnostics(ctx)
    if rep_type not in RECENCY_TYPES:
        return None
    pv = ctx.preferred.component_value(term, rep_type)
    ov = ctx.other.component_value(term, rep_type)
    up = diag.uniform_preferred.component_value(term, rep_type)
    uo = diag.uniform_other.component_value(term, rep_type)
    if pv is None or ov is None or up is None or uo is None:
        return None
    if pv > ov and up < uo:
        return FireRecencyLocal(
            term=term,
            rep_type=rep_type,
            preferred_value=pv,
            other_value=ov,
            uniform_preferred_value=up,
            uniform_other_value=uo,
        )
    return None


def travos_low_confidence(
    ctx: ComparisonContext, term: Term
) -> Optional[TravosLowConfidence]:
    """Argument emitted when witnesses decided a term under low confidence."""
    if ctx.travos_diagnostics is None:
        raise ValueError(
            "low-confidence arguments need interaction confidences and witness trusts"
        )
    diag = ctx.travos_diagnostics
    dp = diag.preferred.get(term)
    do = diag.other.get(term)
    if dp is None or do is None:
        return None
    below = (
        dp.interaction_confidence < diag.threshold
        or do.interaction_confidence < diag.threshold
    )
    if not below:
        return None
    if dp.witness_trust is None or do.witness_trust is None:
        return None
    if dp.witness_trust > do.witness_trust:
        return TravosLowConfidence(
            term=term,
            preferred_confidence=dp.interaction_confidence,
            other_confidence=do.interaction_confidence,
            preferred_witness_trust=dp.witness_trust,
            other_witness_trust=do.witness_trust,
            threshold=diag.threshold,
        )
    return None


def _check_order(ctx: ComparisonContext) -> None:
    po, oo = ctx.preferred.overall, ctx.other.overall
    if po is None or oo is None:
        raise NotPreferredError("cannot explain a comparison with missing overall scores")
    if abs(po - oo) <= ORDER_TOL:
        raise NotPreferredError(
            f"{ctx.preferred.target} and {ctx.other.target} are tied "
            f"({po:.6f} vs {oo:.6f})"
        )
    if po < oo:
        raise NotPreferredError(
            f"{ctx.other.target} ({oo:.6f}) actually outranks "
            f"{ctx.preferred.target} ({po:.6f})"
        )


def explain(ctx: ComparisonContext) -> Explanation:
    """Assemble the full argument list for one pairwise comparison.

    The decisive-terms argument always comes first, followed by any
    model-global argument, then per decisive pro (in term declaration
    order) the permutation argument, model-specific term arguments and
    model-specific component arguments.
    """
    _check_order(ctx)
    decisive = decisive_terms(ctx)
    arguments: list[Argument] = [decisive]
    model = ctx.model

    if model is Model.FIRE:
        arg = fire_recency_global(ctx)
        if arg is not None:
            arguments.append(arg)

    pros = set(decisive.pros)
    for term in ctx.preferences.terms:
        if term not in pros:
            continue
        perm = invert_permutation(ctx, term)
        if perm is not None:
            arguments.append(perm)
        if model is Model.TRAVOS:
            arg = travos_low_confidence(ctx, term)
            if arg is not None:
                arguments.append(arg)
        if model is Model.FIRE:
            for rep_type in RECENCY_TYPES:
                arg = fire_recency_local(ctx, term, rep_type)
                if arg is not None:
                    arguments.append(arg)

    return Explanation(
        assessor=ctx.assessor,
        preferred=ctx.preferred.target,
        other=ctx.other.target,
        arguments=tuple(arguments),
        model=model,
    )
