"""Argument generation for provider comparisons.

Given two assessments where one provider strictly outranks another, this
module selects the minimal set of arguments that justifies the ranking:

* a decisive-terms argument, either domination (better everywhere, with
  the terms that matter most) or a trade-off (a minimal pro set whose
  weighted advantage covers the unmentioned cons);
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
from .errors import (
    AmbiguousOrderError,
    InfeasibleTradeoffError,
    MissingDiagnosticsError,
    NotDominantError,
    NotPreferredError,
)
from .fire import RECENCY_TYPES
from .travos import TravosTermDiagnostics

#: Two overall scores closer than this are treated as an ambiguous order.
ORDER_TOL = 1e-9

#: Bounds nothing in this package: ``perfbench/workloads.py`` reads it to
#: size its wide-terms comparisons. It goes with the next benchmark change.
EXHAUSTIVE_TERM_LIMIT = 12

#: How far the lowest mean the preferred provider can reach under a weight
#: permutation must lie above the other's highest before
#: ``invert_permutation`` skips its search. Far above float rounding.
PERMUTATION_BOUND_MARGIN = 1e-12

_TYPE_INDEX = {k: i for i, k in enumerate(REPUTATION_ORDER)}


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


def _compared_terms(ctx: ComparisonContext) -> list[Term]:
    """Terms, in declaration order, with a trust value for both providers."""
    return [
        t
        for t in ctx.preferences.terms
        if ctx.preferred.term_trust(t) is not None
        and ctx.other.term_trust(t) is not None
    ]


def _normalized_weights(ctx: ComparisonContext, terms: Sequence[Term]) -> dict[Term, float]:
    den = total(ctx.preferences.term_weights[t] for t in terms)
    if den <= 0:
        raise NotPreferredError("all compared terms carry zero weight")
    return {t: ctx.preferences.term_weights[t] / den for t in terms}


def _weighted_differences(
    ctx: ComparisonContext, terms: Sequence[Term]
) -> tuple[dict[Term, float], dict[Term, float]]:
    """Per-term absolute trust differences and their weighted versions."""
    weights = _normalized_weights(ctx, terms)
    deltas = {
        t: abs(ctx.preferred.term_trust(t) - ctx.other.term_trust(t)) for t in terms
    }
    return deltas, {t: weights[t] * deltas[t] for t in terms}


def dominates(ctx: ComparisonContext) -> bool:
    """True iff the preferred provider is at least as good on every term
    and strictly better on at least one."""
    terms = _compared_terms(ctx)
    any_better = False
    for t in terms:
        pv = ctx.preferred.term_trust(t)
        ov = ctx.other.term_trust(t)
        if pv < ov:
            return False
        if pv > ov:
            any_better = True
    return any_better


def decisive_terms_dominance(ctx: ComparisonContext) -> DecisiveDominance:
    """Domination argument: pros whose weighted difference beats the
    equal-importance reference; falls back to the single largest."""
    if not dominates(ctx):
        raise NotDominantError(
            f"{ctx.preferred.target} does not dominate {ctx.other.target}"
        )
    terms = _compared_terms(ctx)
    deltas, weighted = _weighted_differences(ctx, terms)
    reference = (1.0 / len(terms)) * (total(deltas.values()) / len(terms))
    decl_index = {t: i for i, t in enumerate(terms)}
    pros = [t for t in terms if weighted[t] > reference]
    if not pros:
        pros = [max(terms, key=lambda t: (weighted[t], -decl_index[t]))]
    pros.sort(key=lambda t: (-weighted[t], decl_index[t]))
    return DecisiveDominance(
        pros=tuple(pros), weighted_differences=weighted, reference=reference
    )


def decisive_terms_tradeoff(ctx: ComparisonContext) -> DecisiveTradeoff:
    """Trade-off argument selection by one sort-and-prefix rule.

    Pros and cons are each ordered by weighted difference, largest first,
    ties to the earlier-declared term. If some prefix of the pros outweighs
    every con, the shortest such prefix is the answer and no con is
    mentioned. Otherwise the answer is the top pro plus the fewest largest
    cons that leave less than it unmentioned. This is the pair an exhaustive
    search over all (pro subset, con subset) pairs picks: no mentioned cons
    first, then fewest pros, fewest cons, largest selected total and
    declaration order. Each cover test is exact: the sign of one correctly
    rounded ``math.fsum``, so ties never depend on float summation order.
    """
    terms = _compared_terms(ctx)
    _, weighted = _weighted_differences(ctx, terms)

    def largest_first(pool):
        # Terms come in declaration order and sorted() is stable.
        return sorted(pool, key=lambda t: -weighted[t])

    pros = largest_first(
        t for t in terms if ctx.preferred.term_trust(t) > ctx.other.term_trust(t)
    )
    cons = largest_first(
        t for t in terms if ctx.preferred.term_trust(t) < ctx.other.term_trust(t)
    )

    def covers(n_pros: int, n_cons: int) -> bool:
        """Do the top n_pros pros outweigh all but the top n_cons cons?"""
        return math.fsum(
            [weighted[t] for t in pros[:n_pros]] + [-weighted[t] for t in cons[n_cons:]]
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
    raise InfeasibleTradeoffError(
        f"{ctx.preferred.target} is better than {ctx.other.target} on no "
        "weighted term both have evidence on"
    )


def decisive_terms(ctx: ComparisonContext) -> DecisiveDominance | DecisiveTradeoff:
    if dominates(ctx):
        return decisive_terms_dominance(ctx)
    return decisive_terms_tradeoff(ctx)


def _component_table(
    assessment: Assessment, term: Term
) -> dict[ReputationType, tuple[float, float]]:
    """Present components of one term as {type: (value, weight)}."""
    out = {}
    ta = assessment.per_term.get(term)
    if ta is None:
        return out
    for c in ta.components:
        if c.value is not None:
            out[c.rep_type] = (c.value, c.weight)
    return out


def _recombine(
    table: Mapping[ReputationType, tuple[float, float]],
    perm: Mapping[ReputationType, ReputationType],
) -> float:
    """Weighted mean of the table's values after each type takes the weight
    of its image under ``perm``; types ``perm`` does not name keep theirs.
    The table is a compared term's, so its weights have a positive sum."""
    return weighted_mean((v, table[perm.get(k, k)][1]) for k, (v, _) in table.items())


def _cycle_swaps(
    perm: Mapping[ReputationType, ReputationType]
) -> list[tuple[ReputationType, ReputationType]]:
    """Decompose a permutation into sequential pairwise swaps."""
    seen: set[ReputationType] = set()
    swaps: list[tuple[ReputationType, ReputationType]] = []
    for start in sorted(perm, key=lambda k: _TYPE_INDEX[k]):
        if start in seen or perm[start] is start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt is not start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        for a, b in zip(cycle, cycle[1:]):
            swaps.append((a, b))
    return swaps


@functools.cache
def _permutations_by_swaps(shared: tuple[ReputationType, ...]) -> tuple[tuple, ...]:
    """Non-identity permutations of ``shared`` as (perm, swaps), grouped by
    swap count, fewest first; each group is in canonical swap order."""
    groups: list[list] = [[] for _ in shared[1:]]
    for image in itertools.permutations(shared):
        perm = dict(zip(shared, image))
        swaps = tuple(_cycle_swaps(perm))
        if swaps:
            groups[len(swaps) - 1].append((perm, swaps))
    return tuple(
        tuple(sorted(g, key=lambda c: [(_TYPE_INDEX[a], _TYPE_INDEX[b]) for a, b in c[1]]))
        for g in groups
    )


def _settled_by_bound(
    pref_table: Mapping[ReputationType, tuple[float, float]],
    other_table: Mapping[ReputationType, tuple[float, float]],
    shared: Sequence[ReputationType],
) -> bool:
    """True when no permutation of the shared types' weights can bring the
    preferred mean below the other's.

    By the rearrangement inequality the preferred mean is lowest with its
    shared values ascending against its shared weights descending, and the
    other mean highest with both ascending; the weight sums do not change.
    Values lie in [0, 1] and each sum has at most four non-negative terms,
    so every computed mean is within about 1e-15 of its exact value while
    the weight sum is neither subnormal nor near overflow. A lowest mean
    more than ``PERMUTATION_BOUND_MARGIN`` above the highest one therefore
    settles the search for the computed means as well.
    """

    def extreme_mean(table, descending):
        values = sorted(table[k][0] for k in shared)
        weights = sorted((table[k][1] for k in shared), reverse=descending)
        fixed = [(v, w) for k, (v, w) in table.items() if k not in shared]
        den = total(w for _, w in table.values())
        if not 1e-300 <= den <= 1e300:
            return math.nan  # rounding is unbounded here: never settle
        return total(w * v for v, w in [*zip(values, weights), *fixed]) / den

    lowest = extreme_mean(pref_table, descending=True)
    highest = extreme_mean(other_table, descending=False)
    return lowest - highest > PERMUTATION_BOUND_MARGIN


def invert_permutation(
    ctx: ComparisonContext, term: Term
) -> Optional[TypePermutation]:
    """Search for weight swaps among reputation types flipping this term.

    Returns None when the preferred provider already dominates at the
    component level (no further justification needed) or when no
    permutation of the shared types' component weights reverses the
    term-trust order. Each provider's weights are permuted the same way;
    components the other provider lacks keep their weights.

    Among inverting permutations the fewest swaps win; ties prefer the
    largest total weight gap across swapped pairs, measured on the
    preferred provider's weights, then canonical type order. The search
    first applies a rearrangement bound (see ``_settled_by_bound``), which
    returns None without enumerating when no permutation can invert. It
    then tries one swap, then two, then three, and stops at the first
    swap count with an inverting permutation.
    """
    pref_table = _component_table(ctx.preferred, term)
    other_table = _component_table(ctx.other, term)
    shared = tuple(k for k in REPUTATION_ORDER if k in pref_table and k in other_table)
    if len(shared) < 2:
        return None

    any_better = any(pref_table[k][0] > other_table[k][0] for k in shared)
    any_worse = any(pref_table[k][0] < other_table[k][0] for k in shared)
    if any_better and not any_worse:
        return None  # component-level domination: decisive term is enough
    if _settled_by_bound(pref_table, other_table, shared):
        return None

    def gap(candidate):
        return total(abs(pref_table[a][1] - pref_table[b][1]) for a, b in candidate[1])

    for group in _permutations_by_swaps(shared):
        # Largest gap first; sorted() is stable, so canonical order breaks ties.
        for perm, swaps in sorted(group, key=gap, reverse=True):
            pref_swapped = _recombine(pref_table, perm)
            other_swapped = _recombine(other_table, perm)
            if pref_swapped < other_swapped:
                return TypePermutation(
                    term=term,
                    swaps=tuple(
                        (a, b) if pref_table[a][1] >= pref_table[b][1] else (b, a)
                        for a, b in swaps
                    ),
                    preferred_original=_recombine(pref_table, {}),
                    other_original=_recombine(other_table, {}),
                    preferred_swapped=pref_swapped,
                    other_swapped=other_swapped,
                )
    return None


def _require_fire_diagnostics(ctx: ComparisonContext) -> FireDiagnostics:
    if ctx.fire_diagnostics is None:
        raise MissingDiagnosticsError(
            "recency arguments need uniform-weight baseline assessments"
        )
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
        raise MissingDiagnosticsError(
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
        raise AmbiguousOrderError(
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

    if ctx.model is Model.FIRE:
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
        if ctx.model is Model.TRAVOS:
            arg = travos_low_confidence(ctx, term)
            if arg is not None:
                arguments.append(arg)
        if ctx.model is Model.FIRE:
            for rep_type in RECENCY_TYPES:
                arg = fire_recency_local(ctx, term, rep_type)
                if arg is not None:
                    arguments.append(arg)

    return Explanation(
        assessor=ctx.assessor,
        preferred=ctx.preferred.target,
        other=ctx.other.target,
        arguments=tuple(arguments),
        model=ctx.model,
    )
