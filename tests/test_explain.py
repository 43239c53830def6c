"""Argument selection: decisive terms, weight swaps, model arguments."""

import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from oracles import (
    any_inverting_permutation,
    decisive_terms_oracle,
    permutation_oracle,
    tradeoff_oracle,
)
import reptrace
import reptrace.explain as explain_module
from reptrace import fixture
from reptrace.core import (
    REPUTATION_ORDER,
    ComponentTrust,
    Preferences,
    Rating,
    ReputationType,
    build_assessment,
)
from reptrace.errors import NotPreferredError
from reptrace.explain import (
    ComparisonContext,
    DecisiveDominance,
    DecisiveTradeoff,
    FireDiagnostics,
    FireRecencyGlobal,
    FireRecencyLocal,
    Model,
    TravosDiagnostics,
    TravosLowConfidence,
    TypePermutation,
    decisive_terms,
    decisive_terms_tradeoff,
    explain,
    fire_recency_global,
    fire_recency_local,
    invert_permutation,
    travos_low_confidence,
)
from reptrace.fire import FireConfig, assess_provider as assess_fire
from reptrace.pipeline import dump_document, explanation_to_document
from reptrace.store import RatingStore
from reptrace.travos import TravosTermDiagnostics

I = ReputationType.INTERACTION
W = ReputationType.WITNESS
ROLE = ReputationType.ROLE_BASED
CERT = ReputationType.CERTIFIED


def context_from_values(
    preferred_values, other_values, term_weights, component_weights=None
):
    """Build a two-provider context from injected component trusts.

    Values are {term: {rep_type: (value, weight)}} or {term: value} for a
    single-interaction-component shorthand.
    """
    component_weights = component_weights or {I: 1.0}
    prefs = Preferences(term_weights=term_weights, component_weights=component_weights)

    def to_assessment(target, values):
        comps = {}
        for term, spec in values.items():
            if isinstance(spec, dict):
                comps[term] = [
                    ComponentTrust(k, v, weight=w) for k, (v, w) in spec.items()
                ]
            else:
                comps[term] = [ComponentTrust(I, spec, weight=1.0)]
        return build_assessment("a", target, comps, prefs)

    return ComparisonContext(
        assessor="a",
        preferred=to_assessment("b", preferred_values),
        other=to_assessment("b2", other_values),
        preferences=prefs,
    )


def decisive(ctx, kind):
    """``decisive_terms(ctx)``, which must be a ``kind`` argument."""
    arg = decisive_terms(ctx)
    assert isinstance(arg, kind), arg
    return arg


class TestDominates:
    def test_running_example_pairs(self):
        decisive(fixture.comparison("B", "C"), DecisiveDominance)
        decisive(fixture.comparison("B", "D"), DecisiveTradeoff)

    def test_identical_term_trusts(self):
        # No pro and no con: neither domination nor a trade-off.
        ctx = context_from_values({"q": 0.5}, {"q": 0.5}, {"q": 1.0})
        with pytest.raises(NotPreferredError, match="better than b2 on no weighted term"):
            decisive_terms(ctx)

    def test_ties_allowed(self):
        ctx = context_from_values(
            {"q": 0.5, "t": 0.7}, {"q": 0.5, "t": 0.6}, {"q": 0.5, "t": 0.5}
        )
        decisive(ctx, DecisiveDominance)


class TestDominance:
    def test_running_example(self):
        arg = decisive(fixture.comparison("B", "C"), DecisiveDominance)
        assert arg.pros == ("quality", "timeliness")
        assert arg.reference == pytest.approx(0.139, abs=0.001)
        assert arg.weighted_differences["quality"] == pytest.approx(0.28125, abs=1e-9)
        assert arg.weighted_differences["timeliness"] == pytest.approx(0.14, abs=1e-9)
        assert arg.weighted_differences["cost"] == pytest.approx(0.045, abs=1e-9)

    def test_non_dominating_pair_gets_tradeoff(self):
        arg = decisive(fixture.comparison("B", "D"), DecisiveTradeoff)
        assert arg.pros == ("quality",)

    def test_single_term(self):
        ctx = context_from_values({"q": 0.9}, {"q": 0.1}, {"q": 1.0})
        arg = decisive(ctx, DecisiveDominance)
        assert arg.pros == ("q",)

    def test_fallback_when_everything_is_average(self):
        # Equal weights and equal differences: nothing exceeds the
        # reference strictly, the largest (first declared) term wins.
        ctx = context_from_values(
            {"q": 0.6, "t": 0.6}, {"q": 0.4, "t": 0.4}, {"q": 0.5, "t": 0.5}
        )
        arg = decisive(ctx, DecisiveDominance)
        assert arg.pros == ("q",)

    def test_fallback_names_a_pro(self):
        # The providers are equal on a, and b, the one pro, weighs 0, so
        # both weighted differences are 0 and none beats the reference:
        # the fallback must name the pro b, never a. c is not compared.
        ctx = context_from_values(
            {"a": 0.5, "b": 0.9, "c": 0.9}, {"a": 0.5, "b": 0.1},
            {"a": 1.0, "b": 0.0, "c": 1.0},
        )
        arg = decisive(ctx, DecisiveDominance)
        assert arg.weighted_differences == {"a": 0.0, "b": 0.0}
        assert arg.pros == ("b",)

    @pytest.mark.parametrize(
        "declared", [("q", "t", "c"), ("t", "q", "c"), ("c", "t", "q")]
    )
    def test_equal_differences_pick_earlier_declared_term(self, declared):
        # q and t tie above the reference; c is average. Equal weighted
        # differences keep declaration order, whatever the term names.
        above = context_from_values(
            {"q": 0.75, "t": 0.75, "c": 0.5}, {"q": 0.25, "t": 0.25, "c": 0.5},
            {term: 1.0 for term in declared},
        )
        assert decisive(above, DecisiveDominance).pros == tuple(
            t for t in declared if t != "c"
        )
        # All three tie at the reference, so the single-largest fallback
        # picks the first-declared term.
        fallback = context_from_values(
            {"q": 0.75, "t": 0.75, "c": 0.75}, {"q": 0.25, "t": 0.25, "c": 0.25},
            {term: 1.0 for term in declared},
        )
        assert decisive(fallback, DecisiveDominance).pros == declared[:1]

    def test_delta_scale_invariance(self):
        # Scaling every difference by a constant keeps the selection.
        base = context_from_values(
            {"q": 0.8, "t": 0.55, "c": 0.52}, {"q": 0.4, "t": 0.5, "c": 0.5},
            {"q": 0.2, "t": 0.5, "c": 0.3},
        )
        shrunk = context_from_values(
            {"q": 0.6, "t": 0.525, "c": 0.51}, {"q": 0.4, "t": 0.5, "c": 0.5},
            {"q": 0.2, "t": 0.5, "c": 0.3},
        )
        assert (
            decisive(base, DecisiveDominance).pros
            == decisive(shrunk, DecisiveDominance).pros
        )


class TestTradeoff:
    def test_running_example(self):
        arg = decisive(fixture.comparison("B", "D"), DecisiveTradeoff)
        assert arg.pros == ("quality",)
        assert arg.cons == ()

    def test_single_insufficient_pro_pulls_in_second(self):
        # Two pros (0.05, 0.04) against one con (0.08): no single pro
        # covers the con, and mentioning the con would leave nothing to
        # outweigh, so both pros are needed with no cons mentioned.
        ctx = context_from_values(
            {"p1": 0.55, "p2": 0.54, "c1": 0.42},
            {"p1": 0.50, "p2": 0.50, "c1": 0.50},
            {"p1": 1.0, "p2": 1.0, "c1": 1.0},
        )
        arg = decisive(ctx, DecisiveTradeoff)
        oracle = tradeoff_oracle(
            ["p1", "p2"],
            ["c1"],
            arg.weighted_differences,
            ["p1", "p2", "c1"],
        )
        assert (arg.pros, arg.cons) == oracle
        assert arg.pros == ("p1", "p2")
        assert arg.cons == ()

    def test_sum_condition_holds(self):
        ctx = fixture.comparison("B", "E")
        arg = decisive(ctx, DecisiveTradeoff)
        unmentioned = [
            t
            for t in fixture.TERMS
            if ctx.preferred.term_trust(t) < ctx.other.term_trust(t)
            and t not in arg.cons
        ]
        pro_sum = sum(arg.weighted_differences[t] for t in arg.pros)
        con_sum = sum(arg.weighted_differences[t] for t in unmentioned)
        assert pro_sum > con_sum

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            terms = [f"t{i}" for i in range(n)]
            weights = {t: float(rng.uniform(0.05, 1.0)) for t in terms}
            pref = {t: float(rng.uniform(0, 1)) for t in terms}
            other = {t: float(rng.uniform(0, 1)) for t in terms}
            ctx = context_from_values(pref, other, weights)
            po, oo = ctx.preferred.overall, ctx.other.overall
            if po is None or oo is None or po <= oo:
                continue
            arg = decisive_terms(ctx)
            if isinstance(arg, DecisiveDominance):
                continue
            pros_pool = [t for t in terms if pref[t] > other[t]]
            cons_pool = [t for t in terms if pref[t] < other[t]]
            oracle = tradeoff_oracle(
                pros_pool, cons_pool, arg.weighted_differences, terms
            )
            assert (arg.pros, arg.cons) == oracle

        # Up to 14 terms, some with evidence on one side only. The preferred
        # provider can then win on a one-sided term while its compared pros
        # fall short of the cons, so cons must be mentioned.
        rng = np.random.default_rng(8)
        checked = mentioned = 0
        while checked < 60:
            n = int(rng.integers(2, 15))
            terms = [f"t{i}" for i in range(n)]
            weights = {t: float(rng.uniform(0.05, 1.0)) for t in terms}
            pref = {t: float(rng.uniform(0, 1)) for t in terms}
            other = {t: float(rng.uniform(0, 1)) for t in terms}
            for t in terms[: int(rng.integers(0, 3))]:
                del (other if rng.uniform() < 0.5 else pref)[t]
            ctx = context_from_values(pref, other, weights)
            po, oo = ctx.preferred.overall, ctx.other.overall
            if po is None or oo is None or po <= oo:
                continue
            compared = [t for t in terms if t in pref and t in other]
            pros_pool = [t for t in compared if pref[t] > other[t]]
            cons_pool = [t for t in compared if pref[t] < other[t]]
            if not pros_pool:
                continue
            arg = decisive_terms(ctx)
            if isinstance(arg, DecisiveDominance):
                continue
            oracle = tradeoff_oracle(
                pros_pool, cons_pool, arg.weighted_differences, compared
            )
            assert (arg.pros, arg.cons) == oracle
            mentioned += bool(arg.cons)
            checked += 1
        assert mentioned > 0

    def test_more_than_twelve_terms_mention_cons(self):
        # "solo" carries the preferred provider's win: the other provider
        # has no evidence on it. On the 13 compared terms the pros (0.3,
        # 0.2, 0.1) fall short of the cons (0.66 in all), so the answer is
        # the top pro plus the fewest largest cons leaving less than 0.3.
        cons_deltas = (0.15, 0.12, 0.1, 0.08, 0.06, 0.05, 0.04, 0.03, 0.02, 0.01)
        pref = {"solo": 1.0, "p0": 0.8, "p1": 0.7, "p2": 0.6}
        pref.update({f"c{i}": 0.5 - d for i, d in enumerate(cons_deltas)})
        other = {t: 0.5 for t in pref if t != "solo"}
        ctx = context_from_values(pref, other, {t: 1.0 for t in pref})
        assert ctx.preferred.overall > ctx.other.overall
        arg = decisive(ctx, DecisiveTradeoff)
        oracle = tradeoff_oracle(
            ["p0", "p1", "p2"],
            [f"c{i}" for i in range(len(cons_deltas))],
            arg.weighted_differences,
            list(other),
        )
        assert (arg.pros, arg.cons) == oracle
        assert arg.pros == ("p0",)
        assert arg.cons == ("c0", "c1", "c2")

    def test_equal_differences_pick_earlier_declared_term(self):
        # x and y have equal weighted differences; either alone covers c.
        ctx = context_from_values(
            {"x": 0.75, "y": 0.5, "c": 0.5},
            {"x": 0.5, "y": 0.25, "c": 0.625},
            {"x": 1.0, "y": 1.0, "c": 1.0},
        )
        assert decisive(ctx, DecisiveTradeoff).pros == ("x",)
        ctx = context_from_values(
            {"x": 0.75, "y": 0.5, "c": 0.5},
            {"x": 0.5, "y": 0.25, "c": 0.625},
            {"y": 1.0, "x": 1.0, "c": 1.0},
        )
        assert decisive(ctx, DecisiveTradeoff).pros == ("y",)
        # Equal cons: the earlier-declared one is mentioned.
        ctx = context_from_values(
            {"solo": 1.0, "p": 0.875, "c1": 0.25, "c2": 0.25},
            {"p": 0.5, "c1": 0.5, "c2": 0.5},
            {"solo": 1.0, "p": 1.0, "c1": 1.0, "c2": 1.0},
        )
        arg = decisive(ctx, DecisiveTradeoff)
        assert (arg.pros, arg.cons) == (("p",), ("c1",))

    def test_cover_test_is_exact(self):
        # Weighted differences are exact dyadics: p = 2**-58, c_big =
        # 0.125, c_small = 2**-57. Summed in floats, c_big + c_small
        # rounds to c_big, so naming c_big alone would seem to leave
        # nothing for p to outweigh; exactly, c_small is still left.
        ctx = context_from_values(
            {"solo": 1.0, "p": 2.0**-56, "c_big": 0.0, "c_small": 0.0},
            {"p": 0.0, "c_big": 0.5, "c_small": 2.0**-56},
            {"solo": 1.0, "p": 1.0, "c_big": 1.0, "c_small": 2.0},
        )
        arg = decisive(ctx, DecisiveTradeoff)
        exact = {t: Fraction(w) for t, w in arg.weighted_differences.items()}
        oracle = tradeoff_oracle(["p"], ["c_big", "c_small"], exact, list(ctx.other.per_term))
        assert (arg.pros, arg.cons) == oracle == (("p",), ("c_big", "c_small"))
        # p1 + p2 = 0.125 + 2**-57 exceeds c = 0.125, but a float sum of
        # the pros rounds p2 away, so they would seem only to tie c.
        ctx = context_from_values(
            {"solo": 1.0, "p1": 1.0, "p2": 2.0**-55, "c": 0.25},
            {"p1": 0.5, "p2": 0.0, "c": 0.5},
            {"solo": 1.0, "p1": 1.0, "p2": 1.0, "c": 2.0},
        )
        arg = decisive(ctx, DecisiveTradeoff)
        exact = {t: Fraction(w) for t, w in arg.weighted_differences.items()}
        oracle = tradeoff_oracle(["p1", "p2"], ["c"], exact, ["p1", "p2", "c"])
        assert (arg.pros, arg.cons) == oracle == (("p1", "p2"), ())


    def test_no_cover_gives_none(self):
        assert decisive_terms_tradeoff([], ["c"], {"c": 0.5}) is None
        # A pro of zero weight outweighs nothing, whatever is mentioned.
        assert decisive_terms_tradeoff(["p"], ["c"], {"p": 0.0, "c": 0.5}) is None

    def test_called_through_the_module_global(self, monkeypatch):
        # Tracers wrap the module attribute: every non-dominating pair
        # must reach it, and a dominating one never does.
        calls = []

        def counting(*args):
            calls.append(args)
            return decisive_terms_tradeoff(*args)

        monkeypatch.setattr(explain_module, "decisive_terms_tradeoff", counting)
        decisive(fixture.comparison("B", "C"), DecisiveDominance)
        assert calls == []
        decisive(fixture.comparison("B", "D"), DecisiveTradeoff)
        assert len(calls) == 1


#: Multiples of 1/64 make equal trusts and equal differences common;
#: values rounded to six places keep every nonzero difference far from
#: underflow.
DECISIVE_VALUES = st.one_of(
    st.integers(0, 64).map(lambda k: k / 64),
    st.floats(0.0, 1.0).map(lambda x: round(x, 6)),
)


@st.composite
def decisive_contexts(draw):
    """2-14 terms of positive weight, up to three of them with evidence on
    one side only; about half the draws put the preferred provider ahead
    or level on every term."""
    terms = [f"t{i}" for i in range(draw(st.integers(2, 14)))]
    weights = {t: draw(st.integers(1, 32)) / 8 for t in terms}
    pref = {t: draw(DECISIVE_VALUES) for t in terms}
    other = {t: draw(DECISIVE_VALUES) for t in terms}
    if draw(st.booleans()):
        for t in terms:
            pref[t], other[t] = max(pref[t], other[t]), min(pref[t], other[t])
    for t in draw(st.lists(st.sampled_from(terms), max_size=3, unique=True)):
        del draw(st.sampled_from((pref, other)))[t]
    return context_from_values(pref, other, weights)


class TestDecisiveTermsOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(decisive_contexts())
    def test_matches_the_readme_rules(self, ctx):
        expected = decisive_terms_oracle(ctx)
        if expected is None:
            with pytest.raises(NotPreferredError):
                decisive_terms(ctx)
            return
        arg = decisive_terms(ctx)
        assert type(arg) is type(expected)
        assert arg == expected


class TestInvertPermutation:
    def test_running_example_swap(self):
        ctx = fixture.comparison("B", "E")
        arg = invert_permutation(ctx, "timeliness")
        assert arg is not None
        assert arg.swaps == ((I, W),)
        assert arg.preferred_swapped == pytest.approx(0.6625, abs=0.005)
        assert arg.other_swapped == pytest.approx(0.80, abs=0.005)
        assert arg.preferred_original == pytest.approx(0.5875, abs=1e-9)
        assert arg.other_original == pytest.approx(0.40, abs=1e-9)

    def test_equal_weights_cannot_invert(self):
        ctx = context_from_values(
            {"q": {I: (0.9, 0.5), W: (0.2, 0.5)}},
            {"q": {I: (0.3, 0.5), W: (0.6, 0.5)}},
            {"q": 1.0},
            {I: 0.5, W: 0.5},
        )
        assert invert_permutation(ctx, "q") is None

    def test_component_domination_skipped(self):
        # B beats E on both quality components; stating the term suffices.
        ctx = fixture.comparison("B", "E")
        assert invert_permutation(ctx, "quality") is None

    def test_single_shared_component(self):
        ctx = context_from_values({"q": 0.9}, {"q": 0.2}, {"q": 1.0})
        assert invert_permutation(ctx, "q") is None

    def test_random_instances_agree_with_oracle(self):
        rng = np.random.default_rng(11)
        emitted = skipped = 0
        for _ in range(200):
            n_types = int(rng.integers(2, 5))
            types = list(ReputationType)[:n_types]
            weights = {k: float(rng.uniform(0.05, 1.0)) for k in types}
            pref_vals = {k: float(rng.uniform(0, 1)) for k in types}
            other_vals = {k: float(rng.uniform(0, 1)) for k in types}
            ctx = context_from_values(
                {"q": {k: (pref_vals[k], weights[k]) for k in types}},
                {"q": {k: (other_vals[k], weights[k]) for k in types}},
                {"q": 1.0},
                weights,
            )
            if ctx.preferred.term_trust("q") <= ctx.other.term_trust("q"):
                continue
            arg = invert_permutation(ctx, "q")
            names = {k: k.value for k in types}
            possible = any_inverting_permutation(
                {names[k]: pref_vals[k] for k in types},
                {names[k]: other_vals[k] for k in types},
                {names[k]: weights[k] for k in types},
                {names[k]: weights[k] for k in types},
            )
            dominated = all(
                pref_vals[k] >= other_vals[k] for k in types
            ) and any(pref_vals[k] > other_vals[k] for k in types)
            if arg is None:
                skipped += 1
                # Absence must mean no permutation can invert, except the
                # explicit component-domination skip (where inversion is
                # impossible anyway).
                assert dominated or not possible
                if dominated:
                    assert not possible
            else:
                emitted += 1
                pref_weights = dict(weights)
                other_weights = dict(weights)
                for a, b in arg.swaps:
                    pref_weights[a], pref_weights[b] = pref_weights[b], pref_weights[a]
                    other_weights[a], other_weights[b] = other_weights[b], other_weights[a]

                def mean(values, ws):
                    return sum(ws[k] * values[k] for k in types) / sum(
                        ws[k] for k in types
                    )

                assert mean(pref_vals, pref_weights) < mean(other_vals, other_weights)
        assert emitted > 10 and skipped > 10


#: Coarse grids, so equal weight gaps and exactly equal means occur; the
#: tenths are not dyadic, so sums also round.
GRID_VALUES = (0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0)
GRID_WEIGHTS = (0.0, 0.25, 0.5, 1.0, 2.0)
#: Factors on one side's weights. Mostly none; a subnormal factor puts that
#: side's weight sum below 1e-300 and a huge one above 1e300, where the
#: search recombines every candidate.
WEIGHT_SCALES = (1.0, 1.0, 1.0, 1e-310, 1e305)


@st.composite
def permutation_tables(draw):
    """Two component tables for one term: 2-4 shared types, each other
    type on one side or neither, every side in its own shuffled order and
    with its own weights, scaled by a draw from ``WEIGHT_SCALES``. A side's
    weights may all be zero."""
    types = draw(st.permutations(REPUTATION_ORDER))
    n_shared = draw(st.integers(2, 4))
    sides = {k: "both" for k in types[:n_shared]}
    for k in types[n_shared:]:
        sides[k] = draw(st.sampled_from(("preferred", "other", "neither")))
    cell = st.tuples(st.sampled_from(GRID_VALUES), st.sampled_from(GRID_WEIGHTS))
    tables = []
    for side in ("preferred", "other"):
        keys = draw(st.permutations([k for k, s in sides.items() if s in ("both", side)]))
        table = {k: draw(cell) for k in keys}
        scale = draw(st.sampled_from(WEIGHT_SCALES))
        tables.append({k: (v, w * scale) for k, (v, w) in table.items()})
    return tables


@st.composite
def near_tie_tables(draw):
    """``permutation_tables`` in range, with one of the other provider's
    shared values moved so that one candidate's two permuted means are
    equal, up to a few ulp either way: the score table puts that
    candidate within the margin, and recombination decides it."""
    pref_table, other_table = draw(permutation_tables())
    shared = [k for k in REPUTATION_ORDER if k in pref_table and k in other_table]
    image = draw(st.permutations(shared))
    assume(list(image) != shared)
    pref_weights = {k: w for k, (_, w) in pref_table.items()}
    other_weights = {k: w for k, (_, w) in other_table.items()}
    pref_weights.update({k: pref_table[j][1] for k, j in zip(shared, image)})
    other_weights.update({k: other_table[j][1] for k, j in zip(shared, image)})
    pref_sum, other_sum = sum(pref_weights.values()), sum(other_weights.values())
    assume(1e-300 <= pref_sum <= 1e300 and 1e-300 <= other_sum <= 1e300)
    target = sum(w * pref_table[k][0] for k, w in pref_weights.items()) / pref_sum
    moved = draw(st.sampled_from(shared))
    assume(other_weights[moved] > 0)
    rest = sum(w * other_table[k][0] for k, w in other_weights.items() if k != moved)
    value = (target * other_sum - rest) / other_weights[moved]
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else -math.inf)
    assume(0.0 <= value <= 1.0)
    other_table = dict(other_table)
    other_table[moved] = (value, other_table[moved][1])
    return pref_table, other_table


def term_context(pref_table, other_table):
    return context_from_values({"q": pref_table}, {"q": other_table}, {"q": 1.0})


class TestCandidateTable:
    @pytest.mark.parametrize(
        "n, sizes, firsts",
        [
            (2, (1,), [((1, 0), ((0, 1),))]),
            (3, (3, 2), [((1, 0, 2), ((0, 1),)), ((1, 2, 0), ((0, 1), (1, 2)))]),
            (
                4,
                (6, 11, 6),
                [
                    ((1, 0, 2, 3), ((0, 1),)),
                    ((1, 2, 0, 3), ((0, 1), (1, 2))),
                    ((1, 2, 3, 0), ((0, 1), (1, 2), (2, 3))),
                ],
            ),
        ],
    )
    def test_groups_by_swap_count_in_canonical_order(self, n, sizes, firsts):
        groups = explain_module._candidates(n)
        assert tuple(len(g) for g in groups) == sizes
        assert [g[0] for g in groups] == firsts
        for count, group in enumerate(groups, start=1):
            assert all(len(swaps) == count for _, swaps in group)
            assert [swaps for _, swaps in group] == sorted(swaps for _, swaps in group)

    def test_swaps_rebuild_each_image(self):
        # Applying the swaps in turn to the identity's weight slots must
        # give each index j the weight of index image[j].
        for n in (2, 3, 4):
            for image, swaps in itertools.chain.from_iterable(explain_module._candidates(n)):
                slots = list(range(n))
                for a, b in swaps:
                    slots[a], slots[b] = slots[b], slots[a]
                assert tuple(slots) == image


def assert_matches_oracle(tables):
    ctx = term_context(*tables)
    found, expected = invert_permutation(ctx, "q"), permutation_oracle(ctx, "q")
    # Named-tuple equality: swaps, and every float bit for bit. Tuple
    # equality ignores the class, so the type is checked on its own.
    assert type(found) is type(expected)
    assert found == expected


def counting_recombine(monkeypatch):
    """Patch ``_recombine`` to record its calls; return the record."""
    calls = []
    recombine = explain_module._recombine

    def counting(*args):
        calls.append(args)
        return recombine(*args)

    monkeypatch.setattr(explain_module, "_recombine", counting)
    return calls


class TestPermutationSearchOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(permutation_tables())
    def test_matches_exhaustive_search(self, tables):
        assert_matches_oracle(tables)

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(near_tie_tables())
    def test_near_ties_match_exhaustive_search(self, tables):
        assert_matches_oracle(tables)

    @pytest.mark.parametrize(
        "tables",
        [
            ({I: (0.9, 0.0), W: (0.1, 0.0)}, {I: (0.1, 1.0), W: (0.8, 1.0)}),
            ({I: (0.9, 1.0), W: (0.1, 1.0)}, {I: (0.1, 0.0), W: (0.8, 0.0)}),
        ],
        ids=["preferred", "other"],
    )
    def test_side_without_weight_has_nothing_to_invert(self, tables):
        # That side has no term trust, so there is no order to reverse.
        ctx = term_context(*tables)
        assert invert_permutation(ctx, "q") is None
        assert permutation_oracle(ctx, "q") is None

    def test_bound_settles_without_enumerating(self, monkeypatch):
        # Lowest preferred mean (0.9*1 + 0.6*2)/3 = 0.7 exceeds the
        # highest other mean (0.1*1 + 0.8*2)/3 = 0.5667.
        ctx = term_context({I: (0.9, 1.0), W: (0.6, 2.0)}, {I: (0.1, 1.0), W: (0.8, 2.0)})
        assert permutation_oracle(ctx, "q") is None

        def no_recombine(*args):
            raise AssertionError("the bound should have settled the search")

        monkeypatch.setattr(explain_module, "_recombine", no_recombine)
        assert invert_permutation(ctx, "q") is None

    def test_bound_within_margin_enumerates(self, monkeypatch):
        # Swapping the two weights makes both means exactly 0.6: the
        # preferred mean is 0.6 under any weights, and the other's becomes
        # (0.8*0.3 + 0.0*0.1)/0.4. The score table reads the swap, and so
        # the bound, about 3e-17 below zero. Within the margin the swap is
        # recombined, and a tie does not invert.
        ctx = term_context({I: (0.6, 1.0), W: (0.6, 2.0)}, {I: (0.8, 0.1), W: (0.0, 0.3)})
        assert permutation_oracle(ctx, "q") is None
        calls = counting_recombine(monkeypatch)
        assert invert_permutation(ctx, "q") is None
        assert len(calls) == 2

    def test_sums_out_of_range_recombine_every_candidate(self, monkeypatch):
        # The settling table above, with weights of 1e305: the sums pass
        # 1e300, so the table decides nothing and the one swap is recombined.
        ctx = term_context(
            {I: (0.9, 1e305), W: (0.6, 2e305)}, {I: (0.1, 1e305), W: (0.8, 2e305)}
        )
        assert permutation_oracle(ctx, "q") is None
        calls = counting_recombine(monkeypatch)
        assert invert_permutation(ctx, "q") is None
        assert len(calls) == 2


@st.composite
def scalable_contexts(draw):
    """Grid weights and values for a FIRE comparison over 2-4 terms with
    2-4 reputation types each, plus its uniform baselines."""
    n_terms = draw(st.integers(2, 4))
    terms = [f"t{i}" for i in range(n_terms)]
    types = draw(st.permutations(REPUTATION_ORDER))[: draw(st.integers(2, 4))]
    term_weights = {t: draw(st.sampled_from(GRID_WEIGHTS[1:])) for t in terms}
    component_weights = {k: draw(st.sampled_from(GRID_WEIGHTS[1:])) for k in types}
    values = {
        (role, t, k): draw(st.sampled_from(GRID_VALUES))
        for role in ("preferred", "other", "uniform_preferred", "uniform_other")
        for t in terms
        for k in types
    }
    return term_weights, component_weights, values


def scaled_context(spec, term_scale=1.0, component_scale=1.0):
    term_weights, component_weights, values = spec
    prefs = Preferences(
        term_weights={t: w * term_scale for t, w in term_weights.items()},
        component_weights={k: w * component_scale for k, w in component_weights.items()},
    )

    def assessment(role, target):
        comps = {
            t: [
                ComponentTrust(k, values[role, t, k], weight=prefs.component_weights[k])
                for k in component_weights
            ]
            for t in term_weights
        }
        return build_assessment("a", target, comps, prefs)

    preferred, other = assessment("preferred", "b"), assessment("other", "b2")
    uniform_preferred = assessment("uniform_preferred", "b")
    uniform_other = assessment("uniform_other", "b2")
    if preferred.overall < other.overall:
        preferred, other = other, preferred
        uniform_preferred, uniform_other = uniform_other, uniform_preferred
    return ComparisonContext(
        assessor="a",
        preferred=preferred,
        other=other,
        preferences=prefs,
        model=Model.FIRE,
        fire_diagnostics=FireDiagnostics(
            uniform_preferred=uniform_preferred, uniform_other=uniform_other
        ),
    )


def explanation_text(ctx):
    return dump_document(explanation_to_document(explain(ctx)))


class TestWeightScale:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        scalable_contexts(),
        st.sampled_from((2.0, 0.25, 1024.0)),
        st.sampled_from(("term", "component")),
    )
    def test_power_of_two_scale_gives_identical_document(self, spec, scale, which):
        base = scaled_context(spec)
        assume(abs(base.preferred.overall - base.other.overall) > 1e-6)
        scaled = scaled_context(spec, **{f"{which}_scale": scale})
        assert explanation_text(scaled) == explanation_text(base)


def recency_context(b_ratings, b2_ratings, lambda_=1.0, now=5):
    """Run the full FIRE path over two hand-built rating histories."""
    prefs = Preferences(term_weights={"q": 1.0}, component_weights={I: 1.0})
    config = FireConfig(lambda_=lambda_)
    store = RatingStore("a")
    for value, ts in b_ratings:
        store.insert(
            Rating("a", "b", "q", I, value=value, timestamp=ts)
        )
    for value, ts in b2_ratings:
        store.insert(
            Rating("a", "b2", "q", I, value=value, timestamp=ts)
        )
    fa_b = assess_fire(store, "a", "b", prefs, config, now=now)
    fa_b2 = assess_fire(store, "a", "b2", prefs, config, now=now)
    return ComparisonContext(
        assessor="a",
        preferred=fa_b.assessment,
        other=fa_b2.assessment,
        preferences=prefs,
        model=Model.FIRE,
        fire_diagnostics=FireDiagnostics(
            uniform_preferred=fa_b.uniform, uniform_other=fa_b2.uniform
        ),
    )


class TestFireRecency:
    def test_conflict_emits_global_argument(self):
        ctx = recency_context(
            b_ratings=[(0.2, 0), (0.9, 5)], b2_ratings=[(0.9, 0), (0.3, 5)]
        )
        arg = fire_recency_global(ctx)
        assert arg is not None
        assert arg.preferred_overall > arg.other_overall
        assert arg.uniform_preferred_overall < arg.uniform_other_overall

    def test_same_timestamps_emit_nothing(self):
        # With equal timestamps the uniform and recency orders coincide
        # (and b2 wins both), so explaining b2 over b carries no argument.
        ctx = recency_context(
            b_ratings=[(0.9, 5), (0.3, 5)], b2_ratings=[(0.2, 5), (0.95, 5)]
        )
        flipped = ComparisonContext(
            assessor="a",
            preferred=ctx.other,
            other=ctx.preferred,
            preferences=ctx.preferences,
            model=Model.FIRE,
            fire_diagnostics=FireDiagnostics(
                uniform_preferred=ctx.fire_diagnostics.uniform_other,
                uniform_other=ctx.fire_diagnostics.uniform_preferred,
            ),
        )
        assert fire_recency_global(flipped) is None

    def test_agreeing_orders_emit_nothing(self):
        ctx = recency_context(
            b_ratings=[(0.9, 0), (0.9, 5)], b2_ratings=[(0.2, 0), (0.2, 5)]
        )
        assert fire_recency_global(ctx) is None

    def test_local_argument(self):
        ctx = recency_context(
            b_ratings=[(0.2, 0), (0.9, 5)], b2_ratings=[(0.9, 0), (0.3, 5)]
        )
        arg = fire_recency_local(ctx, "q", I)
        assert arg is not None and arg.rep_type is I
        assert fire_recency_local(ctx, "q", ReputationType.ROLE_BASED) is None

    def test_missing_diagnostics(self):
        ctx = fixture.comparison("B", "C")
        with pytest.raises(ValueError, match="need uniform-weight baseline assessments"):
            fire_recency_global(ctx)
        with pytest.raises(ValueError, match="need uniform-weight baseline assessments"):
            fire_recency_local(ctx, "quality", I)


def travos_context(conf_b, conf_b2, wit_b, wit_b2, threshold=0.2):
    ctx = fixture.comparison("B", "C")
    diag = TravosDiagnostics(
        threshold=threshold,
        preferred={
            "quality": TravosTermDiagnostics(
                interaction_confidence=conf_b, low_confidence=conf_b < threshold,
                witness_trust=wit_b,
            )
        },
        other={
            "quality": TravosTermDiagnostics(
                interaction_confidence=conf_b2, low_confidence=conf_b2 < threshold,
                witness_trust=wit_b2,
            )
        },
    )
    return ComparisonContext(
        assessor=ctx.assessor,
        preferred=ctx.preferred,
        other=ctx.other,
        preferences=ctx.preferences,
        model=Model.TRAVOS,
        travos_diagnostics=diag,
    )


class TestTravosLowConfidence:
    def test_emitted_when_witnesses_decide(self):
        ctx = travos_context(0.13, 0.13, wit_b=0.8, wit_b2=0.3)
        arg = travos_low_confidence(ctx, "quality")
        assert arg is not None
        assert arg.preferred_witness_trust == 0.8

    def test_confident_assessors_need_no_argument(self):
        ctx = travos_context(0.9, 0.95, wit_b=0.8, wit_b2=0.3)
        assert travos_low_confidence(ctx, "quality") is None

    def test_witnesses_favoring_other_emit_nothing(self):
        ctx = travos_context(0.13, 0.13, wit_b=0.3, wit_b2=0.8)
        assert travos_low_confidence(ctx, "quality") is None

    def test_one_sided_low_confidence_suffices(self):
        ctx = travos_context(0.9, 0.05, wit_b=0.8, wit_b2=0.3)
        assert travos_low_confidence(ctx, "quality") is not None

    def test_missing_diagnostics(self):
        with pytest.raises(ValueError, match="need interaction confidences"):
            travos_low_confidence(fixture.comparison("B", "C"), "quality")


class TestExplain:
    def test_package_attribute_is_the_module(self):
        # The package must not shadow its submodule with the function.
        assert isinstance(reptrace.explain, types.ModuleType)
        assert reptrace.explain is explain_module
        assert explain_module.explain is explain

    def test_domination_example(self):
        explanation = explain(fixture.comparison("B", "C"))
        assert len(explanation.arguments) == 1
        [arg] = explanation.arguments
        assert isinstance(arg, DecisiveDominance)
        assert set(arg.pros) == {"quality", "timeliness"}

    def test_tradeoff_example(self):
        explanation = explain(fixture.comparison("B", "D"))
        assert len(explanation.arguments) == 1
        [arg] = explanation.arguments
        assert isinstance(arg, DecisiveTradeoff)
        assert arg.pros == ("quality",) and arg.cons == ()

    def test_third_provider_pair_has_no_quality_permutation(self):
        # Quality is the decisive pro and B dominates E at the component
        # level there, so no permutation argument appears.
        explanation = explain(fixture.comparison("B", "E"))
        assert [type(a) for a in explanation.arguments] == [DecisiveTradeoff]
        assert explanation.arguments[0].pros == ("quality",)

    def test_permutation_emitted_when_timeliness_is_decisive(self):
        # Re-weighting makes timeliness the decisive pro of B over E.
        prefs = Preferences(
            term_weights={"quality": 0.2, "timeliness": 0.7, "cost": 0.1},
            component_weights={I: 0.75, W: 0.25},
        )
        base = fixture.comparison("B", "E")
        ctx = ComparisonContext(
            assessor=base.assessor,
            preferred=base.preferred,
            other=base.other,
            preferences=prefs,
        )
        explanation = explain(ctx)
        kinds = [type(a) for a in explanation.arguments]
        assert kinds[0] is DecisiveTradeoff
        assert explanation.arguments[0].pros == ("timeliness",)
        perms = [a for a in explanation.arguments if isinstance(a, TypePermutation)]
        assert len(perms) == 1 and perms[0].term == "timeliness"
        assert perms[0].swaps == ((I, W),)

    def test_reversed_order_rejected(self):
        with pytest.raises(NotPreferredError) as excinfo:
            explain(fixture.comparison("C", "B"))
        assert "outranks" in str(excinfo.value)

    def test_better_on_no_shared_term_rejected(self):
        # b outranks b2 only through q, on which b2 has no evidence.
        ctx = context_from_values(
            {"q": 0.9, "t": 0.4}, {"t": 0.5}, {"q": 0.5, "t": 0.5}
        )
        assert ctx.preferred.overall > ctx.other.overall
        with pytest.raises(NotPreferredError) as excinfo:
            explain(ctx)
        assert "better than b2 on no weighted term" in str(excinfo.value)

    def test_tie_rejected(self):
        ctx = context_from_values({"q": 0.5}, {"q": 0.5}, {"q": 1.0})
        with pytest.raises(NotPreferredError, match="tied"):
            explain(ctx)

    def test_scores_the_tolerance_apart_are_tied(self):
        ctx = context_from_values({"q": 1e-9}, {"q": 0.0}, {"q": 1.0})
        assert ctx.preferred.overall - ctx.other.overall == explain_module.ORDER_TOL
        with pytest.raises(NotPreferredError, match="tied"):
            explain(ctx)
        ctx = context_from_values({"q": 2e-9}, {"q": 0.0}, {"q": 1.0})
        assert isinstance(explain(ctx).arguments[0], DecisiveDominance)

    def test_deterministic(self):
        a = explain(fixture.comparison("B", "C"))
        b = explain(fixture.comparison("B", "C"))
        assert a == b

    def test_fire_model_arguments_integrated(self):
        ctx = recency_context(
            b_ratings=[(0.2, 0), (0.9, 5)], b2_ratings=[(0.9, 0), (0.3, 5)]
        )
        explanation = explain(ctx)
        kinds = [type(a) for a in explanation.arguments]
        assert kinds[0] in (DecisiveDominance, DecisiveTradeoff)
        assert FireRecencyGlobal in kinds
        assert FireRecencyLocal in kinds

    def test_per_term_arguments_in_declaration_order(self):
        prefs = Preferences(
            term_weights={"timeliness": 0.45, "quality": 0.45, "cost": 0.10},
            component_weights={I: 0.75, W: 0.25},
        )
        base = fixture.comparison("B", "C")
        ctx = ComparisonContext(
            assessor=base.assessor,
            preferred=base.preferred,
            other=base.other,
            preferences=prefs,
            model=Model.TRAVOS,
            travos_diagnostics=TravosDiagnostics(
                threshold=0.2,
                preferred={
                    t: TravosTermDiagnostics(0.1, True, 0.9) for t in fixture.TERMS
                },
                other={
                    t: TravosTermDiagnostics(0.1, True, 0.2) for t in fixture.TERMS
                },
            ),
        )
        explanation = explain(ctx)
        low_conf_terms = [
            a.term
            for a in explanation.arguments
            if isinstance(a, TravosLowConfidence)
        ]
        decisive_pros = set(explanation.arguments[0].pros)
        expected = [t for t in prefs.terms if t in decisive_pros]
        assert low_conf_terms == expected
