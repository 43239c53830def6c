"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
explicit PASS lines). Every tolerance is fixed here, not configurable.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oracles import any_inverting_permutation, tradeoff_oracle
from reptrace import fixture
from reptrace.core import ComponentTrust, Preferences, ReputationType, build_assessment
from reptrace.explain import (
    ComparisonContext,
    DecisiveDominance,
    DecisiveTradeoff,
    decisive_terms,
    explain,
    fire_recency_global,
    invert_permutation,
)
from reptrace.travos import (
    BetaParams,
    confidence,
    discount_opinion,
    regularized_incomplete_beta,
)

I = ReputationType.INTERACTION
W = ReputationType.WITNESS

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "demos" / "delivery_scenario.json"

#: Slack for "matches a 2-decimal table entry": +-0.005 before rounding.
TABLE_TOL = 0.005 + 1e-12


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_running_example_reproduction():
    start = time.perf_counter()
    assessments = {p: fixture.assessment(p) for p in fixture.PROVIDERS}
    elapsed = time.perf_counter() - start
    for provider, per_term in fixture.EXPECTED_TERM_TRUSTS.items():
        for term, expected in per_term.items():
            got = assessments[provider].term_trust(term)
            assert abs(got - expected) <= TABLE_TOL, (provider, term, got)
    for provider, expected in fixture.EXPECTED_OVERALL.items():
        got = assessments[provider].overall
        assert abs(got - expected) <= TABLE_TOL, (provider, got)
        assert round(got, 2) == expected
    assert elapsed < 1.0
    report(1, "all 12 term trusts and 4 overall scores match to 2 decimals")


def test_criterion_2_domination_example():
    ctx = fixture.comparison("B", "C")
    arg = decisive_terms(ctx)
    assert isinstance(arg, DecisiveDominance)
    assert abs(arg.reference - 0.139) <= 0.001
    assert set(arg.pros) == {"quality", "timeliness"}
    explanation = explain(ctx)
    assert isinstance(explanation.arguments[0], DecisiveDominance)
    report(2, "domination path with reference weighted difference 0.139")


def test_criterion_3_tradeoff_example():
    ctx = fixture.comparison("B", "D")
    arg = decisive_terms(ctx)
    assert isinstance(arg, DecisiveTradeoff)
    assert arg.pros == ("quality",)
    assert arg.cons == ()
    oracle = tradeoff_oracle(
        ["quality", "cost"],
        ["timeliness"],
        arg.weighted_differences,
        list(fixture.TERMS),
    )
    assert (arg.pros, arg.cons) == oracle
    report(3, "trade-off path picks quality alone; oracle confirms minimality")


def test_criterion_4_invert_example():
    ctx = fixture.comparison("B", "E")
    arg = invert_permutation(ctx, "timeliness")
    assert arg is not None
    assert arg.swaps == ((I, W),)
    assert abs(arg.preferred_swapped - 0.6625) <= 0.005
    assert abs(arg.other_swapped - 0.80) <= 0.005
    report(4, "single interaction/witness swap flips timeliness, 0.66 vs 0.80")


def test_criterion_5_travos_numerics():
    for eps in (0.05, 0.1, 0.2):
        assert abs(confidence(BetaParams(1, 1), eps) - 2 * eps) <= 1e-9

    rng = np.random.default_rng(2024)
    for _ in range(100):
        alpha = float(rng.uniform(1.0, 50.0))
        beta = float(rng.uniform(1.0, 50.0))
        p = BetaParams(alpha, beta)
        zero = discount_opinion(p, 0.0)
        assert abs(zero.alpha - 1.0) <= 1e-9 and abs(zero.beta - 1.0) <= 1e-9
        full = discount_opinion(p, 1.0)
        assert abs(full.alpha - alpha) <= 1e-6 and abs(full.beta - beta) <= 1e-6

    grid = [
        (x, a, b)
        for x in np.linspace(0.05, 0.95, 10)
        for (a, b) in ((1.0, 1.0), (2.0, 5.0), (7.5, 0.8), (30.0, 30.0), (0.6, 3.2))
    ]
    assert len(grid) == 50
    for x, a, b in grid:
        total = regularized_incomplete_beta(x, a, b) + regularized_incomplete_beta(
            1.0 - x, b, a
        )
        assert abs(total - 1.0) <= 1e-9
    report(5, "confidence, discount round-trips and symmetry identity hold")


def _random_context(rng, n_terms):
    terms = [f"t{i}" for i in range(n_terms)]
    weights = {t: float(rng.uniform(0.05, 1.0)) for t in terms}
    prefs = Preferences(term_weights=weights, component_weights={I: 1.0})

    def assessment(target):
        comps = {
            t: [ComponentTrust(I, float(rng.uniform(0, 1)), weight=1.0)]
            for t in terms
        }
        return build_assessment("a", target, comps, prefs)

    return (
        ComparisonContext(
            assessor="a",
            preferred=assessment("b"),
            other=assessment("b2"),
            preferences=prefs,
        ),
        terms,
    )


def test_criterion_6_tradeoff_minimality_suite():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 500:
        ctx, terms = _random_context(rng, int(rng.integers(2, 9)))
        po, oo = ctx.preferred.overall, ctx.other.overall
        if po <= oo:
            ctx = ComparisonContext(
                assessor=ctx.assessor,
                preferred=ctx.other,
                other=ctx.preferred,
                preferences=ctx.preferences,
            )
            po, oo = oo, po
        if abs(po - oo) <= 1e-9:
            continue
        arg = decisive_terms(ctx)
        if isinstance(arg, DecisiveDominance):
            continue
        pros_pool = [
            t for t in terms if ctx.preferred.term_trust(t) > ctx.other.term_trust(t)
        ]
        cons_pool = [
            t for t in terms if ctx.preferred.term_trust(t) < ctx.other.term_trust(t)
        ]
        oracle = tradeoff_oracle(pros_pool, cons_pool, arg.weighted_differences, terms)
        assert (arg.pros, arg.cons) == oracle, (arg, oracle)
        checked += 1
    report(6, "500/500 trade-off selections equal the exhaustive oracle")


def test_criterion_7_permutation_suite():
    rng = np.random.default_rng(202)
    checked = emitted = absent = 0
    types_by_size = {
        2: (I, W),
        3: (I, W, ReputationType.ROLE_BASED),
        4: tuple(ReputationType),
    }
    while checked < 500:
        size = int(rng.integers(2, 5))
        types = types_by_size[size]
        weights = {k: float(rng.uniform(0.05, 1.0)) for k in types}
        pref_vals = {k: float(rng.uniform(0, 1)) for k in types}
        other_vals = {k: float(rng.uniform(0, 1)) for k in types}
        prefs = Preferences(term_weights={"q": 1.0}, component_weights=weights)

        def assessment(target, values):
            comps = {
                "q": [ComponentTrust(k, values[k], weight=weights[k]) for k in types]
            }
            return build_assessment("a", target, comps, prefs)

        ctx = ComparisonContext(
            assessor="a",
            preferred=assessment("b", pref_vals),
            other=assessment("b2", other_vals),
            preferences=prefs,
        )
        if not ctx.preferred.term_trust("q") > ctx.other.term_trust("q"):
            continue
        checked += 1
        arg = invert_permutation(ctx, "q")
        names = {k: k.value for k in types}
        oracle_possible = any_inverting_permutation(
            {names[k]: pref_vals[k] for k in types},
            {names[k]: other_vals[k] for k in types},
            {names[k]: weights[k] for k in types},
            {names[k]: weights[k] for k in types},
        )
        if arg is None:
            absent += 1
            assert not oracle_possible
        else:
            emitted += 1
            swapped = dict(weights)
            for a, b in arg.swaps:
                swapped[a], swapped[b] = swapped[b], swapped[a]

            def mean(values):
                return sum(swapped[k] * values[k] for k in types) / sum(
                    swapped[k] for k in types
                )

            assert mean(pref_vals) < mean(other_vals)
    assert emitted > 50 and absent > 50
    report(
        7,
        f"500 instances: {emitted} emitted permutations invert strictly, "
        f"{absent} absences verified exhaustively",
    )


def test_criterion_8_fire_recency_argument():
    from reptrace.core import Rating
    from reptrace.explain import FireDiagnostics, Model
    from reptrace.fire import FireConfig, assess_provider
    from reptrace.store import RatingStore

    prefs = Preferences(term_weights={"q": 1.0}, component_weights={I: 1.0})
    config = FireConfig(lambda_=1.0)

    def build(history):
        store = RatingStore("a")
        for target, value, ts in history:
            store.insert(
                Rating("a", target, "q", I, value=value, timestamp=ts)
            )
        return store

    conflict = build(
        [("b", 0.2, 0), ("b", 0.9, 5), ("b2", 0.9, 0), ("b2", 0.3, 5)]
    )
    fa_b = assess_provider(conflict, "a", "b", prefs, config, now=5)
    fa_b2 = assess_provider(conflict, "a", "b2", prefs, config, now=5)
    ctx = ComparisonContext(
        assessor="a",
        preferred=fa_b.assessment,
        other=fa_b2.assessment,
        preferences=prefs,
        model=Model.FIRE,
        fire_diagnostics=FireDiagnostics(fa_b.uniform, fa_b2.uniform),
    )
    assert fire_recency_global(ctx) is not None

    uniform_ts = build(
        [("b", 0.2, 5), ("b", 0.9, 5), ("b2", 0.9, 5), ("b2", 0.3, 5)]
    )
    ua_b = assess_provider(uniform_ts, "a", "b", prefs, config, now=5)
    ua_b2 = assess_provider(uniform_ts, "a", "b2", prefs, config, now=5)
    # With equal timestamps recency changes nothing, so b2 cannot be argued
    # over via recency in either direction.
    flat_ctx = ComparisonContext(
        assessor="a",
        preferred=ua_b2.assessment if ua_b2.assessment.overall > ua_b.assessment.overall else ua_b.assessment,
        other=ua_b.assessment if ua_b2.assessment.overall > ua_b.assessment.overall else ua_b2.assessment,
        preferences=prefs,
        model=Model.FIRE,
        fire_diagnostics=FireDiagnostics(
            ua_b2.uniform if ua_b2.assessment.overall > ua_b.assessment.overall else ua_b.uniform,
            ua_b.uniform if ua_b2.assessment.overall > ua_b.assessment.overall else ua_b2.uniform,
        ),
    )
    assert fire_recency_global(flat_ctx) is None
    report(8, "recency conflict emits the argument; uniform timestamps do not")


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "reptrace.cli", *args],
        capture_output=True,
        cwd=cwd,
        timeout=120,
    )


def test_criterion_9_end_to_end_determinism(tmp_path):
    outputs = []
    for run in ("one", "two"):
        stores = tmp_path / f"stores-{run}.json"
        sim = _run_cli(["simulate", str(SCENARIO), str(stores)], ROOT)
        assert sim.returncode == 0, sim.stderr
        assess = _run_cli(
            ["assess", str(stores), "--model", "fire", "--assessor", "alice"], ROOT
        )
        assert assess.returncode == 0, assess.stderr
        ranking = json.loads(assess.stdout)
        best, second = (p["id"] for p in ranking["providers"][:2])
        explain_run = _run_cli(
            [
                "explain", str(stores), "--model", "fire", "--assessor", "alice",
                "--preferred", best, "--other", second,
            ],
            ROOT,
        )
        assert explain_run.returncode == 0, explain_run.stderr
        outputs.append(
            (stores.read_bytes(), assess.stdout, explain_run.stdout)
        )
    assert outputs[0] == outputs[1]
    report(9, "simulate, assess and explain are byte-identical across runs")
