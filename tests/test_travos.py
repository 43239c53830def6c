"""Beta-evidence numerics, discounting and the per-term pipeline."""

import logging
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import beta_mass_quadrature, beta_mean_std
from reptrace.core import Preferences, Rating, ReputationType
from reptrace import travos
from reptrace.errors import DegenerateMomentsError, NumericalFailureError
from reptrace.store import ObservationRecord, ObservationStore, RatingStore
from reptrace.travos import (
    BetaParams,
    TravosConfig,
    UNIFORM_STD,
    WitnessOpinion,
    assess_provider,
    assess_term,
    beta_from_moments,
    binarize_value,
    binarized_beta,
    combine_evidence,
    confidence,
    decomposition_weights,
    discount_opinion,
    regularized_incomplete_beta,
    witness_accuracy,
)

I = ReputationType.INTERACTION
W = ReputationType.WITNESS


def rating(value, source="a", target="b", term="q", rep_type=I, ts=0, iid=None):
    return Rating(
        source=source,
        target=target,
        term=term,
        rep_type=rep_type,
        value=value,
        raw_value=value,
        timestamp=ts,
        interaction_id=iid,
    )


def opinion(alpha, beta):
    p = BetaParams(alpha, beta)
    return WitnessOpinion(witness="w", target="b", term="q", params=p)


params_strategy = st.tuples(
    st.floats(min_value=1.0, max_value=60.0), st.floats(min_value=1.0, max_value=60.0)
).map(lambda ab: BetaParams(*ab))


class TestEvidenceCounting:
    def test_counts(self):
        ratings = [rating(1.0)] * 3 + [rating(0.0)]
        assert binarized_beta(ratings) == BetaParams(4.0, 2.0)

    def test_empty_is_uniform_prior(self):
        assert binarized_beta([]) == BetaParams(1.0, 1.0)

    def test_all_negative(self):
        assert binarized_beta([rating(0.0)] * 2) == BetaParams(1.0, 3.0)

    def test_non_binary_counted_at_threshold(self):
        ratings = [rating(0.7), rating(0.5), rating(0.49), rating(0.0)]
        assert binarized_beta(ratings) == BetaParams(3.0, 3.0)

    def test_binarize(self):
        assert binarize_value(0.5) == 1.0
        assert binarize_value(0.49) == 0.0


class TestExpectedValue:
    def test_uniform(self):
        assert BetaParams(1, 1).mean == 0.5

    def test_counts(self):
        assert abs(BetaParams(4, 2).mean - 4 / 6) <= 1e-12

    @given(st.floats(min_value=0.5, max_value=50.0))
    def test_symmetric(self, a):
        assert BetaParams(a, a).mean == 0.5


class TestConfidence:
    def test_uniform_is_twice_epsilon(self):
        for eps in (0.05, 0.1, 0.2):
            assert abs(confidence(BetaParams(1, 1), eps) - 2 * eps) <= 1e-9

    def test_linear_density_closed_form(self):
        # Beta(2,1) has density 2x; mass on [E - 0.1, E + 0.1] is hi^2 - lo^2.
        e = 2 / 3
        expected = (e + 0.1) ** 2 - (e - 0.1) ** 2
        assert abs(confidence(BetaParams(2, 1), 0.1) - expected) <= 1e-9

    def test_concentrated_distribution(self):
        assert confidence(BetaParams(500, 500), 0.1) >= 0.999

    @settings(max_examples=30, deadline=None)
    @given(params_strategy, st.floats(min_value=0.02, max_value=0.45))
    def test_matches_quadrature(self, p, eps):
        e = p.mean
        expected = beta_mass_quadrature(p.alpha, p.beta, e - eps, e + eps)
        assert abs(confidence(p, eps) - expected) <= 1e-9

    def test_monotone_in_evidence_mass(self):
        # Fixed expected value 0.6, increasing total evidence.
        previous = 0.0
        for mass in (2.5, 5, 10, 20, 40, 80, 160):
            value = confidence(BetaParams(0.6 * mass, 0.4 * mass), 0.1)
            assert value >= previous - 1e-12
            previous = value

    def test_matches_scipy_betainc(self):
        from scipy.special import betainc

        rng = random.Random(20060818)
        integer = [(float(rng.randint(1, 600)), float(rng.randint(1, 600))) for _ in range(60)]
        fractional = [(0.6 * m, 0.4 * m) for m in (1, 2.5, 7, 40, 160, 600)]
        fractional += [(0.4 * m, 0.6 * m) for m in (1, 2.5, 7, 40, 160, 600)]
        below_one = [(rng.uniform(0.05, 1.0), rng.uniform(0.05, 600.0)) for _ in range(20)]
        below_one += [(b, a) for a, b in below_one[:10]]
        params = integer + fractional + below_one + [(500.0, 500.0), (1.0, 1.0)]
        bounds = [k / 5 for k in range(6)]  # 0, 1 and every bound of 5 bins
        for a, b in params:
            for x in bounds + [rng.random() for _ in range(4)] + [a / (a + b)]:
                expected = float(betainc(a, b, x))
                assert abs(regularized_incomplete_beta(x, a, b) - expected) <= 1e-12, (x, a, b)

    def test_symmetry_identity(self):
        # I_x(a, b) + I_{1-x}(b, a) = 1
        grid = [(x / 10.0, a, b) for x in range(1, 10) for a, b in ((1.5, 3.0), (7, 2))]
        for x, a, b in grid:
            total = regularized_incomplete_beta(x, a, b) + regularized_incomplete_beta(
                1 - x, b, a
            )
            assert abs(total - 1.0) <= 1e-9


class TestIncompleteBetaCache:
    def test_cached_equals_uncached(self):
        grid = [
            (x / 20, a, b)
            for x in range(-1, 22)
            for a in (1.0, 2.0, 3.5, 17.0, 60.0)
            for b in (1.0, 4.0, 9.5, 41.0)
        ]
        for _ in range(2):  # the second pass reads the cache
            for args in grid:
                assert regularized_incomplete_beta(*args) == (
                    regularized_incomplete_beta.__wrapped__(*args)
                ), args

    def test_failure_is_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(NumericalFailureError):
                regularized_incomplete_beta(0.5, math.inf, 2.0)


class TestWitnessAccuracy:
    def obs(self, outcome):
        return ObservationRecord(
            assessor="a",
            witness="w",
            target="b",
            term="q",
            interaction_id="i",
            opinion_value=0.9,
            outcome_rating=outcome,
        )

    def test_no_history_is_prior_bin_mass(self):
        assert abs(witness_accuracy([], opinion_bin=3, bins=5) - 0.2) <= 1e-9

    def test_confirmed_witness(self):
        rho = witness_accuracy([self.obs(1.0)] * 10, opinion_bin=5, bins=5)
        assert abs(rho - (1.0 - 0.8**11)) <= 1e-9
        assert rho > 0.6

    def test_contradicted_witness(self):
        rho = witness_accuracy([self.obs(0.0)] * 10, opinion_bin=5, bins=5)
        oracle = beta_mass_quadrature(1.0, 11.0, 0.8, 1.0)
        assert rho < 0.01
        assert abs(rho - oracle) <= 1e-9


class TestDiscounting:
    def test_zero_accuracy_gives_uniform_prior(self):
        p = discount_opinion(opinion(4, 2), 0.0)
        assert abs(p.alpha - 1.0) <= 1e-9 and abs(p.beta - 1.0) <= 1e-9

    def test_full_accuracy_roundtrips(self):
        p = discount_opinion(opinion(4, 2), 1.0)
        assert abs(p.alpha - 4.0) <= 1e-6 and abs(p.beta - 2.0) <= 1e-6

    def test_half_accuracy_matches_moment_oracle(self):
        source = opinion(4, 2)
        rho = 0.5
        p = discount_opinion(source, rho)
        mean, std = beta_mean_std(p.alpha, p.beta)
        src_mean, src_std = beta_mean_std(4, 2)
        assert abs(mean - (0.5 + rho * (src_mean - 0.5))) <= 1e-9
        assert abs(std - (UNIFORM_STD + rho * (src_std - UNIFORM_STD))) <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(params_strategy, st.floats(min_value=0.0, max_value=1.0))
    def test_discounted_mean_is_convex_toward_half(self, p, rho):
        discounted = discount_opinion(opinion(p.alpha, p.beta), rho)
        assert abs(discounted.mean - 0.5) <= abs(p.mean - 0.5) + 1e-9

    def test_degenerate_moments_clamp(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="reptrace.travos"):
            p = beta_from_moments(0.5, 0.5)
        assert p == BetaParams(1.0, 1.0)
        assert any("degenerate" in rec.message for rec in caplog.records)

    def test_degenerate_moments_strict(self):
        with pytest.raises(DegenerateMomentsError):
            beta_from_moments(0.5, 0.5, clamp=False)


class TestCombination:
    def test_literal_sum(self):
        assert combine_evidence(BetaParams(3, 2), [BetaParams(2, 1)]) == BetaParams(5, 3)

    def test_no_witnesses(self):
        assert combine_evidence(BetaParams(1, 1), []) == BetaParams(1, 1)

    def test_two_uniform_witnesses(self):
        combined = combine_evidence(BetaParams(1, 1), [BetaParams(1, 1)] * 2)
        assert combined == BetaParams(3, 3)

    @given(st.lists(params_strategy, max_size=5), params_strategy)
    def test_order_independent(self, witnesses, interaction):
        forward = combine_evidence(interaction, witnesses)
        backward = combine_evidence(interaction, list(reversed(witnesses)))
        assert abs(forward.alpha - backward.alpha) <= 1e-9
        assert abs(forward.beta - backward.beta) <= 1e-9

    @given(st.lists(params_strategy, min_size=2, max_size=5), params_strategy)
    def test_associative(self, witnesses, interaction):
        direct = combine_evidence(interaction, witnesses)
        head, tail = witnesses[0], witnesses[1:]
        staged = combine_evidence(combine_evidence(interaction, [head]), tail)
        assert abs(direct.alpha - staged.alpha) <= 1e-9
        assert abs(direct.beta - staged.beta) <= 1e-9


class TestDecompositionWeights:
    def test_equal_mass(self):
        assert decomposition_weights(BetaParams(3, 2), [BetaParams(3, 2)]) == (0.5, 0.5)

    def test_no_witnesses(self):
        assert decomposition_weights(BetaParams(1, 1), []) == (1.0, 0.0)

    def test_mass_ratio(self):
        w_i, w_w = decomposition_weights(BetaParams(2, 2), [BetaParams(4, 4)])
        assert abs(w_i - 1 / 3) <= 1e-12 and abs(w_w - 2 / 3) <= 1e-12


def make_config(**kwargs):
    defaults = dict(epsilon=0.05, confidence_threshold=0.2, bins=5)
    defaults.update(kwargs)
    return TravosConfig(**defaults)


class TestAssessTerm:
    def test_high_confidence_skips_witnesses(self):
        store = RatingStore()
        for ts in range(30):
            store.insert(rating(1.0 if ts % 2 else 0.0, ts=ts))
        store.insert(rating(0.9, source="w", rep_type=W, ts=0))
        res = assess_term(store, ObservationStore(), "a", "b", "q", make_config())
        assert not res.low_confidence
        assert res.witnesses == ()
        interaction_component = res.components[0]
        assert interaction_component.weight == 1.0
        assert res.witness_trust is None

    def test_interaction_evidence_is_the_assessors_own(self):
        own, mixed = RatingStore(), RatingStore()
        for value in (1.0, 0.0):
            own.insert(rating(value))
            mixed.insert(rating(value))
        for ts in range(5):
            mixed.insert(rating(1.0, source="w", ts=ts))
        results = [
            assess_term(store, ObservationStore(), "a", "b", "q", make_config())
            for store in (own, mixed)
        ]
        assert results[0] == results[1]

    def test_formula_chain_with_perfect_witness(self):
        # Interaction prior only, one fully trusted witness holding (11, 1).
        discounted = discount_opinion(opinion(11, 1), 1.0)
        combined = combine_evidence(BetaParams(1, 1), [discounted])
        assert abs(combined.mean - 12 / 14) <= 1e-6

    def test_no_evidence_flags_low_confidence(self):
        res = assess_term(
            RatingStore(), ObservationStore(), "a", "b", "q", make_config()
        )
        assert res.term_trust == 0.5
        assert res.low_confidence
        assert res.interaction_confidence == pytest.approx(0.1, abs=1e-9)

    def test_witness_pipeline_and_recombination(self):
        store = RatingStore()
        store.insert(rating(1.0, ts=0))  # one own success: low confidence
        for ts in range(8):
            store.insert(rating(1.0, source="w1", rep_type=W, ts=ts, iid=f"w1-{ts}"))
            store.insert(
                rating(1.0 if ts < 2 else 0.0, source="w2", rep_type=W, ts=ts, iid=f"w2-{ts}")
            )
        obs = ObservationStore()
        # w1 has been accurate before: high opinions followed by good outcomes.
        for i in range(6):
            obs.insert(
                ObservationRecord(
                    assessor="a",
                    witness="w1",
                    target="b",
                    term="q",
                    interaction_id=f"o{i}",
                    opinion_value=0.85,
                    outcome_rating=1.0,
                )
            )
        res = assess_term(store, obs, "a", "b", "q", make_config())
        assert res.low_confidence
        assert {c.witness for c in res.witnesses} == {"w1", "w2"}
        w_i, w_w = (res.components[0].weight, res.components[1].weight)
        recombined = (
            w_i * res.components[0].value + w_w * res.components[1].value
        )
        assert abs(recombined - res.term_trust) <= 1e-9
        assert abs(w_i + w_w - 1.0) <= 1e-12
        # The accurate witness is discounted less than the unknown one.
        by_witness = {c.witness: c for c in res.witnesses}
        assert by_witness["w1"].accuracy > by_witness["w2"].accuracy
        assert by_witness["w1"].discounted.mass > by_witness["w2"].discounted.mass

    def test_every_assessment_logs_its_clamp(self, caplog, monkeypatch):
        # Binarized counts always invert to feasible moments, so widen the
        # prior's spread until discounting toward it is infeasible.
        monkeypatch.setattr(travos, "UNIFORM_STD", 0.9)
        store = RatingStore()
        store.insert(rating(1.0, source="w", rep_type=W, ts=0))
        prefs = Preferences(term_weights={"q": 1.0}, component_weights={I: 0.75, W: 0.25})
        clamps = []
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="reptrace.travos"):
                result = assess_provider(store, ObservationStore(), "a", "b", prefs, make_config())
            (witness,) = result.term_results["q"].witnesses
            assert witness.discounted == BetaParams(1.0, 1.0)
            clamps.append(sum("degenerate" in rec.message for rec in caplog.records))
        assert clamps == [1, 1]

    def test_assess_provider_overall(self):
        prefs = Preferences(
            term_weights={"q": 0.5, "t": 0.5},
            component_weights={I: 0.75, W: 0.25},
        )
        result = assess_provider(
            RatingStore(), ObservationStore(), "a", "b", prefs, make_config()
        )
        assert result.assessment.overall == pytest.approx(0.5)
        diagnostics = result.diagnostics()
        assert diagnostics["q"].low_confidence
        assert diagnostics["q"].witness_trust is None
