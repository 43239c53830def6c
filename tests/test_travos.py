"""Beta-evidence numerics, discounting and the per-term pipeline."""

import logging
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from oracles import beta_mass_quadrature, beta_mean_std
from reptrace.core import Preferences, Rating, ReputationType
from reptrace import travos
from reptrace.store import ObservationStore, RatingStore
from reptrace.travos import (
    SUCCESS_THRESHOLD,
    BetaParams,
    TravosConfig,
    UNIFORM_STD,
    assess_provider,
    assess_term,
    beta_from_moments,
    binarize_value,
    binarized_beta,
    combine_evidence,
    confidence,
    decomposition_weights,
    discount_opinion,
    gather_witness_opinions,
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
        timestamp=ts,
        interaction_id=iid,
    )


params_strategy = st.tuples(
    st.floats(min_value=1.0, max_value=60.0), st.floats(min_value=1.0, max_value=60.0)
).map(lambda ab: BetaParams(*ab))


class TestEvidenceCounting:
    def test_counts(self):
        ratings = [rating(1.0)] * 3 + [rating(0.0)]
        assert type(binarized_beta(ratings)) is BetaParams
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


witness_record = st.tuples(
    st.sampled_from(["w1", "w2", "w3"]),
    st.sampled_from(["b", "c"]),
    st.sampled_from(["q", "r"]),
    st.one_of(
        st.sampled_from([0.0, SUCCESS_THRESHOLD, math.nextafter(SUCCESS_THRESHOLD, 0.0), 1.0]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    st.integers(0, 9),
)


class TestGatherWitnessOpinions:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(witness_record, max_size=30))
    def test_matches_grouping_oracle(self, records):
        store = RatingStore("a")
        for source, target, term, value, ts in records:
            store.insert(rating(value, source=source, target=target, term=term, rep_type=W, ts=ts))
        for target in ("b", "c"):
            for term in ("q", "r"):
                by_witness = {}
                for source, t, tm, value, _ in records:
                    if (t, tm) == (target, term):
                        by_witness.setdefault(source, []).append(binarize_value(value))
                expected = [
                    (w, BetaParams(1.0 + sum(b), 1.0 + (len(b) - sum(b))))
                    for w, b in sorted(by_witness.items())
                ]
                assert gather_witness_opinions(store, target, term) == expected


class TestExpectedValue:
    def test_uniform(self):
        assert BetaParams(1, 1).mean == 0.5

    def test_counts(self):
        assert abs(BetaParams(4, 2).mean - 4 / 6) <= 1e-12

    @given(st.floats(min_value=0.5, max_value=50.0))
    def test_symmetric(self, a):
        assert BetaParams(a, a).mean == 0.5

    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0), (math.nan, 1.0)])
    def test_parameters_must_be_positive(self, alpha, beta):
        with pytest.raises(ValueError, match="must be positive"):
            BetaParams(alpha, beta)


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
            with pytest.raises(ValueError, match="regularized incomplete beta failed"):
                regularized_incomplete_beta(0.5, math.inf, 2.0)


class TestWitnessAccuracy:
    def test_no_history_is_prior_bin_mass(self):
        assert abs(witness_accuracy(0, 0, opinion_bin=3, bins=5) - 0.2) <= 1e-9

    def test_confirmed_witness(self):
        rho = witness_accuracy(10, 10, opinion_bin=5, bins=5)
        assert abs(rho - (1.0 - 0.8**11)) <= 1e-9
        assert rho > 0.6

    def test_contradicted_witness(self):
        rho = witness_accuracy(10, 0, opinion_bin=5, bins=5)
        oracle = beta_mass_quadrature(1.0, 11.0, 0.8, 1.0)
        assert rho < 0.01
        assert abs(rho - oracle) <= 1e-9


class TestDiscounting:
    def test_zero_accuracy_gives_uniform_prior(self):
        p = discount_opinion(BetaParams(4, 2), 0.0)
        assert abs(p.alpha - 1.0) <= 1e-9 and abs(p.beta - 1.0) <= 1e-9

    def test_full_accuracy_roundtrips(self):
        p = discount_opinion(BetaParams(4, 2), 1.0)
        assert abs(p.alpha - 4.0) <= 1e-6 and abs(p.beta - 2.0) <= 1e-6

    def test_half_accuracy_matches_moment_oracle(self):
        source = BetaParams(4, 2)
        rho = 0.5
        p = discount_opinion(source, rho)
        mean, std = beta_mean_std(p.alpha, p.beta)
        src_mean, src_std = beta_mean_std(4, 2)
        assert abs(mean - (0.5 + rho * (src_mean - 0.5))) <= 1e-9
        assert abs(std - (UNIFORM_STD + rho * (src_std - UNIFORM_STD))) <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(params_strategy, st.floats(min_value=0.0, max_value=1.0))
    def test_discounted_mean_is_convex_toward_half(self, p, rho):
        discounted = discount_opinion(p, rho)
        assert abs(discounted.mean - 0.5) <= abs(p.mean - 0.5) + 1e-9

    def test_degenerate_moments_clamp(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="reptrace.travos"):
            p = beta_from_moments(0.5, 0.5)
        assert type(p) is BetaParams
        assert p == BetaParams(1.0, 1.0)
        assert any("degenerate" in rec.message for rec in caplog.records)


class TestCombination:
    def test_literal_sum(self):
        combined = combine_evidence(BetaParams(3, 2), [BetaParams(2, 1)])
        assert type(combined) is BetaParams
        assert combined == BetaParams(5, 3)

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
        store = RatingStore("a")
        for ts in range(30):
            store.insert(rating(1.0 if ts % 2 else 0.0, ts=ts))
        store.insert(rating(0.9, source="w", rep_type=W, ts=0))
        res = assess_term(store, ObservationStore(), "b", "q", make_config())
        assert not res.low_confidence
        assert res.witnesses == ()
        interaction_component = res.components[0]
        assert interaction_component.weight == 1.0
        assert res.witness_trust is None

    def test_interaction_evidence_is_the_assessors_own(self):
        own, mixed = RatingStore("a"), RatingStore("a")
        for value in (1.0, 0.0):
            own.insert(rating(value))
            mixed.insert(rating(value))
        # Another agent's interaction record never counts: the store refuses it.
        for ts in range(5):
            with pytest.raises(ValueError):
                mixed.insert(rating(1.0, source="w", ts=ts))
        results = [
            assess_term(store, ObservationStore(), "b", "q", make_config())
            for store in (own, mixed)
        ]
        assert results[0] == results[1]

    def test_assessors_own_witness_records_are_no_opinion(self):
        store = RatingStore("a")
        with pytest.raises(ValueError):
            store.insert(rating(1.0, source="a", rep_type=W, ts=0))
        store.insert(rating(0.0, source="w", rep_type=W, ts=0))
        res = assess_term(store, ObservationStore(), "b", "q", make_config())
        assert [c.witness for c in res.witnesses] == ["w"]

    def test_formula_chain_with_perfect_witness(self):
        # Interaction prior only, one fully trusted witness holding (11, 1).
        discounted = discount_opinion(BetaParams(11, 1), 1.0)
        combined = combine_evidence(BetaParams(1, 1), [discounted])
        assert abs(combined.mean - 12 / 14) <= 1e-6

    def test_no_evidence_flags_low_confidence(self):
        res = assess_term(
            RatingStore("a"), ObservationStore(), "b", "q", make_config()
        )
        # The prior alone: the term trust is the interaction mean, 0.5.
        assert [(c.value, c.weight) for c in res.components] == [(0.5, 1.0), (None, 0.0)]
        assert res.low_confidence
        assert res.interaction_confidence == pytest.approx(0.1, abs=1e-9)

    def test_confidence_at_the_threshold_is_not_low(self):
        # Two successes and a failure give Beta(3, 2), whose mass within
        # 0.2 of its mean is 0.6400000000000002: a threshold of exactly
        # that value is met, and one a float step above it is not.
        store = RatingStore("a")
        for ts, value in enumerate((0.9, 0.2, 0.8)):
            store.insert(rating(value, ts=ts))
        at = 0.6400000000000002
        for threshold, low in ((at, False), (math.nextafter(at, 1.0), True)):
            config = make_config(epsilon=0.2, confidence_threshold=threshold)
            res = assess_term(store, ObservationStore(), "b", "q", config)
            assert res.interaction_confidence == at
            assert res.low_confidence is low

    def test_opinion_on_a_bin_edge_reads_the_history_in_its_bin(self):
        # The witness's opinion, 15/22, is the lower bound of bin 16 of
        # 22; its history of that same opinion must count toward it.
        store = RatingStore("a")
        for ts in range(20):
            store.insert(rating(1.0 if ts < 14 else 0.0, source="w", rep_type=W, ts=ts))
        obs = ObservationStore()
        obs.add("w", "q", 15 / 22, 6, 6)
        config = make_config(epsilon=0.05, bins=22)
        [contribution] = assess_term(store, obs, "b", "q", config).witnesses
        assert contribution.opinion.mean == 15 / 22
        assert contribution.opinion_bin == 16
        assert contribution.accuracy != witness_accuracy(0, 0, 16, 22)
        assert contribution.accuracy == witness_accuracy(6, 6, 16, 22)

    def test_witness_pipeline_and_recombination(self):
        store = RatingStore("a")
        store.insert(rating(1.0, ts=0))  # one own success: low confidence
        for ts in range(8):
            store.insert(rating(1.0, source="w1", rep_type=W, ts=ts, iid=f"w1-{ts}"))
            store.insert(
                rating(1.0 if ts < 2 else 0.0, source="w2", rep_type=W, ts=ts, iid=f"w2-{ts}")
            )
        obs = ObservationStore()
        # w1 has been accurate before: high opinions followed by good outcomes.
        obs.add("w1", "q", 0.85, 6, 6)
        res = assess_term(store, obs, "b", "q", make_config())
        assert res.low_confidence
        assert {c.witness for c in res.witnesses} == {"w1", "w2"}
        w_i, w_w = (res.components[0].weight, res.components[1].weight)
        recombined = (
            w_i * res.components[0].value + w_w * res.components[1].value
        )
        pooled = combine_evidence(res.interaction, [c.discounted for c in res.witnesses])
        assert abs(recombined - pooled.mean) <= 1e-9
        assert abs(w_i + w_w - 1.0) <= 1e-12
        # The accurate witness is discounted less than the unknown one.
        by_witness = {c.witness: c for c in res.witnesses}
        assert by_witness["w1"].accuracy > by_witness["w2"].accuracy
        assert by_witness["w1"].discounted.mass > by_witness["w2"].discounted.mass

    def test_every_assessment_logs_its_clamp(self, caplog, monkeypatch):
        # Binarized counts always invert to feasible moments, so widen the
        # prior's spread until discounting toward it is infeasible.
        monkeypatch.setattr(travos, "UNIFORM_STD", 0.9)
        store = RatingStore("a")
        store.insert(rating(1.0, source="w", rep_type=W, ts=0))
        prefs = Preferences(term_weights={"q": 1.0}, component_weights={I: 0.75, W: 0.25})
        # One pair of stores: the second assessment reads the witness pool
        # the first one kept.
        obs = ObservationStore()
        clamps = []
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="reptrace.travos"):
                result = assess_provider(store, obs, "a", "b", prefs, make_config())
            (witness,) = result.term_results["q"].witnesses
            assert witness.discounted == BetaParams(1.0, 1.0)
            clamps.append(sum("degenerate" in rec.message for rec in caplog.records))
        assert clamps == [1, 1]

    def test_fresh_observation_stores_are_not_kept(self):
        # One rating store assessed with a fresh observation store each
        # time keeps one witness pool, not one per observation store.
        store = RatingStore("a")
        store.insert(rating(1.0, source="w", rep_type=W, ts=0))
        prefs = Preferences(term_weights={"q": 1.0}, component_weights={I: 0.75, W: 0.25})
        config = make_config(confidence_threshold=0.9)
        observation_stores, kept = [], []
        for _ in range(50):
            obs = ObservationStore()
            observation_stores.append(weakref.ref(obs))
            result = assess_provider(store, obs, "a", "b", prefs, config)
            assert [c.witness for c in result.term_results["q"].witnesses] == ["w"]
            kept.append(len(store._derived))
        del obs
        assert kept == kept[:1] * 50
        assert [ref() for ref in observation_stores[:-1]] == [None] * 49

    def test_assess_provider_overall(self):
        prefs = Preferences(
            term_weights={"q": 0.5, "t": 0.5},
            component_weights={I: 0.75, W: 0.25},
        )
        result = assess_provider(
            RatingStore("a"), ObservationStore(), "a", "b", prefs, make_config()
        )
        assert result.assessment.overall == pytest.approx(0.5)
        diagnostics = result.diagnostics()
        assert diagnostics["q"].low_confidence
        assert diagnostics["q"].witness_trust is None
