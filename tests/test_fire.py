"""Recency weighting, component aggregation and full assessments."""

import math

import pytest
from hypothesis import given, strategies as st

from oracles import validate_assessment
from reptrace.core import (
    ComponentTrust,
    Preferences,
    Rating,
    ReputationType,
    build_assessment,
    weighted_mean,
)
from reptrace import fire
from reptrace.fire import (
    FireConfig,
    assess_provider,
    component_trust,
    recency_weight,
    role_pseudo_ratings,
)
from reptrace.store import RatingStore, RoleRule

I = ReputationType.INTERACTION
W = ReputationType.WITNESS
R = ReputationType.ROLE_BASED
C = ReputationType.CERTIFIED


def rating(value, ts, source="a", target="b", term="q", rep_type=I):
    return Rating(
        source=source,
        target=target,
        term=term,
        rep_type=rep_type,
        value=value,
        timestamp=ts,
    )


def config(lambda_=5.0):
    return FireConfig(lambda_=lambda_)


class TestRecencyWeight:
    def test_fresh_rating(self):
        assert recency_weight(0, 3.0) == 1.0

    def test_one_scale_unit(self):
        assert recency_weight(5.0, 5.0) == pytest.approx(0.36788, abs=5e-6)

    def test_large_scale_approaches_one(self):
        assert recency_weight(10.0, 1e9) == pytest.approx(1.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            recency_weight(-1.0, 1.0)
        with pytest.raises(ValueError):
            recency_weight(1.0, 0.0)

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_strictly_decreasing_in_age(self, t1, t2, lam):
        if t1 < t2:
            assert recency_weight(t1, lam) >= recency_weight(t2, lam)
            # Strict only away from exp underflow.
            if t2 - t1 > 1e-9 and recency_weight(t2, lam) > 1e-300:
                assert recency_weight(t1, lam) > recency_weight(t2, lam)

    @given(
        st.floats(min_value=0.5, max_value=100.0),
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_strictly_increasing_in_scale(self, age, l1, l2):
        if l1 < l2:
            assert recency_weight(age, l1) <= recency_weight(age, l2)
            if l2 - l1 > 1e-6 and recency_weight(age, l1) > 1e-300:
                assert recency_weight(age, l1) < recency_weight(age, l2)


class TestComponentTrust:
    def test_equal_timestamps_mean(self):
        ratings = [rating(0.4, ts=3), rating(0.6, ts=3)]
        out = component_trust(ratings, I, 0.75, config(), now=3)
        assert out.value == pytest.approx(0.5, abs=1e-12)

    def test_role_rules_weighted_by_likelihood(self):
        pseudo = [(0.9, 0.8), (0.4, 0.2)]
        out = component_trust([], R, 0.25, config(), now=0, role_evidence=pseudo)
        assert out.value == pytest.approx(0.8, abs=1e-12)

    def test_recency_weighted_mix(self):
        # lambda = 1/ln2 makes one round a half-life: weights 1 and 0.5,
        # so the mix of 1.0 (fresh) and 0.0 (one round old) is 1/1.5.
        lam = 1.0 / math.log(2)
        ratings = [rating(1.0, ts=5), rating(0.0, ts=4)]
        out = component_trust(ratings, I, 0.75, config(lambda_=lam), now=5)
        assert out.value == pytest.approx(2 / 3, abs=1e-9)

    def test_empty_is_absent(self):
        out = component_trust([], I, 0.75, config(), now=0)
        assert out.value is None and out.weight == 0.0

    @given(
        st.integers(0, 60).flatmap(
            lambda now: st.tuples(
                st.just(now),
                st.lists(
                    st.tuples(st.floats(min_value=0.0, max_value=1.0), st.integers(0, now)),
                    min_size=1,
                    max_size=12,
                ),
            )
        ),
        st.sampled_from([0.25, 1.0, 1.0 / math.log(2), 5.0, 37.5]),
    )
    def test_weights_equal_per_rating_recency_weights(self, now_and_pairs, lam):
        # Bit for bit, not within a tolerance.
        now, pairs = now_and_pairs
        ratings = [rating(v, ts=ts) for v, ts in pairs]
        weights = [recency_weight(now - r.timestamp, lam) for r in ratings]
        expected = weighted_mean([(r.value, w) for r, w in zip(ratings, weights)])
        assert component_trust(ratings, I, 0.75, config(lambda_=lam), now=now).value == expected

    def test_rating_after_now_rejected(self):
        ratings = [rating(0.5, ts=3), rating(0.7, ts=6)]
        for _ in range(2):
            with pytest.raises(ValueError):
                component_trust(ratings, I, 0.75, config(), now=5)

    def test_large_now_weighs_each_rating_by_its_age(self):
        # A weight table with one entry per round up to ``now`` would
        # never finish here.
        now, lam = 10**9, 4.25
        ratings = [rating(0.5, ts=0), rating(0.7, ts=now - 3), rating(0.1, ts=now - 3)]
        out = component_trust(ratings, I, 0.75, config(lambda_=lam), now=now)
        w = recency_weight(3, lam)
        assert out.value == weighted_mean([(0.5, 0.0), (0.7, w), (0.1, w)])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0), st.integers(0, 20)
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_same_timestamp_equals_uniform(self, pairs):
        ratings = [rating(v, ts=7) for v, _ in pairs]
        a = component_trust(ratings, I, 0.75, config(), now=12)
        b = component_trust(ratings, I, 0.75, config(), now=12, recency=False)
        assert abs(a.value - b.value) <= 1e-12

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0), st.integers(0, 20)
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_bounds(self, pairs):
        ratings = [rating(v, ts=ts) for v, ts in pairs]
        values = [v for v, _ in pairs]
        for recency in (True, False):
            out = component_trust(ratings, I, 0.75, config(), now=25, recency=recency)
            assert min(values) - 1e-12 <= out.value <= max(values) + 1e-12


class TestComponentTrustUniform:
    def test_plain_mean(self):
        out = component_trust(
            [rating(0.2, ts=0), rating(0.9, ts=9)], I, 0.75, config(), now=9, recency=False
        )
        assert out.value == pytest.approx(0.55, abs=1e-12)

    def test_single_value(self):
        out = component_trust([rating(0.3, ts=0)], I, 0.75, config(), now=5, recency=False)
        assert out.value == pytest.approx(0.3)

    def test_empty_absent(self):
        out = component_trust([], I, 0.75, config(), now=0, recency=False)
        assert out.value is None

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 30)),
            min_size=1,
            max_size=40,
        )
    )
    def test_equals_weighted_mean_of_unit_weights(self, pairs):
        # Bit for bit, not within a tolerance.
        ratings = [rating(v, ts=ts) for v, ts in pairs]
        expected = weighted_mean([(r.value, 1.0) for r in ratings])
        out = component_trust(ratings, I, 0.75, config(), now=30, recency=False)
        assert out.value == expected


def term_trust(components):
    """The term trust ``build_assessment`` combines from ``components``."""
    prefs = Preferences(term_weights={"q": 1.0}, component_weights={I: 0.75, W: 0.25})
    return build_assessment("a", "b", {"q": components}, prefs).per_term["q"].term_trust


class TestTermTrust:
    def test_worked_example(self):
        components = [
            ComponentTrust(I, 0.75, weight=0.75),
            ComponentTrust(W, 0.95, weight=0.25),
        ]
        assert term_trust(components) == pytest.approx(0.80, abs=1e-12)

    def test_absent_component_renormalizes(self):
        components = [
            ComponentTrust(I, 0.6, weight=0.75),
            ComponentTrust(W, None, weight=0.0),
        ]
        assert term_trust(components) == pytest.approx(0.6)

    def test_zero_weight_equals_absent(self):
        with_zero = term_trust(
            [ComponentTrust(I, 0.6, weight=0.75), ComponentTrust(W, 0.1, weight=0.0)]
        )
        assert with_zero == pytest.approx(0.6)

    def test_no_evidence_propagates(self):
        assert term_trust([ComponentTrust(I, None, weight=0.0)]) is None
        assert term_trust([ComponentTrust(I, 0.6, weight=0.0)]) is None


TABLE = {
    "B": {"quality": (0.75, 0.95), "timeliness": (0.55, 0.70), "cost": (0.40, 0.30)},
    "C": {"quality": (0.10, 0.40), "timeliness": (0.20, 0.15), "cost": (0.15, 0.15)},
    "D": {"quality": (0.50, 0.60), "timeliness": (0.95, 0.80), "cost": (0.10, 0.10)},
    "E": {"quality": (0.10, 0.90), "timeliness": (0.20, 1.00), "cost": (0.40, 0.95)},
}
TABLE_ROUNDED = {
    "B": {"quality": 0.80, "timeliness": 0.59, "cost": 0.38},
    "C": {"quality": 0.18, "timeliness": 0.19, "cost": 0.15},
    "D": {"quality": 0.53, "timeliness": 0.91, "cost": 0.10},
    "E": {"quality": 0.30, "timeliness": 0.40, "cost": 0.54},
}


def test_running_example_term_trusts():
    for provider, terms in TABLE.items():
        for term, (vi, vw) in terms.items():
            value = weighted_mean([(vi, 0.75), (vw, 0.25)])
            assert abs(value - TABLE_ROUNDED[provider][term]) <= 0.005 + 1e-12


class TestAssessProvider:
    def prefs(self):
        return Preferences(
            term_weights={"q": 1.0}, component_weights={I: 0.75, W: 0.25}
        )

    def build_store(self):
        store = RatingStore("a")
        store.insert(rating(0.2, ts=0))
        store.insert(rating(0.9, ts=5))
        store.insert(rating(0.8, ts=5, source="w", rep_type=W))
        return store

    def test_components_and_uniform_baseline(self):
        store = self.build_store()
        # A witness record authored by the assessor never counts, nor does
        # another agent's interaction record: the store refuses both.
        for foreign in (rating(0.1, ts=5, source="a", rep_type=W), rating(0.0, ts=5, source="w")):
            with pytest.raises(ValueError):
                store.insert(foreign)
        assert store.all_records() == self.build_store().all_records()
        fa = assess_provider(
            store,
            "a",
            "b",
            self.prefs(),
            config(lambda_=1.0),
            now=5,
        )
        validate_assessment(fa.assessment, self.prefs())
        validate_assessment(fa.uniform, self.prefs())
        weighted_i = fa.assessment.component_value("q", I)
        uniform_i = fa.uniform.component_value("q", I)
        e5 = math.exp(-5.0)
        assert weighted_i == pytest.approx((0.9 + e5 * 0.2) / (1 + e5), abs=1e-12)
        assert uniform_i == pytest.approx(0.55, abs=1e-12)
        assert fa.assessment.component_value("q", W) == pytest.approx(0.8)

    def test_component_weight_is_importance(self):
        fa = assess_provider(
            self.build_store(), "a", "b", self.prefs(), config(lambda_=1.0), now=5
        )
        for assessment in (fa.assessment, fa.uniform):
            for rep_type, importance in ((I, 0.75), (W, 0.25)):
                component = assessment.component("q", rep_type)
                assert component.weight == importance

    def test_role_rules_flow(self):
        prefs = Preferences(
            term_weights={"q": 1.0}, component_weights={I: 0.5, R: 0.5}
        )
        rules = [
            RoleRule("buyer", "courier", "q", likelihood=0.8, expected_value=0.8),
            RoleRule("buyer", "courier", "q", likelihood=0.2, expected_value=-0.2),
        ]
        fa = assess_provider(
            RatingStore("a"),
            "a",
            "b",
            prefs,
            FireConfig(lambda_=5.0),
            now=0,
            role_rules=rules,
            agent_roles={"a": ("buyer",), "b": ("courier",)},
        )
        # Expected values are on the bipolar scale: 0.8 -> 0.9, -0.2 -> 0.4.
        expected = (0.8 * 0.9 + 0.2 * 0.4) / 1.0
        assert fa.assessment.component_value("q", R) == pytest.approx(expected, abs=1e-12)
        assert fa.assessment.term_trust("q") == pytest.approx(expected, abs=1e-12)

    def test_components_of_zero_importance_are_never_read(self, monkeypatch):
        class CountingStore(RatingStore):
            def query(self, target, term, rep_type):
                queried.append((term, rep_type))
                return super().query(target, term, rep_type)

        def counting_role_pseudo_ratings(*args):
            instantiated.append(args)
            return role_pseudo_ratings(*args)

        queried, instantiated = [], []
        monkeypatch.setattr(fire, "role_pseudo_ratings", counting_role_pseudo_ratings)
        store = CountingStore("a")
        store.insert(rating(0.9, ts=1))
        store.insert(rating(0.2, ts=1, source="w", rep_type=W))
        store.insert(rating(0.4, ts=1, source="c", rep_type=C))
        rules = [RoleRule("buyer", "courier", "q", likelihood=0.8, expected_value=0.8)]
        prefs = Preferences(
            term_weights={"q": 1.0, "t": 2.0},
            component_weights={I: 0.5, W: 0.0, R: 0.0, C: 0.0},
        )
        fa = assess_provider(
            store, "a", "b", prefs, config(), now=1, role_rules=rules,
            agent_roles={"a": ("buyer",), "b": ("courier",)},
        )
        assert queried == [("q", I), ("t", I)]
        assert instantiated == []
        assert fa.assessment.overall == 0.9

        # The same world with role-based importance instantiates the rules
        # once per term, shared by the weighted and the uniform assessment.
        queried.clear()
        prefs = Preferences(
            term_weights={"q": 1.0, "t": 2.0}, component_weights={I: 0.5, R: 0.5}
        )
        fa = assess_provider(
            store, "a", "b", prefs, config(), now=1, role_rules=rules,
            agent_roles={"a": ("buyer",), "b": ("courier",)},
        )
        assert queried == [("q", I), ("t", I)]
        assert [args[3] for args in instantiated] == ["q", "t"]
        assert fa.assessment.component_value("q", R) == pytest.approx(0.9)

    def test_no_matching_role_rules(self):
        out = role_pseudo_ratings(
            [RoleRule("x", "y", "q", 0.5, 0.5)], ("buyer",), ("courier",), "q"
        )
        assert out == []
