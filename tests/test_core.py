"""Core combination math and domain type invariants."""

import ast
import json
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from oracles import validate_assessment
from reptrace import cli
from reptrace.core import (
    ComponentTrust,
    Preferences,
    Rating,
    ReputationType,
    build_assessment,
    total,
    weighted_mean,
)
from reptrace.fire import role_pseudo_ratings
from reptrace.store import RoleRule

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "demos" / "delivery_scenario.json"
SRC = Path(__file__).resolve().parent.parent / "src" / "reptrace"

I = ReputationType.INTERACTION
W = ReputationType.WITNESS


def ct(rep_type, value, weight):
    return ComponentTrust(rep_type=rep_type, value=value, weight=weight)


def role_value(expected_value):
    """The pseudo-rating value FIRE derives from one matching role rule."""
    rule = RoleRule("buyer", "courier", "q", likelihood=1.0, expected_value=expected_value)
    [(value, weight)] = role_pseudo_ratings([rule], ("buyer",), ("courier",), "q")
    assert weight == rule.likelihood
    return value


class TestNormalize:
    """Role-rule values on FIRE's [-1, 1] scale map affinely onto [0, 1]."""

    def test_bipolar_minimum_maps_to_zero(self):
        assert role_value(-1.0) == 0.0

    def test_bipolar_midpoint(self):
        assert role_value(0.0) == 0.5

    def test_bipolar_maximum_maps_to_one(self):
        assert role_value(1.0) == 1.0

    def test_out_of_range(self):
        for value in (-1.5, 1.0 + 1e-9, math.inf, math.nan):
            with pytest.raises(ValueError):
                RoleRule("buyer", "courier", "q", likelihood=0.5, expected_value=value)

    def test_out_of_range_in_document_exits_2(self, tmp_path, capsys):
        doc = json.loads(SCENARIO_PATH.read_text())
        doc["role_rules"] = [
            {"role_a": "buyer", "role_b": "courier", "term": "quality",
             "likelihood": 0.5, "value": 1.5}
        ]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(path), str(tmp_path / "out.json")]) == 2
        assert "role_rules/0/value" in capsys.readouterr().err

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_roundtrip(self, value):
        mapped = role_value(value)
        # Bit-equal to the affine map from [lo, hi] = [-1, 1] onto [0, 1].
        assert mapped == (value - (-1.0)) / (1.0 - (-1.0))
        assert abs((2.0 * mapped - 1.0) - value) <= 1e-12

    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_monotone(self, a, b):
        na = role_value(a)
        nb = role_value(b)
        if a < b:
            assert na <= nb
            if b - a > 1e-9:
                assert na < nb
        elif a == b:
            assert na == nb


#: One term, for assessments whose overall score the test ignores.
ONE_TERM = Preferences(term_weights={"q": 1.0}, component_weights={I: 0.75, W: 0.25})


class TestCombineTermTrust:
    """A term's trust is the weighted mean of its present components."""

    def test_worked_example(self):
        # 0.75 * 0.75 + 0.25 * 0.95 = 0.80
        value = weighted_mean([(0.75, 0.75), (0.95, 0.25)])
        assert abs(value - 0.80) <= 1e-12

    def test_second_worked_example(self):
        value = weighted_mean([(0.55, 0.75), (0.70, 0.25)])
        assert abs(value - 0.5875) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_single_component_passthrough(self, x):
        assert weighted_mean([(x, 1.0)]) == x

    def test_no_evidence(self):
        assert weighted_mean([(0.5, 0.0)]) is None
        assert weighted_mean([(0.5, 0.0), (0.9, 0.0)]) is None
        assert weighted_mean([]) is None
        assessment = build_assessment(
            "a", "b", {"q": [ct(I, None, 0.0), ct(W, None, 0.0)]}, ONE_TERM
        )
        assert assessment.per_term["q"].term_trust is None

    def test_absent_component_drops_out(self):
        assessment = build_assessment(
            "a", "b", {"q": [ct(I, 0.4, 0.75), ct(W, None, 0.0)]}, ONE_TERM
        )
        assert abs(assessment.per_term["q"].term_trust - 0.4) <= 1e-12

    values_weights = st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.01, max_value=10.0),
        ),
        min_size=1,
        max_size=6,
    )

    @given(values_weights)
    def test_weighted_mean_bounds(self, pairs):
        value = weighted_mean(pairs)
        values = [v for v, _ in pairs]
        assert min(values) - 1e-12 <= value <= max(values) + 1e-12

    @given(values_weights, st.floats(min_value=0.01, max_value=1000.0))
    def test_weight_scaling_invariance(self, pairs, scale):
        base = weighted_mean(pairs)
        scaled = weighted_mean([(v, w * scale) for v, w in pairs])
        assert abs(base - scaled) <= 1e-12


TABLE_TERM_TRUSTS = {
    "B": {"quality": 0.80, "timeliness": 0.5875, "cost": 0.375},
    "C": {"quality": 0.175, "timeliness": 0.1875, "cost": 0.15},
    "D": {"quality": 0.525, "timeliness": 0.9125, "cost": 0.10},
    "E": {"quality": 0.30, "timeliness": 0.40, "cost": 0.5375},
}
TERM_WEIGHTS = {"quality": 0.45, "timeliness": 0.35, "cost": 0.20}


def overall(term_trusts, term_weights):
    """The preference-weighted mean of term trusts, paired by term."""
    return weighted_mean((v, term_weights[t]) for t, v in term_trusts.items())


class TestOverallTrust:
    """The overall score is the preference-weighted mean of term trusts."""

    def test_running_example_scores(self):
        value = overall(TABLE_TERM_TRUSTS["B"], TERM_WEIGHTS)
        assert abs(value - 0.640625) <= 1e-12

    def test_rounded_inputs(self):
        value = overall({"quality": 0.18, "timeliness": 0.19, "cost": 0.15}, TERM_WEIGHTS)
        assert abs(value - 0.1775) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_constant_inputs(self, x):
        value = overall({"a": x, "b": x, "c": x}, {"a": 1.0, "b": 2.0, "c": 0.5})
        assert abs(value - x) <= 1e-12

    def test_undefined_mean_is_none(self):
        assert overall({}, {}) is None
        assert overall({"a": 0.5}, {"a": 0.0}) is None
        assert overall({"a": 0.5, "b": 0.7}, {"a": 0.0, "b": 0.0}) is None

    def test_full_table_reproduction(self):
        expected = {"B": 0.64, "C": 0.17, "D": 0.58, "E": 0.38}
        for provider, terms in TABLE_TERM_TRUSTS.items():
            score = overall(terms, TERM_WEIGHTS)
            assert round(score, 2) == expected[provider]

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(min_value=0.0, max_value=1.0),
            min_size=1,
        ),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_weight_scale_invariance(self, trusts, scale):
        weights = {t: 1.0 + i for i, t in enumerate(trusts)}
        a = overall(trusts, weights)
        b = overall(trusts, {t: w * scale for t, w in weights.items()})
        assert abs(a - b) <= 1e-12


def _scopes(node, name):
    """(dotted name, nodes in source order) of ``node``'s own scope, then
    of every function and class inside it; a scope's nodes leave out
    those of the scopes inside it."""
    own, inner, stack = [], [], list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner.append(child)
            continue
        if hasattr(child, "lineno"):
            own.append(child)
        stack.extend(ast.iter_child_nodes(child))
    yield name, sorted(own, key=lambda n: (n.lineno, n.col_offset))
    for child in inner:
        yield from _scopes(child, f"{name}.{child.name}")


class TestSummationOrder:
    """Figures are summed left to right, so no Python version rounds them
    differently: the built-in ``sum`` compensates rounding from 3.12 on."""

    def test_total_adds_left_to_right(self):
        # A left fold loses the 1.0; math.fsum and 3.12's sum keep it.
        assert total([1e16, 1.0, -1e16]) == 0.0
        assert total([1e16, -1e16, 1.0]) == 1.0
        # So does the numerator of a weighted mean.
        assert weighted_mean([(1.0, 1e16), (1.0, 1.0), (-1.0, 1e16)]) == 0.0

    def test_every_float_sum_goes_through_core(self):
        # Flags any call of the built-in sum, and any += onto a name that
        # its function first set to a float literal, outside the two folds.
        folds = {"core.total", "core.weighted_mean"}
        paths = sorted(SRC.glob("*.py"))
        assert paths
        found = []
        for path in paths:
            tree = ast.parse(path.read_text(), filename=str(path))
            for where, nodes in _scopes(tree, path.stem):
                first_float: dict[str, bool] = {}
                for node in nodes:
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "sum"):
                        found.append(f"{where}:{node.lineno} calls sum")
                    elif isinstance(node, ast.Assign):
                        is_float = (isinstance(node.value, ast.Constant)
                                    and type(node.value.value) is float)
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                first_float.setdefault(target.id, is_float)
                    elif (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                            and isinstance(node.target, ast.Name)
                            and first_float.get(node.target.id) and where not in folds):
                        found.append(f"{where}:{node.lineno} adds onto {node.target.id}")
        assert not found, found


class TestTypes:
    def test_type_by_value_finds_its_dict_key(self):
        assert {W: "found"}[ReputationType("witness")] == "found"
        assert ReputationType("witness") in {W}

    def test_dict_of_every_type_survives_a_pickle_round_trip(self):
        table = {k: k.value for k in ReputationType}
        copy = pickle.loads(pickle.dumps(table))
        # Unpickled members are the singletons, so each finds its key.
        assert all(c is k for c, k in zip(copy, table))
        assert all(copy[k] == k.value for k in ReputationType)

    def test_members_hash_by_identity(self):
        for k in ReputationType:
            assert hash(k) == object.__hash__(k)

    def test_component_absent_value_requires_zero_weight(self):
        with pytest.raises(ValueError):
            ComponentTrust(rep_type=I, value=None, weight=0.5)

    def test_component_value_range(self):
        with pytest.raises(ValueError, match=r"^component trust 1\.5 outside \[0, 1\]$"):
            ComponentTrust(rep_type=I, value=1.5, weight=1.0)

    def test_component_weight_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            ComponentTrust(rep_type=I, value=0.5, weight=-0.1)
        assert ComponentTrust(rep_type=I, value=0.5, weight=0.0).weight == 0.0

    def test_rating_validation(self):
        with pytest.raises(ValueError, match=r"^rating value 1\.5 outside \[0, 1\]$"):
            Rating("a", "b", "t", I, value=1.5, timestamp=0)
        with pytest.raises(ValueError):
            Rating("", "b", "t", I, value=0.5, timestamp=0)
        with pytest.raises(ValueError):
            Rating("a", "b", "t", I, value=0.5, timestamp=-1)

    def test_preferences_validation(self):
        with pytest.raises(ValueError):
            Preferences(term_weights={}, component_weights={I: 1.0})
        with pytest.raises(ValueError):
            Preferences(term_weights={"t": 0.0}, component_weights={I: 1.0})
        with pytest.raises(ValueError):
            Preferences(term_weights={"t": 1.0}, component_weights={I: -0.1})
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                Preferences(term_weights={"t": 1.0, "u": bad}, component_weights={I: 1.0})
            with pytest.raises(ValueError, match="finite"):
                Preferences(term_weights={"t": 1.0}, component_weights={I: bad})

    def test_preferences_reject_an_overflowing_weight_sum(self):
        huge = 1.7e308
        with pytest.raises(ValueError, match="term weights invalid: the sum"):
            Preferences(term_weights={"t": huge, "u": huge}, component_weights={I: 1.0})
        with pytest.raises(ValueError, match="component weights invalid: the sum"):
            Preferences(term_weights={"t": 1.0}, component_weights={I: huge, W: huge})
        Preferences(term_weights={"t": huge, "u": 0.0}, component_weights={I: huge})

    def test_preferences_term_order(self):
        prefs = Preferences(
            term_weights={"z": 1.0, "a": 2.0}, component_weights={I: 1.0}
        )
        assert prefs.terms == ("z", "a")


class TestBuildAssessment:
    def prefs(self):
        return Preferences(
            term_weights={"q": 0.6, "t": 0.4}, component_weights={I: 0.75, W: 0.25}
        )

    def test_build_and_validate(self):
        assessment = build_assessment(
            "a",
            "b",
            {
                "q": [ct(I, 0.8, 0.75), ct(W, 0.4, 0.25)],
                "t": [ct(I, 0.5, 0.75)],
            },
            self.prefs(),
        )
        validate_assessment(assessment, self.prefs())
        assert abs(assessment.per_term["q"].term_trust - 0.7) <= 1e-12
        assert assessment.per_term["t"].term_trust == 0.5
        assert abs(assessment.overall - (0.6 * 0.7 + 0.4 * 0.5)) <= 1e-12

    def test_unevidenced_term_skipped(self):
        assessment = build_assessment(
            "a", "b", {"q": [ct(I, 0.8, 1.0)], "t": []}, self.prefs()
        )
        assert assessment.per_term["t"].term_trust is None
        assert abs(assessment.overall - 0.8) <= 1e-12
        validate_assessment(assessment, self.prefs())

    def test_no_evidence_at_all(self):
        assessment = build_assessment("a", "b", {}, self.prefs())
        assert assessment.overall is None
        validate_assessment(assessment, self.prefs())

    def test_validation_catches_tampering(self):
        assessment = build_assessment(
            "a", "b", {"q": [ct(I, 0.8, 1.0)], "t": [ct(I, 0.5, 1.0)]}, self.prefs()
        )
        tampered = assessment._replace(overall=0.9)
        with pytest.raises(ValueError):
            validate_assessment(tampered, self.prefs())
