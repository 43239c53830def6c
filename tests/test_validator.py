"""The compiled schema validator against jsonschema, and the document boundary."""

import contextlib
import copy
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import assert_schema_valid, jsonschema_validator
from reptrace.cli import main
from reptrace.errors import ConfigError
from reptrace.explain import ORDER_TOL, Model
from reptrace.pipeline import (
    explain_pair,
    explanation_to_document,
    rank,
    ranking_to_document,
    world_from_simulation,
    world_to_document,
)
from reptrace.scenario import load_schema, scenario_from_document, validate_document
from reptrace.simulate import run_scenario
from reptrace.validator import KEYWORDS, Violation, compile_schema

REPO = Path(__file__).resolve().parent.parent
SCENARIO_PATH = REPO / "demos" / "delivery_scenario.json"
V1_STORES_PATH = REPO / "tests" / "data" / "demo_stores_v1.json"
SCHEMAS = ("scenario", "stores", "stores_v1", "ranking", "explanation")

#: Replacement values: every JSON kind, the edges of the numeric keywords,
#: strings that some enum or const of the shipped schemas accepts, and ids
#: that the stores' record checks reject in some field: an agent, a
#: provider that is not listed and a term that is not declared.
REPLACEMENTS = (
    None, True, False, 0, -0.0, 3.0, 1e300, 2**53 + 1, "", [], ["witness", "role"], {},
    {"extra": 1}, "fire", "travos", "interaction", "witness", "complete",
    "round_robin", "lost", "reptrace/stores/v1", "reptrace/stores/v2", "alice", "mallory",
    "colour",
)


def _json_copy(doc):
    return json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def documents():
    scenario = json.loads(SCENARIO_PATH.read_text())
    world = world_from_simulation(run_scenario(scenario_from_document(scenario)))
    ranked = rank(world, Model.FIRE, "alice")
    best, second = (r.assessment.target for r in ranked[:2])
    explanation = explain_pair(world, Model.FIRE, "alice", best, second)
    return {
        "scenario": scenario,
        "stores": _json_copy(world_to_document(world)),
        "stores_v1": json.loads(V1_STORES_PATH.read_text()),
        "ranking": _json_copy(ranking_to_document(Model.FIRE, "alice", ranked)),
        "explanation": _json_copy(explanation_to_document(explanation)),
    }


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, (*path, key))


def mutations(doc):
    """Copies of ``doc`` with one field deleted, added or replaced.

    The field is drawn by location first (the path with list indices
    wildcarded), so each kind of field is as likely as any other however
    many records share it, and then among the records that have it.
    """
    by_location = {}
    for path in _paths(doc):
        location = tuple(k if isinstance(k, str) else None for k in path)
        by_location.setdefault(location, []).append(path)

    @st.composite
    def mutate(draw):
        path = draw(st.sampled_from(draw(st.sampled_from(list(by_location.values())))))
        mutated = copy.deepcopy(doc)
        parent, node = None, mutated
        for key in path:
            parent, node = node, node[key]
        kinds = ["replace"] + ["delete"] * bool(path) + ["extra"] * isinstance(node, dict)
        kind = draw(st.sampled_from(kinds))
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "extra":
            node["extra"] = draw(st.sampled_from(REPLACEMENTS))
        else:
            value = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
            if not path:
                return value
            parent[path[-1]] = value
        return mutated

    return mutate()


@pytest.mark.parametrize("name", SCHEMAS)
def test_shipped_schema_is_valid_json_schema(name):
    schema = load_schema(name)
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "pattern": "^a"},
        {"properties": {"id": {"type": "string", "format": "email"}}},
        {"items": {"$ref": "#/$defs/missing"}, "$defs": {}},
        {"$ref": "other.json#/x"},
        {"type": "decimal"},
    ],
    ids=["pattern", "nested-format", "missing-def", "remote-ref", "unknown-type"],
)
def test_unsupported_schema_is_refused_when_compiled(schema):
    with pytest.raises(ValueError, match="unsupported"):
        compile_schema(schema)


def test_keywords_cover_every_shipped_schema():
    def keys(node):
        if isinstance(node, dict):
            for k, v in node.items():
                yield k
                # Under these keywords the keys are property or def names.
                children = v.values() if k in ("properties", "$defs") else [v]
                for child in children:
                    yield from keys(child)
        elif isinstance(node, list):
            for item in node:
                yield from keys(item)

    used = {k for name in SCHEMAS for k in keys(load_schema(name))}
    assert used == KEYWORDS


@pytest.mark.parametrize(
    "schema, accepted, rejected",
    [
        ({"type": "number"}, [0, -0.0, 1e300, 3.0],
         [True, False, None, "1", [1], float("inf")]),
        ({"type": "integer"}, [3, 3.0, -0.0, 1e300], [3.5, True, "3"]),
        ({"enum": [1, "a", None]}, [1, 1.0, "a", None], [True, 0, "b", [1]]),
        ({"enum": [False]}, [False], [0, 0.0, None]),
        ({"const": [1, {"a": True}]}, [[1.0, {"a": True}]],
         [[1, {"a": 1}], [True, {"a": True}]]),
        ({"minimum": 0}, [0, -0.0, "-1", None, True], [-1, -1e-300]),
        ({"exclusiveMaximum": 1}, [0.999, -(2 ** 2000)], [1, 1.0, 2 ** 2000]),
        ({"minLength": 1}, ["a", 5, None], [""]),
        ({"minProperties": 1, "required": ["a"]}, [{"a": 0}, []], [{}, {"b": 0}]),
    ],
)
def test_json_schema_meanings_match_jsonschema(schema, accepted, rejected):
    check = compile_schema(schema)
    oracle = jsonschema.validators.validator_for(schema)(schema)
    for value in accepted:
        assert oracle.is_valid(value), value
        check(value)
    for value in rejected:
        # The one intended divergence from jsonschema, which takes a
        # non-finite float for a number: JSON has no such number, though
        # json.loads("1e400") returns inf.
        non_finite = isinstance(value, float) and not math.isfinite(value)
        assert oracle.is_valid(value) is non_finite, value
        with pytest.raises(Violation):
            check(value)


def _agrees_with_jsonschema(name, doc):
    oracle = jsonschema_validator(name)
    paths = [tuple(e.absolute_path) for e in oracle.iter_errors(doc)]
    try:
        compile_schema(load_schema(name))(doc)
    except Violation as exc:
        assert paths, f"rejected a document jsonschema accepts: {exc.message}"
        assert exc.path in paths, (exc.path, exc.message, paths)
    else:
        assert not paths, f"accepted a document jsonschema rejects at {paths}"


@pytest.mark.parametrize(
    "name, examples",
    [("scenario", 150), ("stores", 25), ("stores_v1", 25), ("ranking", 150),
     ("explanation", 150)],
)
def test_validator_agrees_with_jsonschema_on_mutations(documents, name, examples):
    @settings(max_examples=examples, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutations(documents[name]))
    def check(doc):
        _agrees_with_jsonschema(name, doc)

    _agrees_with_jsonschema(name, documents[name])
    check()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _finite(node) -> bool:
    if isinstance(node, dict):
        return all(map(_finite, node.values()))
    if isinstance(node, list):
        return all(map(_finite, node))
    return not isinstance(node, float) or math.isfinite(node)


@pytest.fixture(scope="module")
def stores_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "stores.json"


@pytest.fixture(scope="module")
def stores_mutations(documents):
    return mutations(documents["stores"])


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_stores_give_valid_output_or_exit_two(stores_mutations, stores_file, data):
    doc = data.draw(stores_mutations)
    model = data.draw(st.sampled_from(["fire", "travos"]))
    stores_file.write_text(json.dumps(doc))
    argv = [str(stores_file), "--model", model, "--assessor", "alice"]
    code, out, err = _run(["assess", *argv])
    if code == 2:
        assert "invalid at " in err and out == "", err
        return
    assert code == 0, err
    ranking = json.loads(out)
    assert _finite(ranking)
    assert_schema_valid(ranking, "ranking")
    scored = [
        (p["id"], p["overall"]) for p in ranking["providers"] if p["overall"] is not None
    ]
    if len(scored) < 2 or scored[0][1] - scored[1][1] <= ORDER_TOL:
        return
    code, out, err = _run(
        ["explain", *argv, "--preferred", scored[0][0], "--other", scored[1][0]]
    )
    assert code == 0, err
    explanation = json.loads(out)
    assert _finite(explanation)
    assert_schema_valid(explanation, "explanation")


def test_validation_message_names_the_path(documents):
    doc = copy.deepcopy(documents["stores"])
    doc["ratings"]["bob"][3]["value"] = 1.5
    with pytest.raises(ConfigError) as info:
        validate_document(doc, "stores")
    assert str(info.value) == (
        "stores document invalid at ratings/bob/3/value: "
        "1.5 is greater than the maximum of 1"
    )
