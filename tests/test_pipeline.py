"""Document encoding, schema validation and assessment orchestration."""

import itertools
import json
import math
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    assert_schema_valid,
    context_oracle,
    fire_reference,
    query_scan,
    travos_reference,
    validate_assessment,
)
from reptrace import fire, pipeline, travos
from reptrace.core import Preferences, Rating, ReputationType
from reptrace.errors import ConfigError, NotPreferredError, UnknownAgentError
from reptrace.explain import (
    ARGUMENT_KINDS,
    ORDER_TOL,
    DecisiveDominance,
    DecisiveTradeoff,
    Explanation,
    FireRecencyGlobal,
    FireRecencyLocal,
    Model,
    TravosLowConfidence,
    TypePermutation,
    explain,
)
from reptrace.pipeline import (
    assess_all,
    build_context,
    dump_document,
    explain_pair,
    explanation_to_document,
    rank,
    ranking_to_document,
    world_from_document,
    world_from_simulation,
    world_to_document,
)
from reptrace.scenario import load_schema, load_scenario, scenario_from_document
from reptrace.simulate import run_scenario
from reptrace.store import ObservationStore, RatingStore
from test_rung_pin import rung_scenario

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "demos" / "delivery_scenario.json"
V1_STORES_PATH = Path(__file__).resolve().parent / "data" / "demo_stores_v1.json"

I = ReputationType.INTERACTION
W = ReputationType.WITNESS
R = ReputationType.ROLE_BASED
C = ReputationType.CERTIFIED


@pytest.fixture(scope="module")
def world():
    scenario = load_scenario(SCENARIO_PATH)
    return world_from_simulation(run_scenario(scenario))


class TestScenarioLoading:
    def test_loads_and_validates(self):
        scenario = load_scenario(SCENARIO_PATH)
        assert scenario.rounds == 10
        assert scenario.preferences.terms[0] == "quality"
        assert scenario.witnesses["alice"] == ("bob", "carol")

    def test_schema_violation_rejected(self):
        doc = json.loads(SCENARIO_PATH.read_text())
        doc["rounds"] = 0
        with pytest.raises(ConfigError):
            scenario_from_document(doc)

    def test_unknown_keys_rejected(self):
        doc = json.loads(SCENARIO_PATH.read_text())
        doc["surprise"] = 1
        with pytest.raises(ConfigError):
            scenario_from_document(doc)

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("REPTRACE_SEED", "7")
        assert load_scenario(SCENARIO_PATH).seed == 7
        monkeypatch.setenv("REPTRACE_SEED", "not-a-number")
        with pytest.raises(ConfigError):
            load_scenario(SCENARIO_PATH)


class TestStoresDocument:
    def test_roundtrip_is_identity(self, world):
        doc = world_to_document(world)
        restored = world_from_document(doc)
        assert dump_document(world_to_document(restored)) == dump_document(doc)

    def test_dump_deterministic(self, world):
        assert dump_document(world_to_document(world)) == dump_document(
            world_to_document(world)
        )

    def test_dump_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dump_document({"overall": float("nan")})

    def test_config_matches_scenario(self, world):
        # Scenario and stores documents share one config reader.
        scenario = load_scenario(SCENARIO_PATH)
        restored = world_from_document(world_to_document(world))
        for name in ("rounds", "preferences", "fire", "travos", "agents", "role_rules"):
            assert getattr(restored, name) == getattr(scenario, name), name

    def test_ratings_preserved(self, world):
        doc = world_to_document(world)
        restored = world_from_document(doc)
        for agent in ("alice", "bob", "carol"):
            assert (
                restored.rating_stores[agent].all_records()
                == world.rating_stores[agent].all_records()
            )
            assert (
                restored.observation_stores[agent].entries()
                == world.observation_stores[agent].entries()
            )


class _Float(float):
    def __repr__(self):
        return "not json"


class _Int(int):
    def __repr__(self):
        return "not json"


class _Str(str):
    def __str__(self):
        return "not json"


class _Dict(dict):
    def items(self):
        return reversed(super().items())


class _Record(NamedTuple):
    a: object
    b: object


#: Keys and strings with every kind of character json escapes or keeps.
json_text = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é", "\u2028", "😀", ""])
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e-05, 5e-324, 1e300, 0.1, 1e16])
    | json_text
    | st.floats(allow_nan=False, allow_infinity=False).map(_Float)
    | st.integers().map(_Int)
    | json_text.map(_Str)
)
json_trees = st.recursive(
    json_scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(json_text, children, max_size=4)
        | st.dictionaries(json_text.map(_Str), children, max_size=2).map(_Dict)
        | st.builds(_Record, children, children)
    ),
    max_leaves=25,
)


class TestDumpDocument:
    """``dump_document`` writes what the indented ``json.dumps`` would."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(json_trees)
    def test_matches_indented_json_dumps(self, doc):
        expected = json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
        assert dump_document(doc) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_the_json_error(self, bad):
        doc = {"providers": [{"overall": 0.5}, {"overall": bad}]}
        with pytest.raises(ValueError) as info:
            dump_document(doc)
        with pytest.raises(ValueError) as expected:
            json.dumps(doc, indent=2, allow_nan=False)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize("key", [1, 1.5, True, None])
    def test_non_string_key_raises(self, key):
        with pytest.raises(TypeError):
            dump_document({"terms": {key: 1.0}})
        # Also once a str key with the same text has its prefix cached.
        dump_document({str(key): 1.0})
        with pytest.raises(TypeError):
            dump_document({key: 1.0})

    def test_key_prefix_cache_stops_growing(self):
        limit = pipeline._KEY_PREFIX_LIMIT
        doc = {f"key{i}": i for i in range(limit + 10)}
        for _ in range(2):
            assert dump_document(doc) == json.dumps(doc, indent=2) + "\n"
        assert len(pipeline._key_prefixes) == limit


#: Ids, models, types and terms: short text, and every kind of character
#: json escapes or keeps.
ranking_text = st.text(max_size=3) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "é", "\u2028", "😀"]
)
ranking_numbers = (
    st.none()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 1.0, 0.75, 0.25])
)


def ranking_docs(min_size=0, max_size=2):
    """Documents of ranking/v1's shape, with any number where it has one;
    every list and terms object holds ``min_size`` to ``max_size`` items."""
    components = st.builds(
        lambda kind, value, weight, reliability: {
            "type": kind, "value": value, "weight": weight, "reliability": reliability
        },
        ranking_text, ranking_numbers, ranking_numbers, ranking_numbers,
    )
    terms = st.builds(
        lambda trust, components: {"trust": trust, "components": components},
        ranking_numbers, st.lists(components, min_size=min_size, max_size=max_size),
    )
    providers = st.builds(
        lambda provider_id, overall, terms: {
            "id": provider_id, "overall": overall, "terms": terms
        },
        ranking_text, ranking_numbers,
        st.dictionaries(ranking_text, terms, min_size=min_size, max_size=max_size),
    )
    return st.builds(
        lambda model, assessor, providers: {
            "schema": pipeline.RANKING_SCHEMA, "model": model, "assessor": assessor,
            "providers": providers,
        },
        ranking_text, ranking_text, st.lists(providers, min_size=min_size, max_size=max_size),
    )


def _ranking_sites(doc):
    """Per level (document, provider, term, component), every
    (parent, slot, object) of a ranking/v1 object in ``doc``; and every
    (object, key) that holds a number."""
    levels, numbers = [[(None, None, doc)], [], [], []], []
    for i, provider in enumerate(doc["providers"]):
        levels[1].append((doc["providers"], i, provider))
        numbers.append((provider, "overall"))
        for term, term_doc in provider["terms"].items():
            levels[2].append((provider["terms"], term, term_doc))
            numbers.append((term_doc, "trust"))
            for j, component in enumerate(term_doc["components"]):
                levels[3].append((term_doc["components"], j, component))
                numbers += [(component, k) for k in ("value", "weight", "reliability")]
    return levels, numbers


@st.composite
def off_shape_rankings(draw):
    """A ranking document with one object or number off ranking/v1's shape,
    at an evenly drawn level."""
    how = draw(st.sampled_from(
        ["extra key", "reordered keys", "dict subclass", "bool", "nested list", "float subclass"]
    ))
    level = draw(st.integers(0, 3))
    doc = draw(ranking_docs(min_size=1, max_size=1))
    levels, numbers = _ranking_sites(doc)
    if how in ("bool", "nested list", "float subclass"):
        owner, key = draw(st.sampled_from(numbers))
        if how == "bool":
            owner[key] = draw(st.booleans())
        elif how == "nested list":
            owner[key] = [[owner[key]]]
        else:
            owner[key] = _Float(draw(st.floats(allow_nan=False, allow_infinity=False)))
        return doc
    parent, slot, target = draw(st.sampled_from(levels[level]))
    if how == "extra key":
        target["extra"] = draw(ranking_numbers)
    elif how == "reordered keys":
        items = list(target.items())
        i = draw(st.integers(0, len(items) - 2))
        items[i], items[i + 1] = items[i + 1], items[i]
        target.clear()
        target.update(items)
    elif parent is None:
        return _Dict(target)
    else:
        parent[slot] = _Dict(target)
    return doc


def _indented_json(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


class TestRankingWriter:
    """Ranking documents take a fixed-shape pass; its text is still the
    indented ``json.dumps``, on shape or off it."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ranking_docs())
    def test_on_shape_matches_indented_json_dumps(self, doc):
        assert dump_document(doc) == _indented_json(doc)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(off_shape_rankings())
    def test_off_shape_matches_indented_json_dumps(self, doc):
        assert dump_document(doc) == _indented_json(doc)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ranking_docs(), st.data())
    def test_non_finite_raises_the_json_error(self, doc, data):
        _, numbers = _ranking_sites(doc)
        if not numbers:
            numbers = [(doc, "extra")]  # off shape: the generic writer raises
        sites = data.draw(st.lists(st.sampled_from(numbers), min_size=1, max_size=2))
        for owner, key in sites:
            owner[key] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(ValueError) as expected:
            _indented_json(doc)
        with pytest.raises(ValueError) as info:
            dump_document(doc)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize("key", [1, 1.5, True, None])
    def test_non_string_term_raises(self, key):
        doc = {
            "schema": pipeline.RANKING_SCHEMA, "model": "fire", "assessor": "a",
            "providers": [{"id": "p", "overall": 0.5, "terms": {key: {
                "trust": 0.5, "components": [],
            }}}],
        }
        with pytest.raises(TypeError):
            dump_document(doc)


class TableStore(RatingStore):
    """A rating store that answers each query from a fixed table, with a
    fresh snapshot every time; ``derived`` reads it through ``query``."""

    def __init__(self, table):
        super().__init__("carol")
        self.table = table

    def query(self, target, term, rep_type):
        return tuple(self.table.get((target, term, rep_type), ()))


class TestWitnessEvidence:
    @pytest.mark.parametrize("model", list(Model))
    def test_explicit_records_come_before_the_peers(self, world, model):
        # carol's store holds an explicit witness copy of each of bob's
        # ratings, and her topology names alice alone: both witnesses
        # count, each once, bob's explicit records first.
        doc = world_to_document(world)
        doc["witnesses"] = {"carol": ["alice"]}
        doc["ratings"]["carol"] += [dict(r, rep_type="witness") for r in doc["ratings"]["bob"]]
        loaded = world_from_document(doc)
        store = loaded.rating_stores["carol"]
        copies = {
            agent: [r._replace(rep_type=W) for r in world.rating_stores[agent].all_records()]
            for agent in ("bob", "alice")
        }
        table = {}
        for provider, term in itertools.product(
            (p.id for p in world.providers), world.preferences.terms
        ):
            table[(provider, term, I)] = world.rating_stores["carol"].query(provider, term, I)
            table[(provider, term, W)] = [
                r
                for agent in ("bob", "alice")
                for r in copies[agent]
                if (r.target, r.term) == (provider, term)
            ]
            assert list(store.query(provider, term, W)) == table[(provider, term, W)]
            assert {r.source for r in table[(provider, term, W)]} == {"bob", "alice"}
        for provider in world.providers:
            if model is Model.FIRE:
                got, expected = (
                    fire.assess_provider(
                        evidence, "carol", provider.id, world.preferences, world.fire,
                        now=world.now, role_rules=world.role_rules,
                        agent_roles=world.agent_roles(),
                    )
                    for evidence in (store, TableStore(table))
                )
            else:
                got, expected = (
                    travos.assess_provider(
                        evidence, loaded.observation_stores["carol"], "carol", provider.id,
                        world.preferences, world.travos,
                    )
                    for evidence in (store, TableStore(table))
                )
            assert got == expected, provider.id


#: Component weights of ``evidence_worlds``: the demo's, and one that also
#: reads certified records.
EVIDENCE_WORLD_WEIGHTS = (
    {"interaction": 0.75, "witness": 0.25},
    {"interaction": 0.5, "witness": 0.25, "certified": 0.25},
)


@st.composite
def evidence_worlds(draw):
    """A world of at most 3 agents, 3 providers and 8 rounds: simulated,
    or loaded from its stores/v2 document with explicit witness and
    certified records added, or the demo's stores/v1 document; loaded
    worlds get a history cap of their own, so loading may evict."""
    kind = draw(st.sampled_from(["simulated", "v2", "v1"]))
    weights = draw(st.sampled_from(EVIDENCE_WORLD_WEIGHTS))
    cap = draw(st.none() | st.integers(1, 6))
    if kind == "v1":
        doc = json.loads(V1_STORES_PATH.read_text())
        doc["fire"]["history_cap"] = cap
        doc["component_weights"] = weights
        return world_from_document(doc)
    doc = json.loads(SCENARIO_PATH.read_text())
    doc["seed"] = draw(st.integers(0, 2**16))
    doc["rounds"] = draw(st.integers(1, 8))
    doc["agents"] = doc["agents"][: draw(st.integers(2, 3))]
    doc["providers"] = doc["providers"][: draw(st.integers(1, 3))]
    doc["component_weights"] = weights
    doc["fire"]["history_cap"] = draw(st.none() | st.integers(1, 6))
    ids = [a["id"] for a in doc["agents"]]
    doc["witnesses"] = {
        a: [b for b in ids if b != a and draw(st.booleans())] for a in ids
    }
    world = world_from_simulation(run_scenario(scenario_from_document(doc)))
    if kind == "simulated":
        return world
    stores = world_to_document(world)
    own = {a: [r for r in stores["ratings"][a] if r["rep_type"] == "interaction"] for a in ids}
    for a in ids:
        for b in ids:
            if b != a and b not in doc["witnesses"][a] and draw(st.booleans()):
                stores["ratings"][a] += [dict(r, rep_type="witness") for r in own[b]]
        if draw(st.booleans()):
            stores["ratings"][a] += [dict(r, rep_type="certified") for r in own[ids[0]]]
    stores["fire"]["history_cap"] = cap
    return world_from_document(stores)


class TestSnapshotReads:
    """Every read of a small world's stores against a fresh scan, and
    both engines against references that scan on every read."""

    @settings(max_examples=45, deadline=None, derandomize=True)
    @given(evidence_worlds())
    def test_queries_and_assessments_match_scans(self, world):
        for agent, provider in itertools.product(world.agents, world.providers):
            store = world.rating_stores[agent.id]
            for term, rep_type in itertools.product(world.preferences.terms, (I, W, C)):
                got = store.query(provider.id, term, rep_type)
                assert list(got) == query_scan(world, agent.id, provider.id, term, rep_type)
                assert store.query(provider.id, term, rep_type) is got
            # Twice each: the second assessment reads what the first derived.
            for _ in range(2):
                fa = fire.assess_provider(
                    store, agent.id, provider.id, world.preferences, world.fire,
                    now=world.now, role_rules=world.role_rules,
                    agent_roles=world.agent_roles(),
                )
                assert fa == fire_reference(world, agent.id, provider.id)
                ta = travos.assess_provider(
                    store, world.observation_stores[agent.id], agent.id, provider.id,
                    world.preferences, world.travos,
                )
                assert ta == travos_reference(world, agent.id, provider.id)


def pipeline_outputs(doc: dict) -> list:
    """Every ranking and explanation document of a stores document, under
    both models, for every agent and ordered provider pair; a pair that
    cannot be explained contributes its error's class name."""
    world = world_from_document(doc)
    providers = [p.id for p in world.providers]
    out = []
    for model, agent in itertools.product(Model, (a.id for a in world.agents)):
        out.append(dump_document(ranking_to_document(model, agent, rank(world, model, agent))))
        for preferred, other in itertools.permutations(providers, 2):
            try:
                explanation = explain_pair(world, model, agent, preferred, other)
            except NotPreferredError as exc:
                out.append(type(exc).__name__)
            else:
                out.append(dump_document(explanation_to_document(explanation)))
    return out


@pytest.fixture(scope="module")
def capped_document(world):
    # An uncapped simulation holds more than the cap per source, so loading
    # it with a cap evicts, and eviction sees the records in document order.
    doc = world_to_document(world)
    doc["fire"]["history_cap"] = 7
    return doc, pipeline_outputs(doc)


class TestRecordOrder:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_capped_outputs_ignore_record_order(self, capped_document, rng):
        doc, expected = capped_document
        shuffled = json.loads(json.dumps(doc))
        for section in ("ratings", "observations"):
            for records in shuffled[section].values():
                rng.shuffle(records)
        assert pipeline_outputs(shuffled) == expected


class TestAssessment:
    def test_fire_ranking(self, world):
        ranked = rank(world, Model.FIRE, "alice")
        assert len(ranked) == 3
        overalls = [r.assessment.overall for r in ranked]
        assert overalls == sorted(overalls, reverse=True)
        for result in ranked:
            validate_assessment(result.assessment, world.preferences)
        # Rankings build no uniform baseline; explanation contexts do.
        ids = [r.assessment.target for r in ranked]
        for preferred, other in zip(ids, ids[1:]):
            diag = build_context(world, Model.FIRE, "alice", preferred, other).fire_diagnostics
            validate_assessment(diag.uniform_preferred, world.preferences)
            validate_assessment(diag.uniform_other, world.preferences)

    def test_travos_ranking(self, world):
        ranked = rank(world, Model.TRAVOS, "alice")
        for result in ranked:
            validate_assessment(result.assessment, world.preferences)

    def test_travos_empty_world_scores_half(self, world):
        from reptrace.pipeline import World
        from reptrace.store import ObservationStore, RatingStore

        empty = World(
            seed=0,
            rounds=1,
            preferences=world.preferences,
            fire=world.fire,
            travos=world.travos,
            agents=world.agents,
            providers=world.providers,
            role_rules=(),
            rating_stores={a.id: RatingStore(a.id) for a in world.agents},
            observation_stores={a.id: ObservationStore() for a in world.agents},
        )
        ranked = rank(empty, Model.TRAVOS, "alice")
        assert all(r.assessment.overall == pytest.approx(0.5) for r in ranked)
        # Ties order by provider id.
        assert [r.assessment.target for r in ranked] == ["bargain", "steady", "swift"]

    def test_unknown_assessor(self, world):
        with pytest.raises(UnknownAgentError):
            assess_all(world, Model.FIRE, "mallory")

    def test_ranking_document_schema(self, world):
        ranked = rank(world, Model.FIRE, "alice")
        doc = ranking_to_document(Model.FIRE, "alice", ranked)
        assert doc["schema"] == "reptrace/ranking/v1"
        assert [p["id"] for p in doc["providers"]] == [
            r.assessment.target for r in ranked
        ]


@st.composite
def small_worlds(draw):
    """The demo scenario cut to at most 3 agents, 3 providers and 10 rounds."""
    doc = json.loads(SCENARIO_PATH.read_text())
    doc["seed"] = draw(st.integers(0, 2**32 - 1))
    doc["rounds"] = draw(st.integers(1, 10))
    doc["agents"] = doc["agents"][: draw(st.integers(1, 3))]
    doc["providers"] = doc["providers"][: draw(st.integers(2, 3))]
    doc["fire"]["history_cap"] = draw(st.sampled_from([None, 3, 7]))
    return world_from_simulation(run_scenario(scenario_from_document(doc)))


def explanation_outcome(make):
    """The explanation document ``make`` builds, or the message the
    ``explain`` command would exit 4 with."""
    try:
        explanation = make()
    except NotPreferredError as exc:
        return f"error: {exc}"
    return dump_document(explanation_to_document(explanation))


class TestContextEquivalence:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_worlds())
    def test_pair_context_equals_every_provider_oracle(self, world):
        # Every pair the ranking orders strictly, plus the first one reversed.
        for model, agent in itertools.product(Model, (a.id for a in world.agents)):
            overall = {
                r.assessment.target: r.assessment.overall for r in rank(world, model, agent)
            }
            pairs = [
                (a, b)
                for a, b in itertools.permutations(overall, 2)
                if None not in (overall[a], overall[b]) and overall[a] - overall[b] > ORDER_TOL
            ]
            pairs += [pair[::-1] for pair in pairs[:1]]
            for preferred, other in pairs:
                expected = context_oracle(world, model, agent, preferred, other)
                assert build_context(world, model, agent, preferred, other) == expected
                assert explanation_outcome(
                    lambda: explain_pair(world, model, agent, preferred, other)
                ) == explanation_outcome(lambda: explain(expected))


@st.composite
def documents_with_a_newcomer(draw):
    """The stores document of an uncapped small world, and a copy with
    one more provider that some agents rated in interactions and that no
    observation mentions."""
    doc = json.loads(SCENARIO_PATH.read_text())
    doc["seed"] = draw(st.integers(0, 2**32 - 1))
    doc["rounds"] = draw(st.integers(1, 10))
    doc["agents"] = doc["agents"][: draw(st.integers(1, 3))]
    doc["providers"] = doc["providers"][: draw(st.integers(2, 3))]
    # The cap counts a source's ratings across providers, so the
    # newcomer's ratings would evict old ones.
    doc["fire"]["history_cap"] = None
    stores = world_to_document(world_from_simulation(run_scenario(scenario_from_document(doc))))
    grown = json.loads(json.dumps(stores))
    newcomer = draw(st.sampled_from(["aaron", "mallow", "zed"]))
    grown["providers"].insert(
        draw(st.integers(0, len(grown["providers"]))), {"id": newcomer, "roles": []}
    )
    values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    for agent, ratings in grown["ratings"].items():
        rounds = draw(st.lists(st.integers(0, doc["rounds"] - 1), max_size=3))
        ratings += [
            {"source": agent, "target": newcomer, "term": term, "rep_type": "interaction",
             "value": draw(values), "timestamp": t, "interaction_id": f"{agent}-{newcomer}-x{i}"}
            for i, t in enumerate(rounds)
            for term in grown["terms"]
        ]
    return stores, grown


class TestIrrelevantProvider:
    """A provider that the old pairs do not involve changes none of their
    explanations, and no old provider's place or scores in a ranking."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(documents_with_a_newcomer())
    def test_old_pairs_and_rankings_unchanged(self, documents):
        old, new = (world_from_document(doc) for doc in documents)
        old_ids = [p.id for p in old.providers]
        for model, agent in itertools.product(Model, (a.id for a in old.agents)):
            before = ranking_to_document(model, agent, rank(old, model, agent))
            after = ranking_to_document(model, agent, rank(new, model, agent))
            assert [p for p in after["providers"] if p["id"] in old_ids] == before["providers"]
            for preferred, other in itertools.permutations(old_ids, 2):
                assert explanation_outcome(
                    lambda: explain_pair(new, model, agent, preferred, other)
                ) == explanation_outcome(lambda: explain_pair(old, model, agent, preferred, other))


def explains(world, model, agent, preferred, other) -> bool:
    """Does ``explain`` justify ``preferred`` over ``other``? False when it
    refuses with NotPreferredError, as the command exits 4."""
    try:
        explain_pair(world, model, agent, preferred, other)
    except NotPreferredError:
        return False
    return True


class TestPairOrientation:
    """``explain A B`` succeeds exactly when ``explain B A`` is refused.
    Both are refused only for a tie within ``ORDER_TOL``, when the
    higher-scored provider is better on no weighted term both have
    evidence on, or when a provider has no overall score: small worlds
    leave some providers without evidence, and ``rank`` lists those last
    while ``explain`` has no argument for that order."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(small_worlds())
    def test_one_orientation_or_a_named_refusal(self, world):
        providers = [p.id for p in world.providers]
        for model, agent in itertools.product(Model, (a.id for a in world.agents)):
            for a, b in itertools.combinations(providers, 2):
                forward = explains(world, model, agent, a, b)
                backward = explains(world, model, agent, b, a)
                assert not (forward and backward)
                if forward or backward:
                    continue
                ctx = build_context(world, model, agent, a, b)
                high, low = ctx.preferred, ctx.other
                if high.overall is None or low.overall is None:
                    continue
                if abs(high.overall - low.overall) <= ORDER_TOL:
                    continue
                if high.overall < low.overall:
                    high, low = low, high
                weights = ctx.preferences.term_weights
                trusts = [(weights[t], high.term_trust(t), low.term_trust(t)) for t in weights]
                assert not any(
                    w > 0 and h is not None and o is not None and h > o for w, h, o in trusts
                )


def request_outputs(world, requests) -> list:
    """The ranking document, or the explanation outcome, of each
    ``(model, agent)`` or ``(model, agent, preferred, other)`` request."""
    out = []
    for model, agent, *pair in requests:
        if pair:
            out.append(explanation_outcome(lambda: explain_pair(world, model, agent, *pair)))
        else:
            out.append(dump_document(ranking_to_document(model, agent, rank(world, model, agent))))
    return out


class TestWarmEqualsCold:
    """What a world keeps from one request never changes another's output."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(small_worlds())
    def test_every_output_equals_a_fresh_worlds(self, world):
        text = dump_document(world_to_document(world))
        providers = [p.id for p in world.providers]
        requests = []
        for model, agent in itertools.product(Model, (a.id for a in world.agents)):
            requests.append((model, agent))
            requests += [(model, agent, *pair) for pair in itertools.permutations(providers, 2)]
        cold = [
            request_outputs(world_from_document(json.loads(text)), [request])[0]
            for request in requests
        ]
        served = world_from_document(json.loads(text))
        for _ in range(2):
            assert request_outputs(served, requests) == cold


class TestKeptValuesFollowMutations:
    """A store mutated after an assessment gives the next assessment what
    a store never assessed before gives."""

    def test_an_observation_added_after_a_ranking_reaches_the_next(self):
        # agent06 of the 16x8x60 world, seed 1, consults witnesses on terms
        # of low confidence; 50 failures after a consulted witness's opinion
        # change that witness's accuracy in the opinion's bin.
        doc = rung_scenario(16, 8, 60, 1)
        world = world_from_simulation(run_scenario(scenario_from_document(doc)))
        agent = "agent06"
        before = {r.assessment.target: r for r in rank(world, Model.TRAVOS, agent)}
        provider, term, consulted = next(
            (provider, term, contribution)
            for provider, result in before.items()
            for term, res in result.term_results.items()
            if res.low_confidence
            for contribution in res.witnesses
        )
        world.observation_stores[agent].add(
            consulted.witness, term, consulted.opinion.mean, 50, 0
        )
        after = {r.assessment.target: r for r in rank(world, Model.TRAVOS, agent)}
        assert after[provider] != before[provider]
        assert after[provider] == travos_reference(world, agent, provider)

    def test_an_insert_after_an_assessment_reaches_the_next(self):
        prefs = Preferences(term_weights={"q": 1.0}, component_weights={I: 0.75, W: 0.25})
        # A threshold high enough that every term here is of low confidence.
        fire_config = fire.FireConfig()
        travos_config = travos.TravosConfig(confidence_threshold=0.9)
        obs = ObservationStore()
        obs.add("w", "q", 0.75, 4, 1)

        def assess(store):
            return (
                fire.assess_provider(store, "a", "b", prefs, fire_config, now=3),
                travos.assess_provider(store, obs, "a", "b", prefs, travos_config),
            )

        def rating(value, source="a", rep_type=I, ts=0):
            return Rating(source, "b", "q", rep_type, value, ts)

        records = [rating(0.8), rating(0.9, source="w", rep_type=W)]
        store = RatingStore("a")
        for record in records:
            store.insert(record)
        # An interaction rating, then a witness rating: TRAVOS reads both
        # buckets each time.
        for new in (rating(0.1, ts=1), rating(0.2, source="w", rep_type=W, ts=2)):
            before = assess(store)
            store.insert(new)
            records.append(new)
            fresh = RatingStore("a")
            for record in records:
                fresh.insert(record)
            after = assess(store)
            assert after == assess(fresh)
            assert after[0] != before[0] and after[1] != before[1]
            assert after[1].term_results["q"].low_confidence


class TestExplanationDocuments:
    def pair(self, world, model):
        ranked = rank(world, model, "alice")
        ids = [r.assessment.target for r in ranked]
        return ids[0], ids[1]

    def check_encoding(self, world, model):
        # The document holds only JSON values, so it survives a JSON round
        # trip unchanged, and each argument lists its kind, then its fields
        # in ``_fields`` order.
        preferred, other = self.pair(world, model)
        explanation = explain_pair(world, model, "alice", preferred, other)
        doc = explanation_to_document(explanation)
        assert_schema_valid(doc, "explanation")
        assert json.loads(dump_document(doc)) == doc
        assert (doc["model"], doc["assessor"], doc["preferred"], doc["other"]) == (
            model.value, "alice", preferred, other,
        )
        assert len(doc["arguments"]) == len(explanation.arguments)
        for argument, arg_doc in zip(explanation.arguments, doc["arguments"]):
            names = list(argument._fields)
            assert list(arg_doc) == ["kind", *names]
            assert arg_doc["kind"] == argument.kind
        assert doc["arguments"][0]["pros"] == list(explanation.arguments[0].pros)

    def test_fire_explanation_roundtrip(self, world):
        self.check_encoding(world, Model.FIRE)

    def test_travos_explanation_roundtrip(self, world):
        self.check_encoding(world, Model.TRAVOS)

    def test_context_carries_diagnostics(self, world):
        preferred, other = self.pair(world, Model.FIRE)
        ctx = build_context(world, Model.FIRE, "alice", preferred, other)
        assert ctx.fire_diagnostics is not None
        preferred, other = self.pair(world, Model.TRAVOS)
        ctx = build_context(world, Model.TRAVOS, "alice", preferred, other)
        assert ctx.travos_diagnostics is not None
        assert ctx.travos_diagnostics.threshold == world.travos.confidence_threshold

    def test_unknown_provider(self, world):
        with pytest.raises(UnknownAgentError):
            build_context(world, Model.FIRE, "alice", "nope", "steady")


#: One argument of every kind, so the document codec meets each field type.
EVERY_KIND = Explanation(
    assessor="alice",
    preferred="swift",
    other="steady",
    model=Model.FIRE,
    arguments=(
        DecisiveDominance(
            pros=("quality", "timeliness"),
            weighted_differences={"quality": 0.25, "timeliness": 0.125, "cost": 0.0},
            reference=0.0625,
        ),
        DecisiveTradeoff(
            pros=("quality",),
            cons=("cost",),
            weighted_differences={"quality": 0.5, "cost": 0.375},
        ),
        TypePermutation(
            term="quality",
            swaps=((I, W), (R, C)),
            preferred_original=0.75,
            other_original=0.5,
            preferred_swapped=0.25,
            other_swapped=0.625,
        ),
        FireRecencyGlobal(
            preferred_overall=0.7,
            other_overall=0.6,
            uniform_preferred_overall=0.4,
            uniform_other_overall=0.55,
        ),
        FireRecencyLocal(
            term="timeliness",
            rep_type=W,
            preferred_value=0.9,
            other_value=0.8,
            uniform_preferred_value=0.3,
            uniform_other_value=0.35,
        ),
        TravosLowConfidence(
            term="cost",
            preferred_confidence=0.125,
            other_confidence=0.0,
            preferred_witness_trust=0.875,
            other_witness_trust=0.5,
            threshold=0.0,
        ),
    ),
)

EVERY_KIND_DOCUMENT = """\
{
  "schema": "reptrace/explanation/v1",
  "model": "fire",
  "assessor": "alice",
  "preferred": "swift",
  "other": "steady",
  "arguments": [
    {
      "kind": "decisive_dominance",
      "pros": [
        "quality",
        "timeliness"
      ],
      "weighted_differences": {
        "quality": 0.25,
        "timeliness": 0.125,
        "cost": 0.0
      },
      "reference": 0.0625
    },
    {
      "kind": "decisive_tradeoff",
      "pros": [
        "quality"
      ],
      "cons": [
        "cost"
      ],
      "weighted_differences": {
        "quality": 0.5,
        "cost": 0.375
      }
    },
    {
      "kind": "type_permutation",
      "term": "quality",
      "swaps": [
        [
          "interaction",
          "witness"
        ],
        [
          "role",
          "certified"
        ]
      ],
      "preferred_original": 0.75,
      "other_original": 0.5,
      "preferred_swapped": 0.25,
      "other_swapped": 0.625
    },
    {
      "kind": "recency_overall",
      "preferred_overall": 0.7,
      "other_overall": 0.6,
      "uniform_preferred_overall": 0.4,
      "uniform_other_overall": 0.55
    },
    {
      "kind": "recency_component",
      "term": "timeliness",
      "rep_type": "witness",
      "preferred_value": 0.9,
      "other_value": 0.8,
      "uniform_preferred_value": 0.3,
      "uniform_other_value": 0.35
    },
    {
      "kind": "low_confidence",
      "term": "cost",
      "preferred_confidence": 0.125,
      "other_confidence": 0.0,
      "preferred_witness_trust": 0.875,
      "other_witness_trust": 0.5,
      "threshold": 0.0
    }
  ]
}
"""


class TestArgumentCodec:
    def test_every_kind_document_is_pinned(self):
        doc = explanation_to_document(EVERY_KIND)
        assert doc == json.loads(EVERY_KIND_DOCUMENT)
        assert dump_document(doc) == EVERY_KIND_DOCUMENT
        assert_schema_valid(doc, "explanation")

    def test_schema_matches_argument_fields(self):
        schema = load_schema("explanation")
        defs = schema["$defs"]
        refs = [one["$ref"] for one in schema["properties"]["arguments"]["items"]["oneOf"]]
        assert refs == [f"#/$defs/{cls.kind}" for cls in ARGUMENT_KINDS]
        for cls in ARGUMENT_KINDS:
            names = list(cls._fields)
            assert defs[cls.kind]["required"] == ["kind", *names], cls.__name__
