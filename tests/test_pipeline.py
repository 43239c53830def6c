"""Document encoding, schema validation and assessment orchestration."""

import dataclasses
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import assert_schema_valid, context_oracle, validate_assessment
from reptrace.core import ReputationType
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

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "demos" / "delivery_scenario.json"

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
                restored.observation_stores[agent].all_records()
                == world.observation_stores[agent].all_records()
            )


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
            assert result.travos_diagnostics is not None

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
            rating_stores={a.id: RatingStore() for a in world.agents},
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
    try:
        explanation = make()
    except NotPreferredError as exc:
        return type(exc).__name__
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


class TestExplanationDocuments:
    def pair(self, world, model):
        ranked = rank(world, model, "alice")
        ids = [r.assessment.target for r in ranked]
        return ids[0], ids[1]

    def check_encoding(self, world, model):
        # The document holds only JSON values, so it survives a JSON round
        # trip unchanged, and each argument lists its kind, then its fields
        # in dataclass order.
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
            names = [f.name for f in dataclasses.fields(argument)]
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

    def test_schema_matches_dataclass_fields(self):
        schema = load_schema("explanation")
        defs = schema["$defs"]
        refs = [one["$ref"] for one in schema["properties"]["arguments"]["items"]["oneOf"]]
        assert refs == [f"#/$defs/{cls.kind}" for cls in ARGUMENT_KINDS]
        for cls in ARGUMENT_KINDS:
            names = [f.name for f in dataclasses.fields(cls)]
            assert defs[cls.kind]["required"] == ["kind", *names], cls.__name__
