"""Document round-trips, schema validation and assessment orchestration."""

import json
from pathlib import Path

import pytest

from reptrace.core import ReputationType, validate_assessment
from reptrace.errors import ConfigError, UnknownAgentError
from reptrace.explain import Model
from reptrace.pipeline import (
    assess_all,
    build_context,
    dump_document,
    explain_pair,
    explanation_from_document,
    explanation_to_document,
    rank,
    ranking_to_document,
    world_from_document,
    world_from_simulation,
    world_to_document,
)
from reptrace.scenario import load_scenario, scenario_from_document
from reptrace.simulate import run_scenario

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "demos" / "delivery_scenario.json"

I = ReputationType.INTERACTION


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


class TestAssessment:
    def test_fire_ranking(self, world):
        ranked = rank(world, Model.FIRE, "alice")
        assert len(ranked) == 3
        overalls = [r.assessment.overall for r in ranked]
        assert overalls == sorted(overalls, reverse=True)
        for result in ranked:
            validate_assessment(result.assessment, world.preferences)
            validate_assessment(result.uniform, world.preferences)

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


class TestExplanationDocuments:
    def pair(self, world, model):
        ranked = rank(world, model, "alice")
        ids = [r.assessment.target for r in ranked]
        return ids[0], ids[1]

    def test_fire_explanation_roundtrip(self, world):
        preferred, other = self.pair(world, Model.FIRE)
        explanation = explain_pair(world, Model.FIRE, "alice", preferred, other)
        doc = explanation_to_document(explanation)
        assert explanation_from_document(doc) == explanation

    def test_travos_explanation_roundtrip(self, world):
        preferred, other = self.pair(world, Model.TRAVOS)
        explanation = explain_pair(world, Model.TRAVOS, "alice", preferred, other)
        doc = explanation_to_document(explanation)
        assert explanation_from_document(doc) == explanation

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
