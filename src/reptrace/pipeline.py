"""Orchestration: stores documents, rankings and explanation documents.

This module glues the stores, backends and explanation layer together for
programmatic use and for the command line. It owns the JSON document
formats (validated against the shipped schemas) and keeps serialization
deterministic: identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional

from .core import (
    AgentId,
    Assessment,
    ComponentTrust,
    Preferences,
    Rating,
    ReputationType,
    Term,
)
from .errors import ConfigError, UnknownAgentError
from .explain import (
    ComparisonContext,
    DecisiveDominance,
    DecisiveTradeoff,
    Explanation,
    FireDiagnostics,
    FireRecencyGlobal,
    FireRecencyLocal,
    Model,
    TravosDiagnostics,
    TravosLowConfidence,
    TypePermutation,
    explain,
)
from .fire import FireConfig, assess_provider as assess_fire
from .scenario import validate_document
from .simulate import AgentSpec, SimulationWorld
from .store import ObservationRecord, ObservationStore, RatingStore, RoleRule
from .travos import (
    TravosAssessment,
    TravosConfig,
    TravosTermDiagnostics,
    assess_provider as assess_travos,
)

STORES_SCHEMA = "reptrace/stores/v1"
RANKING_SCHEMA = "reptrace/ranking/v1"
EXPLANATION_SCHEMA = "reptrace/explanation/v1"


@dataclass(frozen=True)
class ProviderRef:
    id: AgentId
    roles: tuple[str, ...] = ()


@dataclass
class World:
    """Everything an assessment needs, detached from the generative model."""

    seed: int
    rounds: int
    preferences: Preferences
    fire: FireConfig
    travos: TravosConfig
    agents: tuple[AgentSpec, ...]
    providers: tuple[ProviderRef, ...]
    role_rules: tuple[RoleRule, ...]
    rating_stores: dict[AgentId, RatingStore]
    observation_stores: dict[AgentId, ObservationStore]

    @property
    def now(self) -> int:
        return self.rounds - 1

    def agent_roles(self) -> dict[AgentId, tuple[str, ...]]:
        roles = {a.id: a.roles for a in self.agents}
        roles.update({p.id: p.roles for p in self.providers})
        return roles

    def require_agent(self, agent_id: AgentId) -> None:
        if agent_id not in {a.id for a in self.agents}:
            raise UnknownAgentError(f"unknown assessor {agent_id!r}")

    def require_provider(self, provider_id: AgentId) -> None:
        if provider_id not in {p.id for p in self.providers}:
            raise UnknownAgentError(f"unknown provider {provider_id!r}")


def world_from_simulation(sim: SimulationWorld) -> World:
    sc = sim.scenario
    return World(
        seed=sc.seed,
        rounds=sc.rounds,
        preferences=sc.preferences,
        fire=sc.fire,
        travos=sc.travos,
        agents=sc.agents,
        providers=tuple(ProviderRef(id=p.id, roles=p.roles) for p in sc.providers),
        role_rules=sc.role_rules,
        rating_stores=sim.rating_stores,
        observation_stores=sim.observation_stores,
    )


def _rating_to_doc(r: Rating) -> dict:
    return {
        "source": r.source,
        "target": r.target,
        "term": r.term,
        "rep_type": r.rep_type.value,
        "value": r.value,
        "raw_value": r.raw_value,
        "timestamp": r.timestamp,
        "interaction_id": r.interaction_id,
    }


def _observation_to_doc(o: ObservationRecord) -> dict:
    return {
        "assessor": o.assessor,
        "witness": o.witness,
        "target": o.target,
        "term": o.term,
        "interaction_id": o.interaction_id,
        "opinion_value": o.opinion_value,
        "outcome_rating": o.outcome_rating,
    }


def world_to_document(world: World) -> dict:
    """Serialize a world as a stores document."""
    doc = {
        "schema": STORES_SCHEMA,
        "seed": world.seed,
        "rounds": world.rounds,
        "terms": dict(world.preferences.term_weights),
        "component_weights": {
            k.value: v for k, v in world.preferences.component_weights.items()
        },
        "fire": {
            "lambda": world.fire.lambda_,
            "history_cap": world.fire.history_cap,
            "reliability_plugin": world.fire.reliability_plugin,
        },
        "travos": {
            "epsilon": world.travos.epsilon,
            "confidence_threshold": world.travos.confidence_threshold,
            "bins": world.travos.bins,
        },
        "agents": [{"id": a.id, "roles": list(a.roles)} for a in world.agents],
        "providers": [{"id": p.id, "roles": list(p.roles)} for p in world.providers],
        "role_rules": [
            {
                "role_a": r.role_a,
                "role_b": r.role_b,
                "term": r.term,
                "likelihood": r.likelihood,
                "value": r.expected_value,
            }
            for r in world.role_rules
        ],
        "ratings": {
            a.id: [
                _rating_to_doc(r) for r in world.rating_stores[a.id].all_records()
            ]
            for a in world.agents
        },
        "observations": {
            a.id: [
                _observation_to_doc(o)
                for o in world.observation_stores[a.id].all_records()
            ]
            for a in world.agents
        },
    }
    validate_document(doc, "stores")
    return doc


def world_from_document(doc: dict) -> World:
    """Rebuild a world from a stores document."""
    validate_document(doc, "stores")
    term_weights = {str(t): float(w) for t, w in doc["terms"].items()}
    importance = {
        ReputationType.from_string(k): float(v)
        for k, v in doc["component_weights"].items()
    }
    try:
        preferences = Preferences(
            term_weights=term_weights, component_weights=importance
        )
        fire = FireConfig(
            lambda_=float(doc["fire"]["lambda"]),
            importance=importance,
            reliability_plugin=doc["fire"].get("reliability_plugin"),
            history_cap=doc["fire"].get("history_cap"),
        )
        travos = TravosConfig(
            epsilon=float(doc["travos"]["epsilon"]),
            confidence_threshold=float(doc["travos"]["confidence_threshold"]),
            bins=int(doc["travos"]["bins"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    agents = tuple(
        AgentSpec(id=a["id"], roles=tuple(a.get("roles", ()))) for a in doc["agents"]
    )
    providers = tuple(
        ProviderRef(id=p["id"], roles=tuple(p.get("roles", ())))
        for p in doc["providers"]
    )
    role_rules = tuple(
        RoleRule(
            role_a=r["role_a"],
            role_b=r["role_b"],
            term=r["term"],
            likelihood=float(r["likelihood"]),
            expected_value=float(r["value"]),
        )
        for r in doc.get("role_rules", ())
    )
    rounds = int(doc["rounds"])
    rating_stores: dict[AgentId, RatingStore] = {}
    for agent in agents:
        store = RatingStore(history_cap=fire.history_cap)
        for index, rec in enumerate(doc["ratings"].get(agent.id, ())):
            if rec["timestamp"] > rounds - 1:
                raise ConfigError(
                    f"stores document invalid at ratings/{agent.id}/{index}/timestamp: "
                    f"{rec['timestamp']} is after the last round {rounds - 1}"
                )
            store.insert(
                Rating(
                    source=rec["source"],
                    target=rec["target"],
                    term=rec["term"],
                    rep_type=ReputationType.from_string(rec["rep_type"]),
                    value=float(rec["value"]),
                    raw_value=float(rec["raw_value"]),
                    timestamp=int(rec["timestamp"]),
                    interaction_id=rec.get("interaction_id"),
                )
            )
        rating_stores[agent.id] = store
    observation_stores: dict[AgentId, ObservationStore] = {}
    for agent in agents:
        obs = ObservationStore()
        for rec in doc["observations"].get(agent.id, ()):
            obs.insert(
                ObservationRecord(
                    assessor=rec["assessor"],
                    witness=rec["witness"],
                    target=rec["target"],
                    term=rec["term"],
                    interaction_id=rec["interaction_id"],
                    opinion_value=float(rec["opinion_value"]),
                    outcome_rating=float(rec["outcome_rating"]),
                )
            )
        observation_stores[agent.id] = obs
    return World(
        seed=int(doc["seed"]),
        rounds=rounds,
        preferences=preferences,
        fire=fire,
        travos=travos,
        agents=agents,
        providers=providers,
        role_rules=role_rules,
        rating_stores=rating_stores,
        observation_stores=observation_stores,
    )


def dump_document(doc: dict) -> str:
    """Deterministic JSON serialization (insertion-ordered keys)."""
    return (
        json.dumps(doc, indent=2, sort_keys=False, ensure_ascii=False, allow_nan=False)
        + "\n"
    )


@dataclass(frozen=True)
class ProviderResult:
    """One provider's assessment plus per-model diagnostics."""

    assessment: Assessment
    uniform: Optional[Assessment] = None
    travos_diagnostics: Optional[Mapping[Term, TravosTermDiagnostics]] = None


def assess_all(
    world: World, model: Model, assessor: AgentId
) -> dict[AgentId, ProviderResult]:
    """Assess every provider in the world under one model."""
    world.require_agent(assessor)
    store = world.rating_stores[assessor]
    obs = world.observation_stores[assessor]
    results: dict[AgentId, ProviderResult] = {}
    for provider in world.providers:
        if model is Model.FIRE:
            fa = assess_fire(
                store,
                assessor,
                provider.id,
                world.preferences,
                world.fire,
                now=world.now,
                role_rules=world.role_rules,
                agent_roles=world.agent_roles(),
            )
            results[provider.id] = ProviderResult(
                assessment=fa.assessment, uniform=fa.uniform
            )
        else:
            ta: TravosAssessment = assess_travos(
                store, obs, assessor, provider.id, world.preferences, world.travos
            )
            results[provider.id] = ProviderResult(
                assessment=ta.assessment, travos_diagnostics=ta.diagnostics()
            )
    return results


def rank(world: World, model: Model, assessor: AgentId) -> list[ProviderResult]:
    """Providers sorted by overall score descending; ties and missing
    scores order by provider id."""
    results = assess_all(world, model, assessor)

    def sort_key(item):
        provider_id, result = item
        overall = result.assessment.overall
        return (0 if overall is not None else 1, -(overall or 0.0), provider_id)

    return [r for _, r in sorted(results.items(), key=sort_key)]


def build_context(
    world: World, model: Model, assessor: AgentId, preferred: AgentId, other: AgentId
) -> ComparisonContext:
    """Assemble the comparison context for one provider pair."""
    world.require_provider(preferred)
    world.require_provider(other)
    results = assess_all(world, model, assessor)
    pref, oth = results[preferred], results[other]
    fire_diag = None
    travos_diag = None
    if model is Model.FIRE:
        fire_diag = FireDiagnostics(
            uniform_preferred=pref.uniform, uniform_other=oth.uniform
        )
    else:
        travos_diag = TravosDiagnostics(
            threshold=world.travos.confidence_threshold,
            preferred=pref.travos_diagnostics,
            other=oth.travos_diagnostics,
        )
    return ComparisonContext(
        assessor=assessor,
        preferred=pref.assessment,
        other=oth.assessment,
        preferences=world.preferences,
        model=model,
        fire_diagnostics=fire_diag,
        travos_diagnostics=travos_diag,
    )


def explain_pair(
    world: World, model: Model, assessor: AgentId, preferred: AgentId, other: AgentId
) -> Explanation:
    return explain(build_context(world, model, assessor, preferred, other))


def _component_to_doc(c: ComponentTrust) -> dict:
    return {
        "type": c.rep_type.value,
        "value": c.value,
        "weight": c.weight,
        "reliability": c.reliability,
    }


def ranking_to_document(
    model: Model, assessor: AgentId, ranked: list[ProviderResult]
) -> dict:
    doc = {
        "schema": RANKING_SCHEMA,
        "model": model.value,
        "assessor": assessor,
        "providers": [
            {
                "id": r.assessment.target,
                "overall": r.assessment.overall,
                "terms": {
                    term: {
                        "trust": ta.term_trust,
                        "components": [_component_to_doc(c) for c in ta.components],
                    }
                    for term, ta in r.assessment.per_term.items()
                },
            }
            for r in ranked
        ],
    }
    validate_document(doc, "ranking")
    return doc


def _argument_to_doc(argument) -> dict:
    if isinstance(argument, DecisiveDominance):
        return {
            "kind": "decisive_dominance",
            "pros": list(argument.pros),
            "weighted_differences": dict(argument.weighted_differences),
            "reference": argument.reference,
        }
    if isinstance(argument, DecisiveTradeoff):
        return {
            "kind": "decisive_tradeoff",
            "pros": list(argument.pros),
            "cons": list(argument.cons),
            "weighted_differences": dict(argument.weighted_differences),
        }
    if isinstance(argument, TypePermutation):
        return {
            "kind": "type_permutation",
            "term": argument.term,
            "swaps": [[a.value, b.value] for a, b in argument.swaps],
            "preferred_original": argument.preferred_original,
            "other_original": argument.other_original,
            "preferred_swapped": argument.preferred_swapped,
            "other_swapped": argument.other_swapped,
        }
    if isinstance(argument, FireRecencyGlobal):
        return {
            "kind": "recency_overall",
            "preferred_overall": argument.preferred_overall,
            "other_overall": argument.other_overall,
            "uniform_preferred_overall": argument.uniform_preferred_overall,
            "uniform_other_overall": argument.uniform_other_overall,
        }
    if isinstance(argument, FireRecencyLocal):
        return {
            "kind": "recency_component",
            "term": argument.term,
            "rep_type": argument.rep_type.value,
            "preferred_value": argument.preferred_value,
            "other_value": argument.other_value,
            "uniform_preferred_value": argument.uniform_preferred_value,
            "uniform_other_value": argument.uniform_other_value,
        }
    if isinstance(argument, TravosLowConfidence):
        return {
            "kind": "low_confidence",
            "term": argument.term,
            "preferred_confidence": argument.preferred_confidence,
            "other_confidence": argument.other_confidence,
            "preferred_witness_trust": argument.preferred_witness_trust,
            "other_witness_trust": argument.other_witness_trust,
            "threshold": argument.threshold,
        }
    raise TypeError(f"unknown argument kind: {type(argument).__name__}")


def _argument_from_doc(doc: dict):
    kind = doc["kind"]
    if kind == "decisive_dominance":
        return DecisiveDominance(
            pros=tuple(doc["pros"]),
            weighted_differences=dict(doc["weighted_differences"]),
            reference=float(doc["reference"]),
        )
    if kind == "decisive_tradeoff":
        return DecisiveTradeoff(
            pros=tuple(doc["pros"]),
            cons=tuple(doc["cons"]),
            weighted_differences=dict(doc["weighted_differences"]),
        )
    if kind == "type_permutation":
        return TypePermutation(
            term=doc["term"],
            swaps=tuple(
                (ReputationType.from_string(a), ReputationType.from_string(b))
                for a, b in doc["swaps"]
            ),
            preferred_original=float(doc["preferred_original"]),
            other_original=float(doc["other_original"]),
            preferred_swapped=float(doc["preferred_swapped"]),
            other_swapped=float(doc["other_swapped"]),
        )
    if kind == "recency_overall":
        return FireRecencyGlobal(
            preferred_overall=float(doc["preferred_overall"]),
            other_overall=float(doc["other_overall"]),
            uniform_preferred_overall=float(doc["uniform_preferred_overall"]),
            uniform_other_overall=float(doc["uniform_other_overall"]),
        )
    if kind == "recency_component":
        return FireRecencyLocal(
            term=doc["term"],
            rep_type=ReputationType.from_string(doc["rep_type"]),
            preferred_value=float(doc["preferred_value"]),
            other_value=float(doc["other_value"]),
            uniform_preferred_value=float(doc["uniform_preferred_value"]),
            uniform_other_value=float(doc["uniform_other_value"]),
        )
    if kind == "low_confidence":
        return TravosLowConfidence(
            term=doc["term"],
            preferred_confidence=float(doc["preferred_confidence"]),
            other_confidence=float(doc["other_confidence"]),
            preferred_witness_trust=float(doc["preferred_witness_trust"]),
            other_witness_trust=float(doc["other_witness_trust"]),
            threshold=float(doc["threshold"]),
        )
    raise ConfigError(f"unknown argument kind {kind!r}")


def explanation_to_document(explanation: Explanation) -> dict:
    doc = {
        "schema": EXPLANATION_SCHEMA,
        "model": explanation.model.value if explanation.model else None,
        "assessor": explanation.assessor,
        "preferred": explanation.preferred,
        "other": explanation.other,
        "arguments": [_argument_to_doc(a) for a in explanation.arguments],
    }
    validate_document(doc, "explanation")
    return doc


def explanation_from_document(doc: dict) -> Explanation:
    validate_document(doc, "explanation")
    model = Model(doc["model"]) if doc["model"] else None
    return Explanation(
        assessor=doc["assessor"],
        preferred=doc["preferred"],
        other=doc["other"],
        arguments=tuple(_argument_from_doc(a) for a in doc["arguments"]),
        model=model,
    )
