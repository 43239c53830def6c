"""Orchestration: stores documents, rankings and explanation documents.

This module glues the stores, backends and explanation layer together for
programmatic use and for the command line. It owns the JSON document
formats and keeps serialization deterministic: identical inputs produce
byte-identical documents. Input documents are validated against the
shipped schemas. Output documents are not; the tests check them against
the same schemas instead.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

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
    ARGUMENT_KINDS,
    Argument,
    ComparisonContext,
    Explanation,
    FireDiagnostics,
    Model,
    TravosDiagnostics,
    explain,
)
from .fire import FireConfig, assess_provider as assess_fire
from .scenario import config_from_document, validate_document
from .simulate import AgentSpec, SimulationWorld
from .store import ObservationRecord, ObservationStore, RatingStore, RoleRule
from .travos import (
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
    return {
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
            # FIRE reliability is the constant 1; stores/v1 keeps the key.
            "reliability_plugin": None,
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


def _check_subject(rec: dict, where: str, providers: set, terms: Mapping) -> None:
    """Reject a record about anything but a listed provider and a declared term."""
    if rec["target"] not in providers:
        raise ConfigError(f"{where}/target: {rec['target']!r} is not a listed provider")
    if rec["term"] not in terms:
        raise ConfigError(f"{where}/term: {rec['term']!r} is not a declared term")


def world_from_document(doc: dict) -> World:
    """Rebuild a world from a stores document.

    Beyond the schema, every record must be one an engine reads: it sits
    in a listed agent's store, is about a listed provider on a declared
    term, and is sourced as its store and kind require.
    """
    validate_document(doc, "stores")
    config = config_from_document(doc, "stores")
    rounds = config["rounds"]
    terms = config["preferences"].term_weights
    agent_ids = {agent.id for agent in config["agents"]}
    provider_ids = {p["id"] for p in doc["providers"]}
    for section in ("ratings", "observations"):
        for key in doc[section]:
            if key not in agent_ids:
                raise ConfigError(
                    f"stores document invalid at {section}/{key}: "
                    f"{key!r} is not a listed agent"
                )
    rating_stores: dict[AgentId, RatingStore] = {}
    for agent in config["agents"]:
        store = RatingStore(history_cap=config["fire"].history_cap)
        for index, rec in enumerate(doc["ratings"].get(agent.id, ())):
            where = f"stores document invalid at ratings/{agent.id}/{index}"
            if rec["timestamp"] > rounds - 1:
                raise ConfigError(
                    f"{where}/timestamp: "
                    f"{rec['timestamp']} is after the last round {rounds - 1}"
                )
            rep_type = rec["rep_type"]
            if rep_type == "interaction" and rec["source"] != agent.id:
                raise ConfigError(
                    f"{where}/source: an interaction rating in {agent.id}'s store "
                    f"must have source {agent.id!r}, not {rec['source']!r}"
                )
            if rep_type == "witness" and rec["source"] == agent.id:
                raise ConfigError(
                    f"{where}/source: a witness rating in {agent.id}'s store "
                    f"must not have source {agent.id!r}"
                )
            _check_subject(rec, where, provider_ids, terms)
            store.insert(
                Rating(
                    source=rec["source"],
                    target=rec["target"],
                    term=rec["term"],
                    rep_type=ReputationType(rep_type),
                    value=float(rec["value"]),
                    raw_value=float(rec["raw_value"]),
                    timestamp=int(rec["timestamp"]),
                    interaction_id=rec.get("interaction_id"),
                )
            )
        rating_stores[agent.id] = store
    observation_stores: dict[AgentId, ObservationStore] = {}
    for agent in config["agents"]:
        obs = ObservationStore()
        for index, rec in enumerate(doc["observations"].get(agent.id, ())):
            where = f"stores document invalid at observations/{agent.id}/{index}"
            if rec["assessor"] != agent.id:
                raise ConfigError(
                    f"{where}/assessor: an observation in {agent.id}'s store must "
                    f"have assessor {agent.id!r}, not {rec['assessor']!r}"
                )
            if rec["witness"] == agent.id or rec["witness"] not in agent_ids:
                raise ConfigError(
                    f"{where}/witness: an observation in {agent.id}'s store must "
                    f"name another listed agent, not {rec['witness']!r}"
                )
            _check_subject(rec, where, provider_ids, terms)
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
        providers=tuple(
            ProviderRef(id=p["id"], roles=tuple(p.get("roles", ())))
            for p in doc["providers"]
        ),
        rating_stores=rating_stores,
        observation_stores=observation_stores,
        **config,
    )


def dump_document(doc: dict) -> str:
    """Deterministic JSON serialization (insertion-ordered keys)."""
    return (
        json.dumps(doc, indent=2, sort_keys=False, ensure_ascii=False, allow_nan=False)
        + "\n"
    )


@dataclass(frozen=True)
class ProviderResult:
    """One provider's assessment plus, under TRAVOS, per-term diagnostics."""

    assessment: Assessment
    travos_diagnostics: Optional[Mapping[Term, TravosTermDiagnostics]] = None


def _assess(
    world: World, model: Model, assessor: AgentId, provider: AgentId, baseline: bool
):
    # Calls go through the module-level names ``assess_fire`` and
    # ``assess_travos``, which is where the benchmark's tracer wraps them.
    store = world.rating_stores[assessor]
    if model is Model.FIRE:
        return assess_fire(
            store,
            assessor,
            provider,
            world.preferences,
            world.fire,
            now=world.now,
            role_rules=world.role_rules,
            agent_roles=world.agent_roles(),
            baseline=baseline,
        )
    return assess_travos(
        store,
        world.observation_stores[assessor],
        assessor,
        provider,
        world.preferences,
        world.travos,
    )


def assess_all(
    world: World, model: Model, assessor: AgentId
) -> dict[AgentId, ProviderResult]:
    """Assess every provider in the world under one model.

    FIRE's uniform baseline is not built: only explanation contexts read
    it, and ``build_context`` builds it for the two providers it compares.
    """
    world.require_agent(assessor)
    results: dict[AgentId, ProviderResult] = {}
    for provider in world.providers:
        found = _assess(world, model, assessor, provider.id, baseline=False)
        results[provider.id] = ProviderResult(
            assessment=found.assessment,
            travos_diagnostics=None if model is Model.FIRE else found.diagnostics(),
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
    """Assemble the comparison context for one provider pair.

    Only ``preferred`` and ``other`` are assessed. Under FIRE both come
    with their uniform baselines; under TRAVOS, with their per-term
    diagnostics.
    """
    world.require_provider(preferred)
    world.require_provider(other)
    world.require_agent(assessor)
    pref, oth = (
        _assess(world, model, assessor, provider, baseline=True)
        for provider in (preferred, other)
    )
    fire_diag = None
    travos_diag = None
    if model is Model.FIRE:
        fire_diag = FireDiagnostics(
            uniform_preferred=pref.uniform, uniform_other=oth.uniform
        )
    else:
        travos_diag = TravosDiagnostics(
            threshold=world.travos.confidence_threshold,
            preferred=pref.diagnostics(),
            other=oth.diagnostics(),
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
        # Both models' reliability is the constant 1; ranking/v1 keeps the key.
        "reliability": 1.0,
    }


def ranking_to_document(
    model: Model, assessor: AgentId, ranked: list[ProviderResult]
) -> dict:
    return {
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


# The explanation document's argument objects are derived from the
# dataclasses in ARGUMENT_KINDS: {"kind": cls.kind, <field>: <value>, ...}
# in field order.


def _field_to_doc(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_field_to_doc(v) for v in value]
    if isinstance(value, Mapping):
        return dict(value)
    return value


_ARGUMENT_FIELDS = {
    cls: tuple(f.name for f in fields(cls)) for cls in ARGUMENT_KINDS
}


def _argument_to_doc(argument: Argument) -> dict:
    doc = {"kind": argument.kind}
    for name in _ARGUMENT_FIELDS[type(argument)]:
        doc[name] = _field_to_doc(getattr(argument, name))
    return doc


def explanation_to_document(explanation: Explanation) -> dict:
    return {
        "schema": EXPLANATION_SCHEMA,
        "model": explanation.model.value if explanation.model else None,
        "assessor": explanation.assessor,
        "preferred": explanation.preferred,
        "other": explanation.other,
        "arguments": [_argument_to_doc(a) for a in explanation.arguments],
    }
