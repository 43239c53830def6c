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
import math
from collections.abc import Mapping
from enum import Enum
from typing import Optional

from .core import AgentId, Preferences, Rating, ReputationType
from .errors import ConfigError, UnknownAgentError
from .explain import (
    Argument,
    ComparisonContext,
    Explanation,
    FireDiagnostics,
    Model,
    TravosDiagnostics,
    explain,
)
from .fire import FireAssessment, FireConfig, assess_provider as assess_fire
from .scenario import config_from_document, validate_document
from .simulate import AgentSpec, SimulationWorld, check_witnesses
from .store import ObservationStore, RatingStore, RoleRule, share_witness_evidence
from .travos import (
    TravosAssessment,
    TravosConfig,
    assess_provider as assess_travos,
    binarize_value,
)

STORES_SCHEMA = "reptrace/stores/v2"
#: The previous stores format: still read, never written.
STORES_V1_SCHEMA = "reptrace/stores/v1"
RANKING_SCHEMA = "reptrace/ranking/v1"
EXPLANATION_SCHEMA = "reptrace/explanation/v1"


class World:
    """Everything an assessment needs, detached from the generative model;
    ``witnesses`` maps agents to the witnesses their stores read."""

    def __init__(
        self,
        seed: int,
        rounds: int,
        preferences: Preferences,
        fire: FireConfig,
        travos: TravosConfig,
        agents: tuple[AgentSpec, ...],
        providers: tuple[AgentSpec, ...],
        role_rules: tuple[RoleRule, ...],
        rating_stores: dict[AgentId, RatingStore],
        observation_stores: dict[AgentId, ObservationStore],
        witnesses: Optional[Mapping[AgentId, tuple[AgentId, ...]]] = None,
    ):
        self.seed = seed
        self.rounds = rounds
        self.preferences = preferences
        self.fire = fire
        self.travos = travos
        self.agents = agents
        self.providers = providers
        self.role_rules = role_rules
        self.rating_stores = rating_stores
        self.observation_stores = observation_stores
        self.witnesses = witnesses or {}
        # Agents and providers never change, so every assessment reads one map.
        self._roles = {a.id: a.roles for a in agents}
        self._roles.update({p.id: p.roles for p in providers})

    @property
    def now(self) -> int:
        return self.rounds - 1

    def agent_roles(self) -> dict[AgentId, tuple[str, ...]]:
        """Roles of every agent and provider: one map, built once, that
        callers read and never change."""
        return self._roles

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
        providers=tuple(AgentSpec(id=p.id, roles=p.roles) for p in sc.providers),
        role_rules=sc.role_rules,
        rating_stores=sim.rating_stores,
        observation_stores=sim.observation_stores,
        witnesses=sc.witnesses,
    )


def _rating_to_doc(r: Rating) -> dict:
    return {
        "source": r.source,
        "target": r.target,
        "term": r.term,
        "rep_type": r.rep_type.value,
        "value": r.value,
        "timestamp": r.timestamp,
        "interaction_id": r.interaction_id,
    }


def world_to_document(world: World) -> dict:
    """Serialize a world as a stores document.

    The ``witnesses`` section is written only when some agent has a
    witness, so a world without one is written as before the section.
    """
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
    }
    if any(world.witnesses.get(a.id) for a in world.agents):
        doc["witnesses"] = {a.id: list(world.witnesses.get(a.id, ())) for a in world.agents}
    doc["ratings"] = {
        a.id: [_rating_to_doc(r) for r in world.rating_stores[a.id].all_records()]
        for a in world.agents
    }
    doc["observations"] = {
        a.id: [
            {"witness": witness, "term": term, "opinion_value": value, "n": n,
             "successes": successes}
            for witness, term, value, n, successes in world.observation_stores[a.id].entries()
        ]
        for a in world.agents
    }
    return doc


def _check_term(rec: dict, where: str, terms: Mapping) -> None:
    if rec["term"] not in terms:
        raise ConfigError(f"{where}/term: {rec['term']!r} is not a declared term")


def _check_subject(rec: dict, where: str, providers: set, terms: Mapping) -> None:
    """Reject a record about anything but a listed provider and a declared term."""
    if rec["target"] not in providers:
        raise ConfigError(f"{where}/target: {rec['target']!r} is not a listed provider")
    _check_term(rec, where, terms)


def world_from_document(doc: dict) -> World:
    """Rebuild a world from a stores document, v2 or v1.

    Beyond the schema, every record must be one an engine reads: it sits
    in a listed agent's store, is about a listed provider on a declared
    term, and is sourced as its store and kind require. An observation
    entry names another listed agent as its witness. A v2 entry has at
    most n successes, and no other entry of its store has the same
    witness, term and opinion value. A v1 observation record names its
    store's owner as assessor and counts as one observation.

    A v2 ``witnesses`` section is checked as a scenario's topology is. An
    explicit witness rating from one of its owner's witnesses would
    count that witness twice, so it is rejected.
    """
    v1 = isinstance(doc, dict) and doc.get("schema") == STORES_V1_SCHEMA
    validate_document(doc, "stores_v1" if v1 else "stores", kind="stores")
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
    witnesses = {agent: tuple(peers) for agent, peers in doc.get("witnesses", {}).items()}
    try:
        check_witnesses(witnesses, agent_ids)
    except ConfigError as exc:
        raise exc.in_document("stores") from exc
    rating_stores: dict[AgentId, RatingStore] = {}
    for agent in config["agents"]:
        store = RatingStore(agent.id, history_cap=config["fire"].history_cap)
        not_witness_sources = {agent.id, *witnesses.get(agent.id, ())}
        for index, rec in enumerate(doc["ratings"].get(agent.id, ())):
            where = f"stores document invalid at ratings/{agent.id}/{index}"
            if rec["timestamp"] > rounds - 1:
                raise ConfigError(
                    f"{where}/timestamp: "
                    f"{rec['timestamp']} is after the last round {rounds - 1}"
                )
            rep_type = rec["rep_type"]
            if rep_type == "witness" and rec["source"] in not_witness_sources:
                raise ConfigError(
                    f"{where}/source: a witness rating in {agent.id}'s store must not "
                    f"have source {rec['source']!r}, whose own ratings the store reads"
                )
            _check_subject(rec, where, provider_ids, terms)
            rating = Rating(
                source=rec["source"],
                target=rec["target"],
                term=rec["term"],
                rep_type=ReputationType(rep_type),
                value=float(rec["value"]),
                timestamp=int(rec["timestamp"]),
                interaction_id=rec.get("interaction_id"),
            )
            try:
                store.insert(rating)
            except ValueError as exc:
                # The store's ownership rule: an interaction rating is its owner's.
                raise ConfigError(f"{where}/source: {exc}") from exc
        rating_stores[agent.id] = store
    share_witness_evidence(rating_stores, witnesses)
    observation_stores: dict[AgentId, ObservationStore] = {}
    for agent in config["agents"]:
        obs = ObservationStore()
        seen: dict[tuple, int] = {}
        for index, rec in enumerate(doc["observations"].get(agent.id, ())):
            where = f"stores document invalid at observations/{agent.id}/{index}"
            opinion_value = float(rec["opinion_value"])
            if v1:
                if rec["assessor"] != agent.id:
                    raise ConfigError(
                        f"{where}/assessor: an observation in {agent.id}'s store must "
                        f"have assessor {agent.id!r}, not {rec['assessor']!r}"
                    )
                _check_subject(rec, where, provider_ids, terms)
                n, successes = 1, int(binarize_value(rec["outcome_rating"]))
            else:
                _check_term(rec, where, terms)
                n, successes = int(rec["n"]), int(rec["successes"])
                if successes > n:
                    raise ConfigError(f"{where}/successes: {successes} is more than n ({n})")
                key = (rec["witness"], rec["term"], opinion_value)
                if key in seen:
                    raise ConfigError(
                        f"{where}: repeats the witness, term and opinion_value of "
                        f"observations/{agent.id}/{seen[key]}"
                    )
                seen[key] = index
            if rec["witness"] == agent.id or rec["witness"] not in agent_ids:
                raise ConfigError(
                    f"{where}/witness: an observation in {agent.id}'s store must "
                    f"name another listed agent, not {rec['witness']!r}"
                )
            obs.add(rec["witness"], rec["term"], opinion_value, n, successes)
        observation_stores[agent.id] = obs
    return World(
        seed=int(doc["seed"]),
        providers=tuple(
            AgentSpec(id=p["id"], roles=tuple(p.get("roles", ())))
            for p in doc["providers"]
        ),
        rating_stores=rating_stores,
        observation_stores=observation_stores,
        witnesses=witnesses,
        **config,
    )


def dump_document(doc: dict) -> str:
    """Deterministic JSON serialization (insertion-ordered keys).

    The text is ``json.dumps(doc, indent=2, ensure_ascii=False,
    allow_nan=False)`` plus a newline, byte for byte, but written by
    ``_json`` in one recursive pass: any ``indent`` puts ``json.dumps`` on
    its pure-Python encoder, about twice as slow. A non-finite float
    raises the same ``ValueError``. A key that is not a string raises
    ``TypeError``, where ``json.dumps`` would coerce an int, float, bool
    or None key; no document has one.
    """
    return _json(doc, "\n") + "\n"


def _json(o, indent: str) -> str:
    """``o`` as indented JSON whose lines start with ``indent``'s spaces.

    Exact types take the fast paths, and a dict writes its ``str`` and
    finite ``float`` values inline. A subclass of dict, list or tuple is
    written as its base type, like ``json.dumps`` does, and any other
    value goes to ``json.dumps`` itself.
    """
    kind = type(o)
    if kind is str:
        return _json_str(o)
    if kind is float:
        if not _isfinite(o):
            raise ValueError("Out of range float values are not JSON compliant: " + repr(o))
        return _float_repr(o)
    if kind is dict:
        if not o:
            return "{}"
        inner = indent + "  "
        items = []
        for k, v in o.items():
            prefix = _key_prefixes.get(k)
            if prefix is None:
                prefix = _json_str(k) + ": "  # TypeError for a key that is not a str
                if type(k) is str and len(_key_prefixes) < _KEY_PREFIX_LIMIT:
                    _key_prefixes[k] = prefix
            value_kind = type(v)
            if value_kind is str:
                items.append(prefix + _json_str(v))
            elif value_kind is float and _isfinite(v):
                items.append(prefix + _float_repr(v))
            else:
                items.append(prefix + _json(v, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not o:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in o]) + indent + "]"
    if kind is int:
        return _int_repr(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, dict):
        return _json(dict(o.items()), indent)
    if isinstance(o, (list, tuple)):
        return _json(list(o), indent)
    return json.dumps(o, ensure_ascii=False, allow_nan=False)


_json_str = json.encoder.encode_basestring
_float_repr = float.__repr__
_int_repr = int.__repr__
_isfinite = math.isfinite

#: Written dict keys, each with its encoded ``"key": `` prefix. Documents
#: reuse a few hundred keys (field names, ids, terms), so the cache stops
#: growing at ``_KEY_PREFIX_LIMIT`` entries rather than keep every key.
_key_prefixes: dict[str, str] = {}
_KEY_PREFIX_LIMIT = 4096


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
) -> dict[AgentId, FireAssessment | TravosAssessment]:
    """Assess every provider in the world under one model; each value is
    the engine's own record, whose ``assessment`` rankings read.

    FIRE's uniform baseline is not built: only explanation contexts read
    it, and ``build_context`` builds it for the two providers it compares.
    """
    world.require_agent(assessor)
    return {
        provider.id: _assess(world, model, assessor, provider.id, baseline=False)
        for provider in world.providers
    }


def rank(
    world: World, model: Model, assessor: AgentId
) -> list[FireAssessment | TravosAssessment]:
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


#: Each reputation type's document name: ``Enum.value`` is a Python-level
#: property call, once per component of a ranking.
_TYPE_NAMES = {k: k.value for k in ReputationType}


def ranking_to_document(
    model: Model, assessor: AgentId, ranked: list[FireAssessment | TravosAssessment]
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
                        "components": [
                            {
                                "type": _TYPE_NAMES[rep_type],
                                "value": value,
                                "weight": weight,
                                # Both models' reliability is the constant 1;
                                # ranking/v1 keeps the key.
                                "reliability": 1.0,
                            }
                            for rep_type, value, weight in ta.components
                        ],
                    }
                    for term, ta in r.assessment.per_term.items()
                },
            }
            for r in ranked
        ],
    }


# The explanation document's argument objects are derived from the named
# tuples in ``explain.ARGUMENT_KINDS``: {"kind": cls.kind, <field>: <value>,
# ...} in ``cls._fields`` order. No argument field holds a record, which
# ``_field_to_doc`` would write as an array, since a record is a tuple.


def _field_to_doc(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_field_to_doc(v) for v in value]
    if isinstance(value, Mapping):
        return dict(value)
    return value


def _argument_to_doc(argument: Argument) -> dict:
    doc = {"kind": argument.kind}
    for name, value in zip(argument._fields, argument):
        doc[name] = _field_to_doc(value)
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
