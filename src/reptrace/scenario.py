"""Scenario file loading and validation.

Scenarios are JSON documents validated against the shipped schema before
being turned into typed objects. The order of keys in the ``terms`` object
is the term declaration order used everywhere downstream.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from typing import Union

from .core import Preferences, ReputationType, weight_problem
from .errors import ConfigError
from .fire import FireConfig
from .simulate import (
    AgentSpec,
    CustomerService,
    ParcelCondition,
    PhaseParams,
    ProviderModel,
    RaterProfile,
    Scenario,
)
from .store import RoleRule
from .travos import TravosConfig
from .validator import Violation, compile_schema

#: Environment variable overriding the scenario seed.
SEED_ENV_VAR = "REPTRACE_SEED"


def load_schema(name: str) -> dict:
    """Read one of the shipped JSON schemas by file stem."""
    from importlib import resources

    text = (
        resources.files("reptrace")
        .joinpath(f"schemas/{name}.schema.json")
        .read_text("utf-8")
    )
    return json.loads(text)


@functools.lru_cache(maxsize=None)
def _validator(schema_name: str):
    """The compiled check for a shipped schema, built once per process."""
    return compile_schema(load_schema(schema_name))


def validate_document(doc: dict, schema_name: str, kind: str | None = None) -> None:
    """Validate a document against a shipped schema; raise ConfigError.

    The message names the first violation found and the path of the value
    it concerns, as ``<kind> document invalid at <path>: <message>``;
    ``kind`` defaults to the schema's name.
    """
    try:
        _validator(schema_name)(doc)
    except Violation as exc:
        path = "/".join(map(str, exc.path)) or "<root>"
        raise ConfigError(
            f"{kind or schema_name} document invalid at {path}: {exc.message}"
        ) from exc


def read_json(path: Union[str, Path]) -> dict:
    """Read a JSON document file, rejecting NaN and Infinity.

    Raise ConfigError naming the file if it is not UTF-8 or not JSON,
    and OSError if it cannot be read.
    """

    def reject(constant: str):
        raise ConfigError(f"{path}: non-finite number {constant} is not allowed")

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=reject)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def _weights(doc: dict, kind: str, section: str, default: dict) -> dict:
    weights = {k: float(v) for k, v in doc.get(section, default).items()}
    problem = weight_problem(weights)
    if problem:
        raise ConfigError(f"{kind} document invalid at {section}: {problem}")
    return weights


def config_from_document(doc: dict, kind: str) -> dict:
    """Parse the fields that scenario and stores documents share.

    Returns the keyword arguments common to ``Scenario`` and
    ``pipeline.World``: rounds, preferences, fire, travos, agents and
    role_rules. Sections a scenario may omit take their defaults; the
    stores schema requires them all. ``kind`` names the document in
    error messages.
    """
    terms = _weights(doc, kind, "terms", {})
    importance = {
        ReputationType(k): w
        for k, w in _weights(
            doc, kind, "component_weights", {"interaction": 0.75, "witness": 0.25}
        ).items()
    }
    rules = doc.get("role_rules", ())
    for index, rule in enumerate(rules):
        if rule["term"] not in terms:
            raise ConfigError(
                f"{kind} document invalid at role_rules/{index}/term: "
                f"{rule['term']!r} is not a declared term"
            )
    fire = doc.get("fire", {})
    travos = doc.get("travos", {})
    cap = fire.get("history_cap")
    try:
        return {
            "rounds": int(doc["rounds"]),
            "preferences": Preferences(
                term_weights=terms,
                component_weights=importance,
            ),
            "fire": FireConfig(
                lambda_=float(fire.get("lambda", 5.0)),
                history_cap=None if cap is None else int(cap),
            ),
            "travos": TravosConfig(
                epsilon=float(travos.get("epsilon", 0.2)),
                confidence_threshold=float(travos.get("confidence_threshold", 0.2)),
                bins=int(travos.get("bins", 5)),
            ),
            "agents": tuple(
                AgentSpec(id=a["id"], roles=tuple(a.get("roles", ())))
                for a in doc["agents"]
            ),
            "role_rules": tuple(
                RoleRule(
                    role_a=r["role_a"],
                    role_b=r["role_b"],
                    term=r["term"],
                    likelihood=float(r["likelihood"]),
                    expected_value=float(r["value"]),
                )
                for r in rules
            ),
        }
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _profile(doc: dict) -> RaterProfile:
    raw = doc.get("rating_profile")
    if raw is None:
        return RaterProfile()
    defaults = RaterProfile()
    parcel = dict(defaults.parcel_quality)
    for key, value in raw.get("parcel_quality", {}).items():
        parcel[ParcelCondition(key)] = float(value)
    service = dict(defaults.service_support)
    for key, value in raw.get("service_support", {}).items():
        service[CustomerService(key)] = float(value)
    return RaterProfile(
        parcel_quality=parcel,
        service_support=service,
        price_ceiling=float(raw.get("price_ceiling", defaults.price_ceiling)),
    )


def _witnesses(doc: dict, agent_ids: list[str]) -> dict[str, tuple[str, ...]]:
    raw = doc.get("witnesses", "none")
    if raw == "none":
        return {}
    if raw == "complete":
        return {
            a: tuple(b for b in agent_ids if b != a) for a in agent_ids
        }
    return {agent: tuple(peers) for agent, peers in raw.items()}


def _phase(raw: dict, where: str) -> PhaseParams:
    try:
        return PhaseParams(
            days_mu=float(raw["days_mu"]),
            days_sigma=float(raw["days_sigma"]),
            max_days=int(raw["max_days"]),
            price=float(raw["price"]),
            parcel_probs=tuple(raw["parcel_probs"]),
            service_probs=tuple(raw["service_probs"]),
        )
    except ConfigError as exc:
        raise exc.in_document("scenario", where) from exc


def scenario_from_document(doc: dict, seed_override: int | None = None) -> Scenario:
    """Build a typed scenario from a validated document.

    Beyond the schema, ``PhaseParams`` and ``Scenario`` run their own
    checks; an error they raise names its path in the document.
    """
    validate_document(doc, "scenario")
    config = config_from_document(doc, "scenario")
    providers = tuple(
        ProviderModel(
            id=p["id"],
            roles=tuple(p.get("roles", ())),
            phases=tuple(
                _phase(ph, f"providers/{i}/phases/{j}/") for j, ph in enumerate(p["phases"])
            ),
        )
        for i, p in enumerate(doc["providers"])
    )
    seed = int(doc["seed"]) if seed_override is None else seed_override
    profile = _profile(doc)
    try:
        return Scenario(
            seed=seed,
            providers=providers,
            witnesses=_witnesses(doc, [a.id for a in config["agents"]]),
            provider_selection=doc.get("provider_selection", "uniform"),
            profile=profile,
            **config,
        )
    except ConfigError as exc:
        raise exc.in_document("scenario") from exc


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Read and validate a scenario file, honouring REPTRACE_SEED."""
    doc = read_json(path)
    seed_override = None
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed_override = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
        if seed_override < 0:
            raise ConfigError(f"{SEED_ENV_VAR} must be a non-negative integer")
    return scenario_from_document(doc, seed_override=seed_override)
