"""Seedable generation of provider interactions and synthetic ratings.

Providers are generative models over delivery outcomes (days taken, parcel
condition, customer service, price), each with two parameter phases so the
second half of a run can exhibit changed behaviour. A rating profile maps
outcomes onto per-term scores in [0, 1]; the reliability term is a
repeat-experience proxy and stays absent on an agent's first interaction
with a provider.

Randomness comes from one PCG64 stream per agent, keyed by the scenario
seed and a stable hash of the agent id, so extending the roster never
perturbs existing agents' draws. The streams reproduce numpy's
``Generator`` bit for bit (see ``prng``). Each round reads every witness
opinion once, before any of the round's ratings is stored, so a witness's
new ratings, and the evictions a history cap makes for them, reach no
observation in their own round. Together these make the result
independent of the order in which agents are listed.
Each agent's store keeps only its own ratings; its witnesses' ratings
are read where they are, never copied.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence

from .core import AgentId, Preferences, Rating, ReputationType, Term, total
from .errors import ConfigError
from .fire import FireConfig
from .prng import Stream
from .store import ObservationStore, RatingStore, RoleRule, share_witness_evidence
from .travos import TravosConfig, binarize_value

TIMELINESS = "timeliness"
QUALITY = "quality"
SUPPORT = "support"
PRICE = "price"
RELIABILITY = "reliability"

#: Terms the built-in rating profile knows how to score.
PROFILE_TERMS = (TIMELINESS, QUALITY, SUPPORT, PRICE, RELIABILITY)


class ParcelCondition(Enum):
    PERFECT = "perfect_conditions"
    DAMAGED_PACKAGE = "damaged_package"
    DAMAGED_PRODUCT = "damaged_product"
    LOST = "lost"


class CustomerService(Enum):
    EASY_SOLVED = "easy_contact_solved"
    EASY_UNSOLVED = "easy_contact_unsolved"
    DIFFICULT_SOLVED = "difficult_contact_solved"
    DIFFICULT_UNSOLVED = "difficult_contact_unsolved"


PARCEL_ORDER = tuple(ParcelCondition)
SERVICE_ORDER = tuple(CustomerService)


def _check_probs(probs: Sequence[float], what: str) -> tuple[float, ...]:
    probs = tuple(float(p) for p in probs)
    if len(probs) != 4:
        raise ConfigError("needs exactly 4 probabilities", what)
    if any(p < 0 for p in probs):
        raise ConfigError("has a negative probability", what)
    if abs(total(probs) - 1.0) > 1e-9:
        raise ConfigError(f"must sum to 1, got {total(probs)}", what)
    return probs


class _PhaseParamsFields(NamedTuple):
    days_mu: float
    days_sigma: float
    max_days: int
    price: float
    parcel_probs: tuple[float, ...]
    service_probs: tuple[float, ...]


class PhaseParams(_PhaseParamsFields):
    """Generative parameters of one behaviour phase.

    The constructor validates and stores both probability lists as tuples
    of floats; ``_make`` and ``_replace`` skip both. Each error's path is
    the field's name.
    """

    __slots__ = ()

    def __new__(cls, days_mu, days_sigma, max_days, price, parcel_probs, service_probs):
        # The sign test refuses -0.0 too, as numpy's Generator.normal does.
        if math.copysign(1.0, days_sigma) < 0:
            raise ConfigError("must be non-negative", "days_sigma")
        if max_days < 1:
            raise ConfigError("must be a positive integer", "max_days")
        if price <= 0:
            raise ConfigError("must be positive", "price")
        return tuple.__new__(cls, (
            days_mu, days_sigma, max_days, price,
            _check_probs(parcel_probs, "parcel_probs"),
            _check_probs(service_probs, "service_probs"),
        ))


class _ProviderModelFields(NamedTuple):
    id: AgentId
    phases: tuple[PhaseParams, PhaseParams]
    roles: tuple[str, ...]


class ProviderModel(_ProviderModelFields):
    """A provider's identity and its two behaviour phases.

    Only the constructor validates; ``_make`` and ``_replace`` skip the
    check.
    """

    __slots__ = ()

    def __new__(cls, id, phases, roles=()):
        if len(phases) != 2:
            raise ConfigError("providers need exactly 2 phases")
        return tuple.__new__(cls, (id, phases, roles))


class _OutcomeFields(NamedTuple):
    days: int
    max_days: int
    price: float
    parcel: ParcelCondition
    service: CustomerService


class Outcome(_OutcomeFields):
    """One simulated delivery.

    Only the constructor validates; ``_make`` and ``_replace`` skip the
    check.
    """

    __slots__ = ()

    def __new__(cls, days, max_days, price, parcel, service):
        if days < 1:
            raise ValueError("days must be at least 1")
        return tuple.__new__(cls, (days, max_days, price, parcel, service))


class _RaterProfileFields(NamedTuple):
    parcel_quality: Mapping[ParcelCondition, float]
    service_support: Mapping[CustomerService, float]
    price_ceiling: float


class RaterProfile(_RaterProfileFields):
    """Data tables mapping outcomes onto per-term ratings in [0, 1].

    A table left out, or given as None, is the built-in one, in a new
    dict for each profile. Only the constructor validates; ``_make`` and
    ``_replace`` skip the check.
    """

    __slots__ = ()

    def __new__(cls, parcel_quality=None, service_support=None, price_ceiling=100.0):
        if parcel_quality is None:
            parcel_quality = {
                ParcelCondition.PERFECT: 1.0,
                ParcelCondition.DAMAGED_PACKAGE: 0.6,
                ParcelCondition.DAMAGED_PRODUCT: 0.3,
                ParcelCondition.LOST: 0.0,
            }
        if service_support is None:
            service_support = {
                CustomerService.EASY_SOLVED: 1.0,
                CustomerService.EASY_UNSOLVED: 0.5,
                CustomerService.DIFFICULT_SOLVED: 0.5,
                CustomerService.DIFFICULT_UNSOLVED: 0.0,
            }
        if price_ceiling <= 0:
            raise ConfigError("price_ceiling must be positive")
        return tuple.__new__(cls, (parcel_quality, service_support, price_ceiling))


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def agent_rng(seed: int, agent_id: AgentId) -> Stream:
    """Per-agent PCG64 stream keyed by seed and a stable id hash."""
    import hashlib  # only the two id hashes use it

    digest = hashlib.sha256(agent_id.encode("utf-8")).digest()
    return Stream((seed, int.from_bytes(digest[:8], "big")))


def simulate_interaction(provider: ProviderModel, phase: int, rng: Stream) -> Outcome:
    """Draw one outcome from the provider's generative model."""
    if phase not in (1, 2):
        raise ValueError("phase must be 1 or 2")
    params = provider.phases[phase - 1]
    days = max(1, round(rng.normal(params.days_mu, params.days_sigma)))
    parcel = PARCEL_ORDER[rng.choice(params.parcel_probs)]
    service = SERVICE_ORDER[rng.choice(params.service_probs)]
    return Outcome(
        days=days,
        max_days=params.max_days,
        price=params.price,
        parcel=parcel,
        service=service,
    )


def rate_outcome(
    outcome: Outcome,
    profile: RaterProfile,
    terms: Sequence[Term] = PROFILE_TERMS,
    prev_timeliness: Optional[float] = None,
) -> dict[Term, Optional[float]]:
    """Score one outcome on each requested term.

    Reliability is None without a previous interaction; otherwise it is
    one minus the drift between this and the previous timeliness score.
    """
    timeliness = _clamp01(
        1.0 - (outcome.days - 1) / max(1, outcome.max_days - 1)
    )
    ratings: dict[Term, Optional[float]] = {}
    for term in terms:
        if term == TIMELINESS:
            ratings[term] = timeliness
        elif term == QUALITY:
            ratings[term] = _clamp01(profile.parcel_quality[outcome.parcel])
        elif term == SUPPORT:
            ratings[term] = _clamp01(profile.service_support[outcome.service])
        elif term == PRICE:
            ratings[term] = _clamp01(1.0 - outcome.price / profile.price_ceiling)
        elif term == RELIABILITY:
            if prev_timeliness is None:
                ratings[term] = None
            else:
                ratings[term] = _clamp01(1.0 - abs(timeliness - prev_timeliness))
        else:
            raise ConfigError(f"rating profile cannot score term {term!r}")
    return ratings


class AgentSpec(NamedTuple):
    id: AgentId
    roles: tuple[str, ...] = ()


class _ScenarioFields(NamedTuple):
    seed: int
    rounds: int
    preferences: Preferences
    agents: tuple[AgentSpec, ...]
    providers: tuple[ProviderModel, ...]
    witnesses: Mapping[AgentId, tuple[AgentId, ...]]
    fire: FireConfig
    travos: TravosConfig
    provider_selection: str
    profile: RaterProfile
    role_rules: tuple[RoleRule, ...]


def check_witnesses(witnesses: Mapping[AgentId, Sequence[AgentId]], agent_ids) -> None:
    """Reject a topology naming an unlisted agent or a self-witness, or
    listing a witness twice, which would count its evidence twice. The
    error's path is ``witnesses/<agent>`` or ``witnesses/<agent>/<index>``.
    """
    for agent, peers in witnesses.items():
        if agent not in agent_ids:
            raise ConfigError(f"{agent!r} is not a listed agent", f"witnesses/{agent}")
        for k, peer in enumerate(peers):
            where = f"witnesses/{agent}/{k}"
            if peer not in agent_ids:
                raise ConfigError(f"{peer!r} is not a listed agent", where)
            if peer == agent:
                raise ConfigError("an agent cannot witness for itself", where)
            if peer in peers[:k]:
                raise ConfigError(f"{peer!r} is already a witness of {agent!r}", where)


class Scenario(_ScenarioFields):
    """Declarative description of one simulation run.

    Only the constructor validates; ``_make`` and ``_replace`` skip the
    checks. Each error's path is the one a scenario document gives the
    offending value, such as ``agents/3/id`` or ``terms/colour``.
    """

    __slots__ = ()

    def __new__(
        cls,
        seed,
        rounds,
        preferences,
        agents,
        providers,
        witnesses,
        fire=FireConfig(),
        travos=TravosConfig(),
        provider_selection="uniform",
        profile=RaterProfile(),
        role_rules=(),
    ):
        if rounds < 1:
            raise ConfigError("must be positive", "rounds")
        if not agents:
            raise ConfigError("at least one agent required", "agents")
        if not providers:
            raise ConfigError("at least one provider required", "providers")
        ids: set[AgentId] = set()
        for section, items in (("agents", agents), ("providers", providers)):
            for i, item in enumerate(items):
                if item.id in ids:
                    raise ConfigError(
                        f"{item.id!r} is already an agent or provider id", f"{section}/{i}/id"
                    )
                ids.add(item.id)
        check_witnesses(witnesses, {a.id for a in agents})
        if provider_selection not in ("uniform", "round_robin"):
            raise ConfigError(f"unknown value {provider_selection!r}", "provider_selection")
        for term in preferences.terms:
            if term not in PROFILE_TERMS:
                raise ConfigError(f"no rating rule for term {term!r}", f"terms/{term}")
        return tuple.__new__(cls, (
            seed, rounds, preferences, agents, providers, witnesses, fire, travos,
            provider_selection, profile, role_rules,
        ))

    @property
    def phase_switch_round(self) -> int:
        """First round using phase-2 parameters."""
        return math.ceil(self.rounds / 2)

    @property
    def now(self) -> int:
        """Assessment time: the last simulated round index."""
        return self.rounds - 1


class SimulationWorld:
    """Populated per-agent stores produced by one scenario run, whose
    witness topology is the scenario's."""

    def __init__(
        self,
        scenario: Scenario,
        rating_stores: dict[AgentId, RatingStore],
        observation_stores: dict[AgentId, ObservationStore],
    ):
        self.scenario = scenario
        self.rating_stores = rating_stores
        self.observation_stores = observation_stores


def _provider_offset(agent_id: AgentId, n: int) -> int:
    import hashlib

    digest = hashlib.sha256(agent_id.encode("utf-8")).digest()
    return int.from_bytes(digest[8:16], "big") % n


def run_scenario(scenario: Scenario) -> SimulationWorld:
    """Simulate every round and return the populated stores.

    Each round every agent picks a provider, draws an outcome, rates it on
    every preferred term and records the ratings with the round index as
    timestamp. Whenever a witness already holds experience with the chosen
    provider, the witness's opinion at the start of the round is counted
    with the round's outcome, as one observation, for later accuracy
    estimation. An opinion is the mean of the binarized beta over the
    witness's stored ratings of that provider on that term; it is kept
    next to a running (ratings, successes) count that each insert raises
    and each cap eviction lowers. Observations of one witness, term and
    opinion value are counted together and reach the assessor's store in
    one ``add`` after the last round. The round's ratings are stored after
    every agent has drawn and observed. After the last round each store
    reads its owner's witnesses' ratings through ``share_witness_evidence``.
    """
    terms = scenario.preferences.terms
    providers = {p.id: p for p in scenario.providers}
    provider_ids = [p.id for p in scenario.providers]
    rngs = {a.id: agent_rng(scenario.seed, a.id) for a in scenario.agents}
    stores = {
        a.id: RatingStore(a.id, history_cap=scenario.fire.history_cap)
        for a in scenario.agents
    }
    last_timeliness: dict[tuple[AgentId, AgentId], float] = {}
    # [ratings, successes, opinion] per (source, provider, term) in the
    # source's own store: the counts behind ``binarized_beta`` of that
    # bucket, and that beta's mean, which is the source's opinion.
    counts: dict[tuple[AgentId, AgentId, Term], list] = {}
    # Per assessor, [n, successes] per (witness, term, opinion value);
    # each becomes one ``ObservationStore.add`` after the last round.
    observed: dict[AgentId, dict[tuple[AgentId, Term, float], list[int]]] = {
        a.id: {} for a in scenario.agents
    }

    def tally(rating: Rating, delta: int) -> None:
        count = counts.setdefault((rating.source, rating.target, rating.term), [0, 0, 0.5])
        count[0] += delta
        if binarize_value(rating.value) == 1.0:
            count[1] += delta
        count[2] = (1 + count[1]) / (2 + count[0])

    for rnd in range(scenario.rounds):
        phase = 1 if rnd < scenario.phase_switch_round else 2
        interactions = []
        for agent in scenario.agents:
            rng = rngs[agent.id]
            if scenario.provider_selection == "round_robin":
                offset = _provider_offset(agent.id, len(provider_ids))
                chosen = provider_ids[(rnd + offset) % len(provider_ids)]
            else:
                chosen = provider_ids[rng.integers(0, len(provider_ids))]
            outcome = simulate_interaction(providers[chosen], phase, rng)
            interaction_id = f"{agent.id}-{chosen}-r{rnd}"
            ratings = rate_outcome(
                outcome,
                scenario.profile,
                terms,
                prev_timeliness=last_timeliness.get((agent.id, chosen)),
            )

            witnesses = scenario.witnesses.get(agent.id, ())
            seen = observed[agent.id]
            for term, value in ratings.items():
                if value is None:
                    continue
                success = int(binarize_value(value))
                for witness in witnesses:
                    # No rating of this round is stored yet.
                    count = counts.get((witness, chosen, term))
                    if count is None or not count[0]:
                        continue
                    key = (witness, term, count[2])
                    tallied = seen.get(key)
                    if tallied is None:
                        seen[key] = [1, success]
                    else:
                        tallied[0] += 1
                        tallied[1] += success
            interactions.append((agent.id, chosen, interaction_id, ratings))
            if ratings.get(TIMELINESS) is not None:
                last_timeliness[(agent.id, chosen)] = ratings[TIMELINESS]

        for agent_id, chosen, interaction_id, ratings in interactions:
            for term, value in ratings.items():
                if value is None:
                    continue
                rating = Rating(
                    source=agent_id,
                    target=chosen,
                    term=term,
                    rep_type=ReputationType.INTERACTION,
                    value=value,
                    timestamp=rnd,
                    interaction_id=interaction_id,
                )
                tally(rating, 1)
                for old in stores[agent_id].insert(rating):
                    tally(old, -1)

    observations = {}
    for agent in scenario.agents:
        store = observations[agent.id] = ObservationStore()
        # Popped, so the counts are not held twice while the index is made.
        for (witness, term, opinion), (n, successes) in observed.pop(agent.id).items():
            store.add(witness, term, opinion, n, successes)

    share_witness_evidence(stores, scenario.witnesses)

    return SimulationWorld(
        scenario=scenario,
        rating_stores=stores,
        observation_stores=observations,
    )
