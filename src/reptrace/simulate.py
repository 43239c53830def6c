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
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence

from .core import AgentId, Preferences, Rating, ReputationType, Term
from .errors import ConfigError
from .fire import FireConfig
from .prng import Stream
from .store import ObservationStore, RatingStore, RoleRule, bucket_runs
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
        raise ConfigError(f"{what} needs exactly 4 probabilities")
    if any(p < 0 for p in probs):
        raise ConfigError(f"{what} has a negative probability")
    if abs(sum(probs) - 1.0) > 1e-9:
        raise ConfigError(f"{what} must sum to 1, got {sum(probs)}")
    return probs


@dataclass(frozen=True)
class PhaseParams:
    """Generative parameters of one behaviour phase."""

    days_mu: float
    days_sigma: float
    max_days: int
    price: float
    parcel_probs: tuple[float, ...]
    service_probs: tuple[float, ...]

    def __post_init__(self):
        # The sign test refuses -0.0 too, as numpy's Generator.normal does.
        if math.copysign(1.0, self.days_sigma) < 0:
            raise ConfigError("days_sigma must be non-negative")
        if self.max_days < 1:
            raise ConfigError("max_days must be a positive integer")
        if self.price <= 0:
            raise ConfigError("price must be positive")
        object.__setattr__(self, "parcel_probs", _check_probs(self.parcel_probs, "parcel_probs"))
        object.__setattr__(self, "service_probs", _check_probs(self.service_probs, "service_probs"))


@dataclass(frozen=True)
class ProviderModel:
    """A provider's identity and its two behaviour phases."""

    id: AgentId
    phases: tuple[PhaseParams, PhaseParams]
    roles: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.phases) != 2:
            raise ConfigError("providers need exactly 2 phases")


@dataclass(frozen=True)
class Outcome:
    """One simulated delivery."""

    days: int
    max_days: int
    price: float
    parcel: ParcelCondition
    service: CustomerService

    def __post_init__(self):
        if self.days < 1:
            raise ValueError("days must be at least 1")


@dataclass(frozen=True)
class RaterProfile:
    """Data tables mapping outcomes onto per-term ratings in [0, 1]."""

    parcel_quality: Mapping[ParcelCondition, float] = field(
        default_factory=lambda: {
            ParcelCondition.PERFECT: 1.0,
            ParcelCondition.DAMAGED_PACKAGE: 0.6,
            ParcelCondition.DAMAGED_PRODUCT: 0.3,
            ParcelCondition.LOST: 0.0,
        }
    )
    service_support: Mapping[CustomerService, float] = field(
        default_factory=lambda: {
            CustomerService.EASY_SOLVED: 1.0,
            CustomerService.EASY_UNSOLVED: 0.5,
            CustomerService.DIFFICULT_SOLVED: 0.5,
            CustomerService.DIFFICULT_UNSOLVED: 0.0,
        }
    )
    price_ceiling: float = 100.0

    def __post_init__(self):
        if self.price_ceiling <= 0:
            raise ConfigError("price_ceiling must be positive")


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def agent_rng(seed: int, agent_id: AgentId) -> Stream:
    """Per-agent PCG64 stream keyed by seed and a stable id hash."""
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


@dataclass(frozen=True)
class AgentSpec:
    id: AgentId
    roles: tuple[str, ...] = ()


@dataclass(frozen=True)
class Scenario:
    """Declarative description of one simulation run."""

    seed: int
    rounds: int
    preferences: Preferences
    agents: tuple[AgentSpec, ...]
    providers: tuple[ProviderModel, ...]
    witnesses: Mapping[AgentId, tuple[AgentId, ...]]
    fire: FireConfig = FireConfig()
    travos: TravosConfig = TravosConfig()
    provider_selection: str = "uniform"
    profile: RaterProfile = RaterProfile()
    role_rules: tuple[RoleRule, ...] = ()

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError("rounds must be positive")
        if not self.agents:
            raise ConfigError("at least one agent required")
        if not self.providers:
            raise ConfigError("at least one provider required")
        ids = [a.id for a in self.agents] + [p.id for p in self.providers]
        if len(set(ids)) != len(ids):
            raise ConfigError("agent and provider ids must be unique")
        agent_ids = {a.id for a in self.agents}
        for agent, peers in self.witnesses.items():
            if agent not in agent_ids:
                raise ConfigError(f"witness topology names unknown agent {agent!r}")
            for peer in peers:
                if peer not in agent_ids:
                    raise ConfigError(f"witness topology names unknown agent {peer!r}")
                if peer == agent:
                    raise ConfigError("an agent cannot witness for itself")
        if self.provider_selection not in ("uniform", "round_robin"):
            raise ConfigError(
                f"unknown provider_selection {self.provider_selection!r}"
            )
        for term in self.preferences.terms:
            if term not in PROFILE_TERMS:
                raise ConfigError(f"no rating rule for term {term!r}")

    @property
    def phase_switch_round(self) -> int:
        """First round using phase-2 parameters."""
        return math.ceil(self.rounds / 2)

    @property
    def now(self) -> int:
        """Assessment time: the last simulated round index."""
        return self.rounds - 1


@dataclass
class SimulationWorld:
    """Populated per-agent stores produced by one scenario run."""

    scenario: Scenario
    rating_stores: dict[AgentId, RatingStore]
    observation_stores: dict[AgentId, ObservationStore]


def _provider_offset(agent_id: AgentId, n: int) -> int:
    digest = hashlib.sha256(agent_id.encode("utf-8")).digest()
    return int.from_bytes(digest[8:16], "big") % n


def run_scenario(scenario: Scenario, seed: Optional[int] = None) -> SimulationWorld:
    """Simulate every round and return the populated stores.

    Each round every agent picks a provider, draws an outcome, rates it on
    every preferred term and records the ratings with the round index as
    timestamp. Whenever a witness already holds experience with the chosen
    provider, the witness's opinion at the start of the round is counted
    with the round's outcome, as one observation, for later accuracy
    estimation. An opinion is the mean of the binarized beta over
    the witness's stored ratings of that provider on that term; it is read
    from a running (ratings, successes) count that each insert raises and
    each cap eviction lowers. The round's ratings are stored after every
    agent has drawn and observed. After the last round each agent receives
    copies of its witnesses' own interaction ratings, re-tagged as witness
    evidence; each copy is built and sorted into its bucket once, and
    shared by every store that lists its witness.
    """
    seed = scenario.seed if seed is None else seed
    terms = scenario.preferences.terms
    providers = {p.id: p for p in scenario.providers}
    provider_ids = [p.id for p in scenario.providers]
    rngs = {a.id: agent_rng(seed, a.id) for a in scenario.agents}
    stores = {
        a.id: RatingStore(history_cap=scenario.fire.history_cap)
        for a in scenario.agents
    }
    observations = {a.id: ObservationStore() for a in scenario.agents}
    last_timeliness: dict[tuple[AgentId, AgentId], float] = {}
    # [ratings, successes] per (source, provider, term) in the source's
    # own store: the counts behind ``binarized_beta`` of that bucket.
    counts: dict[tuple[AgentId, AgentId, Term], list[int]] = {}

    def tally(rating: Rating, delta: int) -> None:
        count = counts.setdefault((rating.source, rating.target, rating.term), [0, 0])
        count[0] += delta
        if binarize_value(rating.value) == 1.0:
            count[1] += delta

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

            for witness in scenario.witnesses.get(agent.id, ()):
                for term, value in ratings.items():
                    if value is None:
                        continue
                    # No rating of this round is stored yet.
                    n, pos = counts.get((witness, chosen, term), (0, 0))
                    if not n:
                        continue
                    alpha, beta = 1.0 + pos, 1.0 + (n - pos)
                    observations[agent.id].add(
                        witness, term, alpha / (alpha + beta), 1, int(binarize_value(value))
                    )
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

    # Every store still holds only its owner's interaction ratings. Each
    # witness copy is built and sorted once; every store then takes its
    # own witnesses' copies from each bucket's run, in the run's order.
    runs = bucket_runs(
        Rating(
            source=r.source,
            target=r.target,
            term=r.term,
            rep_type=ReputationType.WITNESS,
            value=r.value,
            timestamp=r.timestamp,
            interaction_id=r.interaction_id,
        )
        for a in scenario.agents
        for r in stores[a.id].all_records()
    )
    for agent in scenario.agents:
        peers = set(scenario.witnesses.get(agent.id, ()))
        stores[agent.id].merge([r for r in run if r.source in peers] for run in runs)

    return SimulationWorld(
        scenario=scenario,
        rating_stores=stores,
        observation_stores=observations,
    )
