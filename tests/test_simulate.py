"""Outcome generation, rating profiles and full scenario runs."""

import json
from pathlib import Path

import pytest

from reptrace.core import Preferences, ReputationType
from reptrace.errors import ConfigError
from reptrace.fire import FireConfig
from reptrace.scenario import scenario_from_document
from reptrace.simulate import (
    AgentSpec,
    CustomerService,
    Outcome,
    ParcelCondition,
    PhaseParams,
    ProviderModel,
    RaterProfile,
    Scenario,
    agent_rng,
    rate_outcome,
    run_scenario,
    simulate_interaction,
)

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "demos" / "delivery_scenario.json"

I = ReputationType.INTERACTION
W = ReputationType.WITNESS


def phase(days_mu=3.0, days_sigma=1.0, max_days=7, price=10.0,
          parcel=(0.7, 0.15, 0.1, 0.05), service=(0.6, 0.2, 0.1, 0.1)):
    return PhaseParams(
        days_mu=days_mu,
        days_sigma=days_sigma,
        max_days=max_days,
        price=price,
        parcel_probs=parcel,
        service_probs=service,
    )


def provider(pid="P1", phase1=None, phase2=None):
    return ProviderModel(id=pid, phases=(phase1 or phase(), phase2 or phase()))


def scenario(agents=("alice",), providers=None, rounds=4, witnesses=None,
             terms=None, seed=42, **kwargs):
    providers = providers or (provider(),)
    terms = terms or {"timeliness": 0.5, "quality": 0.5}
    prefs = Preferences(term_weights=dict(terms), component_weights={I: 0.75, W: 0.25})
    return Scenario(
        seed=seed,
        rounds=rounds,
        preferences=prefs,
        agents=tuple(AgentSpec(id=a) for a in agents),
        providers=tuple(providers),
        witnesses=witnesses or {},
        **kwargs,
    )


class TestSimulateInteraction:
    def test_degenerate_normal(self):
        p = provider(phase1=phase(days_mu=3.0, days_sigma=0.0))
        rng = agent_rng(1, "alice")
        for _ in range(20):
            assert simulate_interaction(p, 1, rng).days == 3

    def test_certain_parcel_category(self):
        p = provider(phase1=phase(parcel=(1.0, 0.0, 0.0, 0.0)))
        rng = agent_rng(1, "alice")
        for _ in range(20):
            assert simulate_interaction(p, 1, rng).parcel is ParcelCondition.PERFECT

    def test_days_floor_at_one(self):
        p = provider(phase1=phase(days_mu=-5.0, days_sigma=0.5))
        rng = agent_rng(1, "alice")
        assert simulate_interaction(p, 1, rng).days == 1

    def test_fixed_seed_reproduces_sequence(self):
        p = provider()
        first = [simulate_interaction(p, 1, agent_rng(9, "alice")) for _ in range(1)]
        again = [simulate_interaction(p, 1, agent_rng(9, "alice")) for _ in range(1)]
        assert first == again

    def test_agents_have_independent_streams(self):
        p = provider()
        a = [simulate_interaction(p, 1, agent_rng(9, "alice")).days for _ in range(5)]
        b = [simulate_interaction(p, 1, agent_rng(9, "bob")).days for _ in range(5)]
        assert a != b  # overwhelmingly likely with sigma = 1


class TestRateOutcome:
    def outcome(self, days=1, max_days=7, price=10.0,
                parcel=ParcelCondition.PERFECT, service=CustomerService.EASY_SOLVED):
        return Outcome(days=days, max_days=max_days, price=price,
                       parcel=parcel, service=service)

    def test_fastest_delivery_scores_one(self):
        out = rate_outcome(self.outcome(days=1), RaterProfile(), ["timeliness"])
        assert out["timeliness"] == 1.0

    def test_lost_parcel_scores_zero(self):
        out = rate_outcome(
            self.outcome(parcel=ParcelCondition.LOST), RaterProfile(), ["quality"]
        )
        assert out["quality"] == 0.0

    def test_first_interaction_has_no_reliability(self):
        out = rate_outcome(self.outcome(), RaterProfile(), ["reliability"])
        assert out["reliability"] is None

    def test_repeat_interaction_reliability(self):
        profile = RaterProfile()
        first = rate_outcome(self.outcome(days=1), profile, ["timeliness"])
        second = rate_outcome(
            self.outcome(days=4), profile, ["timeliness", "reliability"],
            prev_timeliness=first["timeliness"],
        )
        assert second["reliability"] == pytest.approx(1.0 - abs(second["timeliness"] - 1.0))

    def test_price_term(self):
        out = rate_outcome(
            self.outcome(price=25.0), RaterProfile(price_ceiling=100.0), ["price"]
        )
        assert out["price"] == pytest.approx(0.75)

    def test_support_term(self):
        out = rate_outcome(
            self.outcome(service=CustomerService.DIFFICULT_UNSOLVED),
            RaterProfile(),
            ["support"],
        )
        assert out["support"] == 0.0

    def test_unknown_term_rejected(self):
        with pytest.raises(ConfigError):
            rate_outcome(self.outcome(), RaterProfile(), ["sustainability"])

    def test_late_delivery_clamped(self):
        out = rate_outcome(
            self.outcome(days=30, max_days=7), RaterProfile(), ["timeliness"]
        )
        assert out["timeliness"] == 0.0


class TestRunScenario:
    def test_structure_and_phase_split(self):
        sc = scenario(
            rounds=4,
            providers=(provider(
                phase1=phase(price=10.0, days_sigma=0.0),
                phase2=phase(price=50.0, days_sigma=0.0),
            ),),
            terms={"timeliness": 0.5, "price": 0.5},
        )
        world = run_scenario(sc)
        store = world.rating_stores["alice"]
        price_ratings = store.query("P1", "price", I)
        assert [r.timestamp for r in price_ratings] == [0, 1, 2, 3]
        # Phase 2 kicks in at round 2 and halves the price score.
        assert price_ratings[0].value == pytest.approx(0.9)
        assert price_ratings[1].value == pytest.approx(0.9)
        assert price_ratings[2].value == pytest.approx(0.5)
        assert price_ratings[3].value == pytest.approx(0.5)

    def test_phase_switch_round_is_ceiling(self):
        assert scenario(rounds=5).phase_switch_round == 3
        assert scenario(rounds=4).phase_switch_round == 2

    def test_mutual_witness_topology(self):
        sc = scenario(
            agents=("alice", "bob"),
            witnesses={"alice": ("bob",), "bob": ("alice",)},
            rounds=3,
        )
        world = run_scenario(sc)
        witness_records = [
            r
            for r in world.rating_stores["alice"].all_records()
            if r.target == "P1" and r.rep_type is W
        ]
        assert witness_records
        assert {r.source for r in witness_records} == {"bob"}

    def test_observations_pair_opinions_with_outcomes(self):
        sc = scenario(
            agents=("alice", "bob"),
            witnesses={"alice": ("bob",), "bob": ("alice",)},
            rounds=6,
        )
        world = run_scenario(sc)
        records = world.observation_stores["alice"].all_records()
        assert records
        for rec in records:
            assert rec.assessor == "alice" and rec.witness == "bob"
            assert 0.0 <= rec.opinion_value <= 1.0
            assert 0.0 <= rec.outcome_rating <= 1.0

    def test_all_ratings_in_unit_interval(self):
        sc = scenario(
            agents=("alice", "bob", "carol"),
            providers=(provider("P1"), provider("P2")),
            rounds=8,
            terms={"timeliness": 0.3, "quality": 0.3, "support": 0.2, "price": 0.1,
                   "reliability": 0.1},
            witnesses={
                "alice": ("bob", "carol"),
                "bob": ("alice", "carol"),
                "carol": ("alice", "bob"),
            },
        )
        world = run_scenario(sc)
        for store in world.rating_stores.values():
            for record in store.all_records():
                assert 0.0 <= record.value <= 1.0

    def test_history_cap_applies_per_source(self):
        sc = scenario(rounds=6, fire=FireConfig(lambda_=5.0, history_cap=3))
        world = run_scenario(sc)
        own = [
            r for r in world.rating_stores["alice"].all_records() if r.source == "alice"
        ]
        assert len(own) == 3
        assert min(r.timestamp for r in own) >= 3

    def test_round_robin_selection(self):
        sc = scenario(
            providers=(provider("P1"), provider("P2"), provider("P3")),
            rounds=6,
            provider_selection="round_robin",
        )
        world = run_scenario(sc)
        targets = [
            r.target
            for r in world.rating_stores["alice"].all_records()
            if r.source == "alice" and r.term == "timeliness"
        ]
        assert len(set(targets)) == 3
        assert targets[:3] == targets[3:]

    def test_determinism_across_runs(self):
        from reptrace.pipeline import dump_document, world_from_simulation, world_to_document

        sc = scenario(
            agents=("alice", "bob"),
            witnesses={"alice": ("bob",), "bob": ("alice",)},
            rounds=5,
        )
        first = dump_document(world_to_document(world_from_simulation(run_scenario(sc))))
        second = dump_document(world_to_document(world_from_simulation(run_scenario(sc))))
        assert first == second

    def test_seed_changes_output(self):
        sc1 = scenario(seed=1)
        sc2 = scenario(seed=2)
        w1 = run_scenario(sc1)
        w2 = run_scenario(sc2)
        r1 = [r.value for r in w1.rating_stores["alice"].all_records()]
        r2 = [r.value for r in w2.rating_stores["alice"].all_records()]
        assert r1 != r2

    def test_adding_agent_preserves_existing_stream(self):
        base = scenario(agents=("alice",), rounds=5)
        extended = scenario(agents=("alice", "zed"), rounds=5)
        values = lambda world: [
            r.value for r in world.rating_stores["alice"].all_records()
        ]
        assert values(run_scenario(base)) == values(run_scenario(extended))

    @pytest.mark.parametrize("cap", [3, 7])
    def test_capped_records_independent_of_roster_order(self, cap):
        # A witness listed early must not evict, within a round, history
        # that a later agent's observation of it still reads.
        doc = json.loads(SCENARIO_PATH.read_text())
        doc["fire"]["history_cap"] = cap
        reversed_doc = dict(doc, agents=doc["agents"][::-1])
        worlds = [run_scenario(scenario_from_document(d)) for d in (doc, reversed_doc)]
        for stores in ("rating_stores", "observation_stores"):
            forward, backward = (
                {agent: set(store.all_records()) for agent, store in getattr(w, stores).items()}
                for w in worlds
            )
            assert forward == backward, stores

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ConfigError):
            scenario(rounds=0)
        with pytest.raises(ConfigError):
            scenario(witnesses={"alice": ("alice",)})
        with pytest.raises(ConfigError):
            scenario(terms={"sustainability": 1.0})
        with pytest.raises(ConfigError):
            scenario(provider_selection="fastest")

    @pytest.mark.parametrize("sigma", [-1.0, -0.0])
    def test_negative_days_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError, match="days_sigma"):
            phase(days_sigma=sigma)
