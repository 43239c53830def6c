"""Outcome generation, rating profiles and full scenario runs."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import content_key, witness_copy_oracle
from reptrace.core import Preferences, ReputationType
from reptrace.errors import ConfigError
from reptrace.fire import FireConfig
from reptrace.pipeline import (
    dump_document,
    world_from_document,
    world_from_simulation,
    world_to_document,
)
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
from reptrace.travos import binarized_beta

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
        store = world.rating_stores["alice"]
        witness_records = [
            r for term in sc.preferences.terms for r in store.query("P1", term, W)
        ]
        assert witness_records
        assert {r.source for r in witness_records} == {"bob"}
        # Read through the witness index, never held.
        assert all(r.source == "alice" for r in store.all_records())

    def test_observations_pair_opinions_with_outcomes(self):
        sc = scenario(
            agents=("alice", "bob"),
            witnesses={"alice": ("bob",), "bob": ("alice",)},
            rounds=6,
        )
        world = run_scenario(sc)
        store = world.observation_stores["alice"]
        entries = store.entries()
        assert entries
        for witness, term, opinion_value, n, successes in entries:
            assert witness == "bob" and term in sc.preferences.terms
            assert 0.0 <= opinion_value <= 1.0
            assert 0 <= successes <= n
        assert len(store) == sum(entry[3] for entry in entries)

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
        forward, backward = (
            (
                {agent: set(store.all_records()) for agent, store in w.rating_stores.items()},
                {agent: store.entries() for agent, store in w.observation_stores.items()},
            )
            for w in worlds
        )
        assert forward == backward

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ConfigError):
            scenario(rounds=0)
        with pytest.raises(ConfigError):
            scenario(witnesses={"alice": ("alice",)})
        with pytest.raises(ConfigError):
            scenario(terms={"sustainability": 1.0})
        with pytest.raises(ConfigError):
            scenario(provider_selection="fastest")

    def test_repeated_witness_rejected(self):
        # Listed twice, bob's observations would be counted twice.
        with pytest.raises(ConfigError, match="^witnesses/alice/1: 'bob' is already a witness"):
            scenario(agents=("alice", "bob"), witnesses={"alice": ("bob", "bob")})

    @pytest.mark.parametrize("sigma", [-1.0, -0.0])
    def test_negative_days_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError, match="days_sigma"):
            phase(days_sigma=sigma)


def demo_document(cap=None, selection="uniform"):
    doc = json.loads(SCENARIO_PATH.read_text())
    doc["fire"]["history_cap"] = cap
    doc["provider_selection"] = selection
    return doc


def own_ratings(world, agent):
    return [
        r
        for r in world.rating_stores[agent].all_records()
        if r.source == agent and r.rep_type is I
    ]


class TestOpinionOracle:
    @pytest.mark.parametrize("selection", ["uniform", "round_robin"])
    @pytest.mark.parametrize("cap", [None, 1, 3, 7])
    def test_opinions_are_the_witness_beta_before_the_round(self, cap, selection):
        # Draws do not depend on the cap, so an uncapped run holds every
        # rating a capped run ever stored.
        full = run_scenario(scenario_from_document(demo_document(None, selection)))
        world = run_scenario(scenario_from_document(demo_document(cap, selection)))
        sc = world.scenario
        expected = {}
        for agent in sc.agents:
            for rating in own_ratings(full, agent.id):
                for witness in sc.witnesses.get(agent.id, ()):
                    held = [r for r in own_ratings(full, witness) if r.timestamp < rating.timestamp]
                    if cap is not None:
                        held = sorted(held, key=content_key)[-cap:]
                    past = [r for r in held if (r.target, r.term) == (rating.target, rating.term)]
                    if past:
                        key = (agent.id, witness, rating.term, binarized_beta(past).mean)
                        count = expected.setdefault(key, [0, 0])
                        count[0] += 1
                        count[1] += rating.value >= 0.5
        got = {
            (agent, witness, term, opinion_value): [n, successes]
            for agent, store in world.observation_stores.items()
            for witness, term, opinion_value, n, successes in store.entries()
        }
        assert expected
        assert sum(len(store) for store in world.observation_stores.values()) == sum(
            n for n, _ in expected.values()
        )
        assert got == expected


# sha256 of the 10x5x40 stores/v2 documents (seed 1, complete witness
# topology, the demo's provider models cycled), as written since the
# stores hold no witness copies and the document carries the topology in
# its ``witnesses`` section. The documents written before, with a witness
# copy of every rating, were 4d3fde93... and 8f914d45...; loaded, they
# give the same rankings and explanations as these.
@pytest.mark.parametrize(
    "cap, digest",
    [
        (None, "79118fb96acc0e87431b333c546633ad51ccd47d8c51c76408cc2bd51ceec34a"),
        (4, "7e29528ee9cfe1c24e442b67ebf1325290db77b7ac465a8c7093558b93d8ceb8"),
    ],
    ids=["uncapped", "cap4"],
)
def test_10x5x40_stores_document_is_pinned(cap, digest):
    doc = demo_document(cap)
    models = doc["providers"]
    doc["seed"] = 1
    doc["rounds"] = 40
    doc["agents"] = [{"id": f"agent{i:02d}"} for i in range(10)]
    doc["providers"] = [
        dict(models[i % len(models)], id=f"{models[i % len(models)]['id']}{i:02d}")
        for i in range(5)
    ]
    doc["witnesses"] = "complete"
    world = world_from_simulation(run_scenario(scenario_from_document(doc)))
    text = dump_document(world_to_document(world))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


ROSTER = ("alice", "bob", "carol", "dave")


@st.composite
def roster_extensions(draw):
    """A small scenario, plus the same one with an agent no one consults."""
    n = draw(st.integers(1, 3))
    agents = list(ROSTER[:n])
    newcomer = ROSTER[n]
    witnesses = {}
    if n > 1:
        for agent in agents:
            peers = st.sampled_from([a for a in agents if a != agent])
            witnesses[agent] = tuple(draw(st.lists(peers, unique=True)))
    extended_witnesses = dict(
        witnesses,
        **{newcomer: tuple(draw(st.lists(st.sampled_from(agents), unique=True)))},
    )
    position = draw(st.integers(0, n))
    extended_agents = agents[:position] + [newcomer] + agents[position:]
    kwargs = dict(
        providers=(provider("P1"), provider("P2"), provider("P3")),
        rounds=draw(st.integers(1, 10)),
        seed=draw(st.integers(0, 2**32)),
        terms={"timeliness": 0.4, "quality": 0.3, "reliability": 0.3},
        provider_selection=draw(st.sampled_from(["uniform", "round_robin"])),
        fire=FireConfig(history_cap=draw(st.none() | st.integers(1, 7))),
    )
    return (
        scenario(agents=agents, witnesses=witnesses, **kwargs),
        scenario(agents=extended_agents, witnesses=extended_witnesses, **kwargs),
    )


class TestRosterExtension:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(roster_extensions())
    def test_agent_no_one_consults_changes_no_other_agent(self, pair):
        base, extended = (run_scenario(sc) for sc in pair)
        for agent, store in base.rating_stores.items():
            assert store.all_records() == extended.rating_stores[agent].all_records(), agent
            assert (
                base.observation_stores[agent].entries()
                == extended.observation_stores[agent].entries()
            ), agent


@st.composite
def witness_scenarios(draw):
    """A scenario of at most 3x3x10 with a complete, an empty or a random
    witness topology, and a history cap of None or 1 to 4."""
    agents = list(ROSTER[:draw(st.integers(1, 3))])
    topology = draw(st.sampled_from(["complete", "none", "mapping"]))
    witnesses = {}
    for agent in agents:
        peers = [a for a in agents if a != agent]
        if topology == "complete":
            witnesses[agent] = tuple(peers)
        elif topology == "mapping" and peers and draw(st.booleans()):
            witnesses[agent] = tuple(draw(st.lists(st.sampled_from(peers), unique=True)))
    return scenario(
        agents=agents,
        witnesses=witnesses,
        providers=tuple(provider(f"P{i}") for i in range(1, draw(st.integers(1, 3)) + 1)),
        rounds=draw(st.integers(1, 10)),
        seed=draw(st.integers(0, 2**32)),
        terms={"timeliness": 0.4, "quality": 0.3, "reliability": 0.3},
        provider_selection=draw(st.sampled_from(["uniform", "round_robin"])),
        fire=FireConfig(history_cap=draw(st.none() | st.integers(1, 4))),
    )


class TestWitnessCopyOracle:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(witness_scenarios())
    def test_stores_equal_one_at_a_time_copies(self, sc):
        # Every store reads, as witness evidence, exactly the copies that
        # inserting its witnesses' ratings one at a time would hold, in the
        # same order, and holds none of them; so does the same world
        # written as a stores document and loaded again.
        sim = run_scenario(sc)
        # Witnesses consume no draws, so without them every store holds
        # the same own ratings.
        alone = run_scenario(sc._replace(witnesses={}))
        own = {a: store.all_records() for a, store in alone.rating_stores.items()}
        expected = witness_copy_oracle(sc, own)
        loaded = world_from_document(
            json.loads(dump_document(world_to_document(world_from_simulation(sim))))
        )
        buckets = list(itertools.product(
            [p.id for p in sc.providers], sc.preferences.terms, ReputationType
        ))
        for world in (sim, loaded):
            for agent in sc.agents:
                store, oracle = world.rating_stores[agent.id], expected[agent.id]
                assert store.all_records() == own[agent.id], agent.id
                assert len(store) == len(own[agent.id])
                for bucket in buckets:
                    got = list(store.query(*bucket))
                    assert got == oracle.query(*bucket), (agent.id, bucket)
