"""Independent oracles used to compute expected values in the tests.

Everything here deliberately avoids the library's own code paths: masses
come from adaptive quadrature over the raw density, subset and permutation
searches are separate exhaustive enumerations, the decisive-terms argument
is rebuilt from the two providers' term trusts, moment checks recompute
beta moments from first principles, the stores are plain lists
scanned on every query, witness copies are inserted one at a time,
documents are checked by jsonschema, an assessment's term and overall
trusts are recomputed from its parts with ``math.fsum``, a comparison
context is picked out of every provider's assessment, and FIRE and TRAVOS
assess from fresh scans of a world's records with nothing memoized.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import jsonschema
from scipy.integrate import quad
from scipy.special import betaln

from reptrace import fire, travos
from reptrace.core import (
    REPUTATION_ORDER,
    ComponentTrust,
    Rating,
    ReputationType,
    build_assessment,
    total,
    weighted_mean,
)
from reptrace.explain import (
    ComparisonContext,
    DecisiveDominance,
    DecisiveTradeoff,
    FireDiagnostics,
    Model,
    TravosDiagnostics,
    TypePermutation,
)
from reptrace.scenario import load_schema


@functools.lru_cache(maxsize=None)
def jsonschema_validator(name: str):
    """jsonschema's validator for a shipped schema, built once."""
    schema = load_schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


def assert_schema_valid(doc: dict, name: str) -> None:
    """Fail with every error jsonschema finds in ``doc``."""
    errors = [
        f"{'/'.join(map(str, e.absolute_path)) or '<root>'}: {e.message}"
        for e in jsonschema_validator(name).iter_errors(doc)
    ]
    assert not errors, errors


def beta_mass_quadrature(alpha: float, beta: float, lo: float, hi: float) -> float:
    """Probability mass of Beta(alpha, beta) on [lo, hi] by quadrature."""
    lo = max(0.0, lo)
    hi = min(1.0, hi)
    if hi <= lo:
        return 0.0
    norm = math.exp(betaln(alpha, beta))

    def density(x: float) -> float:
        return x ** (alpha - 1.0) * (1.0 - x) ** (beta - 1.0) / norm

    value, _ = quad(density, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


def beta_mean_std(alpha: float, beta: float) -> tuple[float, float]:
    """First two moments of Beta(alpha, beta)."""
    mean = alpha / (alpha + beta)
    var = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1.0))
    return mean, math.sqrt(var)


def tradeoff_oracle(
    pros: list[str],
    cons: list[str],
    weighted: dict[str, float],
    declaration: list[str],
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Exhaustive search for the best (pros, cons) subset pair.

    Candidates must satisfy: sum of selected pro differences strictly
    exceeds the sum of UNselected con differences. Ranking: an empty
    mentioned-cons set beats any non-empty one, then fewest pros, fewest
    cons, largest selected weighted-difference total, and finally term
    declaration order.
    """
    decl = {t: i for i, t in enumerate(declaration)}
    cons_total = sum(weighted[t] for t in cons)
    best = None
    best_key = None
    for pk in range(len(pros) + 1):
        for p_sel in itertools.combinations(pros, pk):
            p_sum = sum(weighted[t] for t in p_sel)
            for ck in range(len(cons) + 1):
                for c_sel in itertools.combinations(cons, ck):
                    unmentioned = cons_total - sum(weighted[t] for t in c_sel)
                    if not p_sum > unmentioned:
                        continue
                    key = (
                        0 if not c_sel else 1,
                        len(p_sel),
                        len(c_sel),
                        -(p_sum + sum(weighted[t] for t in c_sel)),
                        tuple(sorted(decl[t] for t in p_sel)),
                        tuple(sorted(decl[t] for t in c_sel)),
                    )
                    if best_key is None or key < best_key:
                        best_key = key
                        best = (p_sel, c_sel)
    if best is None:
        return None
    p_sel, c_sel = best
    order = lambda ts: tuple(sorted(ts, key=lambda t: (-weighted[t], decl[t])))
    return order(p_sel), order(c_sel)


def decisive_terms_oracle(ctx: ComparisonContext):
    """The decisive-terms argument by the README's rules, or None.

    The compared terms are the declared terms both providers have a term
    trust on; a term's weighted difference is its absolute trust
    difference times its weight over the compared weights' sum, added
    left to right. Better on some compared term and worse on none is
    domination: it names the pros whose weighted difference exceeds the
    reference, 1/|T| times the mean absolute difference, otherwise the
    single largest pro, the earliest declared among equals. Anything else
    is a trade-off, picked by ``tradeoff_oracle`` over the exact values of
    the weighted differences; None when there is none to pick or no
    compared term carries weight.
    """
    pref = {t: ctx.preferred.term_trust(t) for t in ctx.preferences.terms}
    other = {t: ctx.other.term_trust(t) for t in ctx.preferences.terms}
    terms = [t for t in ctx.preferences.terms if pref[t] is not None and other[t] is not None]
    den = 0.0
    for t in terms:
        den += ctx.preferences.term_weights[t]
    if not den > 0:
        return None
    weighted = {
        t: ctx.preferences.term_weights[t] / den * abs(pref[t] - other[t]) for t in terms
    }
    pros = [t for t in terms if pref[t] > other[t]]
    cons = [t for t in terms if pref[t] < other[t]]
    decl = {t: i for i, t in enumerate(terms)}
    if pros and not cons:
        delta_sum = 0.0
        for t in terms:
            delta_sum += abs(pref[t] - other[t])
        reference = (1.0 / len(terms)) * (delta_sum / len(terms))
        named = [t for t in pros if weighted[t] > reference]
        if not named:
            named = [max(pros, key=lambda t: (weighted[t], -decl[t]))]
        named.sort(key=lambda t: (-weighted[t], decl[t]))
        return DecisiveDominance(
            pros=tuple(named), weighted_differences=weighted, reference=reference
        )
    exact = {t: Fraction(w) for t, w in weighted.items()}
    picked = tradeoff_oracle(pros, cons, exact, terms)
    if picked is None:
        return None
    return DecisiveTradeoff(pros=picked[0], cons=picked[1], weighted_differences=weighted)


def any_inverting_permutation(
    values_a: dict[str, float],
    values_b: dict[str, float],
    weights_a: dict[str, float],
    weights_b: dict[str, float],
) -> bool:
    """Does ANY reassignment of weight labels make a's mean drop below b's?"""
    keys = sorted(values_a)

    def mean(values, weights, perm):
        num = sum(weights[perm[k]] * values[k] for k in keys)
        den = sum(weights[perm[k]] for k in keys)
        return num / den

    for image in itertools.permutations(keys):
        perm = dict(zip(keys, image))
        if mean(values_a, weights_a, perm) < mean(values_b, weights_b, perm):
            return True
    return False


def _permuted_mean(table, new_weights) -> float:
    num = sum(new_weights[k] * v for k, (v, _) in table.items())
    den = sum(new_weights[k] for k in table)
    return num / den


def _cycle_swaps(perm, order) -> list:
    seen = set()
    swaps = []
    for start in sorted(perm, key=lambda k: order[k]):
        if start in seen or perm[start] is start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt is not start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        swaps.extend(zip(cycle, cycle[1:]))
    return swaps


def permutation_oracle(ctx, term):
    """Exhaustive search for the weight swaps that flip one term.

    Walks every non-identity permutation of the shared reputation types,
    rebuilding both weight tables per candidate, and keeps the inverting
    one with the fewest swaps, then the largest weight gap on the
    preferred provider's weights, then canonical type order. Means are
    summed in component order, so the floats match the library's. A side
    whose present components weigh nothing in total gives None.
    """
    def component_table(assessment):
        ta = assessment.per_term.get(term)
        if ta is None:
            return {}
        return {c.rep_type: (c.value, c.weight) for c in ta.components if c.value is not None}

    pref_table = component_table(ctx.preferred)
    other_table = component_table(ctx.other)
    shared = [k for k in REPUTATION_ORDER if k in pref_table and k in other_table]
    if len(shared) < 2:
        return None
    any_better = any(pref_table[k][0] > other_table[k][0] for k in shared)
    any_worse = any(pref_table[k][0] < other_table[k][0] for k in shared)
    if any_better and not any_worse:
        return None
    # A side whose present components all weigh zero has no term trust.
    if sum(w for _, w in pref_table.values()) <= 0 or sum(w for _, w in other_table.values()) <= 0:
        return None

    pref_orig = _permuted_mean(pref_table, {k: w for k, (_, w) in pref_table.items()})
    other_orig = _permuted_mean(other_table, {k: w for k, (_, w) in other_table.items()})

    order = {k: i for i, k in enumerate(REPUTATION_ORDER)}
    best = None
    for image in itertools.permutations(shared):
        perm = dict(zip(shared, image))
        if all(perm[k] is k for k in shared):
            continue
        pref_weights = {k: w for k, (_, w) in pref_table.items()}
        other_weights = {k: w for k, (_, w) in other_table.items()}
        pref_weights.update({k: pref_table[perm[k]][1] for k in shared})
        other_weights.update({k: other_table[perm[k]][1] for k in shared})
        pref_swapped = _permuted_mean(pref_table, pref_weights)
        other_swapped = _permuted_mean(other_table, other_weights)
        if not pref_swapped < other_swapped:
            continue
        swaps = _cycle_swaps(perm, order)
        gap = sum(abs(pref_table[a][1] - pref_table[b][1]) for a, b in swaps)
        rank = (len(swaps), -gap, tuple((order[a], order[b]) for a, b in swaps))
        if best is None or rank < best[0]:
            best = (rank, swaps, pref_swapped, other_swapped)

    if best is None:
        return None
    _, swaps, pref_swapped, other_swapped = best
    return TypePermutation(
        term=term,
        swaps=tuple(
            (a, b) if pref_table[a][1] >= pref_table[b][1] else (b, a) for a, b in swaps
        ),
        preferred_original=pref_orig,
        other_original=other_orig,
        preferred_swapped=pref_swapped,
        other_swapped=other_swapped,
    )


class RatingStoreOracle:
    """A plain list: every query scans and sorts it, every capped insert
    rescans it and evicts the source's record with the smallest content
    key, the earliest inserted among equal keys."""

    def __init__(self, history_cap=None):
        self.history_cap = history_cap
        self.records = []

    def __len__(self) -> int:
        return len(self.records)

    def insert(self, rating) -> None:
        self.records.append(rating)
        if self.history_cap is None:
            return
        mine = [i for i, r in enumerate(self.records) if r.source == rating.source]
        if len(mine) > self.history_cap:
            del self.records[min(mine, key=lambda i: (content_key(self.records[i]), i))]

    def query(self, target, term, rep_type) -> list:
        return [
            r
            for r in self.all_records()
            if (r.target, r.term, r.rep_type) == (target, term, rep_type)
        ]

    def all_records(self) -> list:
        return sorted(self.records, key=content_key)


def witness_copy_oracle(scenario, own_ratings) -> dict:
    """Each agent's rating store as if it held its witnesses' ratings.

    ``own_ratings`` maps each agent to the interaction ratings its store
    keeps at the end of the rounds. Each agent's oracle store gets its own
    ratings, then, witness by witness, a witness-tagged copy of each of
    that witness's ratings, inserted one at a time. Its witness queries
    are what the simulated store must read without holding the copies.
    """
    stores = {}
    for agent in scenario.agents:
        store = RatingStoreOracle(scenario.fire.history_cap)
        for rating in own_ratings[agent.id]:
            store.insert(rating)
        for witness in scenario.witnesses.get(agent.id, ()):
            for r in own_ratings[witness]:
                store.insert(
                    Rating(
                        source=r.source,
                        target=r.target,
                        term=r.term,
                        rep_type=ReputationType.WITNESS,
                        value=r.value,
                        timestamp=r.timestamp,
                        interaction_id=r.interaction_id,
                    )
                )
        stores[agent.id] = store
    return stores


def content_key(r):
    """Every field of a rating that an engine reads, timestamp first."""
    return (
        r.timestamp,
        r.source,
        r.target,
        r.term,
        r.rep_type.value,
        r.value,
        r.interaction_id or "",
    )


class ObservationStoreOracle:
    """One (witness, term, opinion value, success) entry per observation,
    filtered linearly and counted; bin b of n is [(b-1)/n, b/n), the last
    bin closed at 1."""

    def __init__(self):
        self.observations = []

    def __len__(self) -> int:
        return len(self.observations)

    def add(self, witness, term, opinion_value, n, successes) -> None:
        for index in range(n):
            self.observations.append((witness, term, opinion_value, index < successes))

    def query(self, witness, term, opinion_bin, bins) -> tuple:
        lo, hi = (opinion_bin - 1) / bins, opinion_bin / bins
        outcomes = [
            success
            for w, t, value, success in self.observations
            if (w, t) == (witness, term)
            and (lo <= value < hi or (opinion_bin == bins and value == hi))
        ]
        return len(outcomes), sum(outcomes)

    def entries(self) -> list:
        counts = {}
        for witness, term, value, success in self.observations:
            count = counts.setdefault((witness, term, value), [0, 0])
            count[0] += 1
            count[1] += success
        return sorted((*key, n, successes) for key, (n, successes) in counts.items())


#: Absolute tolerance for assessment self-consistency checks.
ASSESSMENT_TOL = 1e-9


def _fsum_mean(pairs):
    """Correctly rounded sums over the (value, weight) pairs: the weighted
    mean, or None when no weight is positive."""
    den = math.fsum(w for _, w in pairs)
    return math.fsum(w * v for v, w in pairs) / den if den > 0 else None


def validate_assessment(assessment, preferences, tol: float = ASSESSMENT_TOL) -> None:
    """Check an assessment's internal consistency.

    Recomputes every term trust from its components and the overall score
    from the term trusts, with ``math.fsum`` rather than the library's
    left-to-right sums; raises ValueError when a value is missing where
    the recomputation has one, or the other way round, or drifts by more
    than ``tol``.
    """

    def check(what, stored, recomputed):
        if (stored is None) != (recomputed is None) or (
            stored is not None and abs(recomputed - stored) > tol
        ):
            raise ValueError(f"{what} inconsistent: {stored} stored vs {recomputed} recomputed")

    evidenced = []
    for term, ta in assessment.per_term.items():
        pairs = [(c.value, c.weight) for c in ta.components if c.value is not None]
        check(f"term trust for {term!r}", ta.term_trust, _fsum_mean(pairs))
        if ta.term_trust is not None:
            evidenced.append((ta.term_trust, preferences.term_weights[term]))
    check("overall", assessment.overall, _fsum_mean(evidenced))


def context_oracle(world, model, assessor, preferred, other) -> ComparisonContext:
    """The comparison context built the long way: assess every provider,
    each FIRE assessment with its uniform baseline, then pick the pair."""
    world.require_provider(preferred)
    world.require_provider(other)
    world.require_agent(assessor)
    store = world.rating_stores[assessor]
    results = {}
    for provider in world.providers:
        if model is Model.FIRE:
            results[provider.id] = fire.assess_provider(
                store,
                assessor,
                provider.id,
                world.preferences,
                world.fire,
                now=world.now,
                role_rules=world.role_rules,
                agent_roles=world.agent_roles(),
            )
        else:
            results[provider.id] = travos.assess_provider(
                store,
                world.observation_stores[assessor],
                assessor,
                provider.id,
                world.preferences,
                world.travos,
            )
    pref, oth = results[preferred], results[other]
    fire_diag = travos_diag = None
    if model is Model.FIRE:
        fire_diag = FireDiagnostics(uniform_preferred=pref.uniform, uniform_other=oth.uniform)
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


def query_scan(world, agent, target, term, rep_type) -> list:
    """``world.rating_stores[agent].query(...)`` by scanning: the store's
    own records of the bucket, then, for the witness type, a witness-tagged
    copy of every interaction record its witnesses hold about ``target`` on
    ``term``; each part in ``content_key`` order."""
    key = (target, term, rep_type)
    found = [
        r for r in world.rating_stores[agent].all_records()
        if (r.target, r.term, r.rep_type) == key
    ]
    if rep_type is ReputationType.WITNESS:
        shared = [
            r._replace(rep_type=ReputationType.WITNESS)
            for witness in world.witnesses.get(agent, ())
            for r in world.rating_stores[witness].all_records()
            if (r.target, r.term, r.rep_type) == (target, term, ReputationType.INTERACTION)
        ]
        found += sorted(shared, key=content_key)
    return found


def fire_reference(world, agent, target) -> fire.FireAssessment:
    """``fire.assess_provider`` with its uniform baseline, from a fresh
    scan per component: each recency weight straight from
    ``recency_weight``, every mean summed left to right."""
    prefs = world.preferences
    roles = world.agent_roles()
    weighted, uniform = {}, {}
    for term in prefs.terms:
        weighted[term], uniform[term] = [], []
        for k in REPUTATION_ORDER:
            importance = prefs.component_weights.get(k, 0.0)
            if not importance > 0.0:
                continue
            if k is ReputationType.ROLE_BASED:
                pseudo = fire.role_pseudo_ratings(
                    world.role_rules, roles.get(agent, ()), roles.get(target, ()), term
                )
                values = [weighted_mean(pseudo)] * 2
            else:
                ratings = query_scan(world, agent, target, term, k)
                weights = [
                    fire.recency_weight(world.now - r.timestamp, world.fire.lambda_)
                    for r in ratings
                ]
                values = [
                    weighted_mean(zip([r.value for r in ratings], weights)),
                    weighted_mean((r.value, 1.0) for r in ratings),
                ]
            for components, value in zip((weighted[term], uniform[term]), values):
                components.append(
                    ComponentTrust(k, value, importance if value is not None else 0.0)
                )
    return fire.FireAssessment(
        assessment=build_assessment(agent, target, weighted, prefs),
        uniform=build_assessment(agent, target, uniform, prefs),
    )


def travos_reference(world, agent, target) -> travos.TravosAssessment:
    """``travos.assess_provider`` from fresh scans: the interaction records
    binarized per term, the witness records grouped per witness, each
    observation count filtered by its bin's interval, and every accuracy
    and discount computed from its formula."""
    config = world.travos
    bins = config.bins
    entries = world.observation_stores[agent].entries()
    results = {}
    for term in world.preferences.terms:
        own = query_scan(world, agent, target, term, ReputationType.INTERACTION)
        pos = len([r for r in own if r.value >= travos.SUCCESS_THRESHOLD])
        interaction = travos.BetaParams(1.0 + pos, 1.0 + (len(own) - pos))
        conf = travos.confidence(interaction, config.epsilon)
        contributions = []
        if conf < config.confidence_threshold:
            by_witness = {}
            for r in query_scan(world, agent, target, term, ReputationType.WITNESS):
                by_witness.setdefault(r.source, []).append(r.value >= travos.SUCCESS_THRESHOLD)
            for witness, outcomes in sorted(by_witness.items()):
                opinion = travos.BetaParams(
                    1.0 + outcomes.count(True), 1.0 + outcomes.count(False)
                )
                opinion_bin = travos.bin_of(opinion.mean, bins)
                lo, hi = (opinion_bin - 1) / bins, opinion_bin / bins
                n = successes = 0
                for w, t, value, count, good in entries:
                    if (w, t) == (witness, term) and (
                        lo <= value < hi or (opinion_bin == bins and value == hi)
                    ):
                        n += count
                        successes += good
                rho = travos.interval_mass(
                    travos.BetaParams(1.0 + successes, 1.0 + (n - successes)), lo, hi
                )
                e_bar = 0.5 + rho * (opinion.mean - 0.5)
                s_bar = travos.UNIFORM_STD + rho * (opinion.std - travos.UNIFORM_STD)
                var = s_bar * s_bar
                alpha = (e_bar * e_bar - e_bar**3) / var - e_bar
                beta = ((1.0 - e_bar) ** 2 - (1.0 - e_bar) ** 3) / var - (1.0 - e_bar)
                discounted = (
                    travos.BetaParams(alpha, beta)
                    if alpha > 0.0 and beta > 0.0 else travos.UNIFORM_PRIOR
                )
                contributions.append(
                    travos.WitnessContribution(witness, opinion, opinion_bin, rho, discounted)
                )
        discounted = [c.discounted for c in contributions]
        w_i, w_w = travos.decomposition_weights(interaction, discounted)
        pooled_mean = None
        if discounted:
            pooled_mean = travos.BetaParams(
                total(d.alpha for d in discounted), total(d.beta for d in discounted)
            ).mean
        results[term] = travos.TravosTermResult(
            interaction=interaction,
            interaction_confidence=conf,
            low_confidence=conf < config.confidence_threshold,
            witnesses=tuple(contributions),
            components=(
                ComponentTrust(ReputationType.INTERACTION, interaction.mean, w_i),
                ComponentTrust(ReputationType.WITNESS, pooled_mean,
                               w_w if discounted else 0.0),
            ),
        )
    components = {term: res.components for term, res in results.items()}
    return travos.TravosAssessment(
        assessment=build_assessment(agent, target, components, world.preferences),
        term_results=results,
    )
