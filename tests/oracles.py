"""Independent oracles used to compute expected values in the tests.

Everything here deliberately avoids the library's own code paths: masses
come from adaptive quadrature over the raw density, subset and permutation
searches are separate exhaustive enumerations, moment checks recompute
beta moments from first principles, the stores are plain lists
scanned on every query, documents are checked by jsonschema, an
assessment's term and overall trusts are recomputed from its parts, and
a comparison context is picked out of every provider's assessment.
"""

from __future__ import annotations

import functools
import itertools
import math

import jsonschema
from scipy.integrate import quad
from scipy.special import betaln

from reptrace import fire, travos
from reptrace.core import REPUTATION_ORDER, combine_term_trust, overall_trust
from reptrace.explain import (
    ComparisonContext,
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
    summed in component order, so the floats match the library's.
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
    """A plain list filtered linearly; bin b of n is [(b-1)/n, b/n), the
    last bin closed at 1."""

    def __init__(self):
        self.records = []

    def __len__(self) -> int:
        return len(self.records)

    def insert(self, record) -> None:
        self.records.append(record)

    def query(self, assessor, witness, term, opinion_bin, bins) -> list:
        lo, hi = (opinion_bin - 1) / bins, opinion_bin / bins
        return [
            rec
            for rec in self.records
            if (rec.assessor, rec.witness, rec.term) == (assessor, witness, term)
            and (lo <= rec.opinion_value < hi or (opinion_bin == bins and rec.opinion_value == hi))
        ]


#: Absolute tolerance for assessment self-consistency checks.
ASSESSMENT_TOL = 1e-9


def validate_assessment(assessment, preferences, tol: float = ASSESSMENT_TOL) -> None:
    """Check an assessment's internal consistency.

    Recomputes every term trust from its components and the overall score
    from the term trusts; raises ValueError when any value drifts by more
    than ``tol``.
    """
    evidenced = {}
    for term, ta in assessment.per_term.items():
        if ta.term_trust is None:
            continue
        recomputed = combine_term_trust(ta.components)
        if abs(recomputed - ta.term_trust) > tol:
            raise ValueError(
                f"term trust for {term!r} inconsistent: "
                f"{ta.term_trust} stored vs {recomputed} recomputed"
            )
        evidenced[term] = ta.term_trust
    if assessment.overall is None:
        if evidenced and sum(preferences.term_weights[t] for t in evidenced) > 0:
            raise ValueError("overall missing despite evidenced terms")
        return
    weights = {t: preferences.term_weights[t] for t in evidenced}
    recomputed = overall_trust(evidenced, weights)
    if abs(recomputed - assessment.overall) > tol:
        raise ValueError(
            f"overall inconsistent: {assessment.overall} stored "
            f"vs {recomputed} recomputed"
        )


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
