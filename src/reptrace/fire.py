"""Recency-weighted trust backend with four evidence channels.

Component trust is a weighted mean of ratings. Interaction, witness and
certified ratings are weighted by an exponential recency factor; role-based
pseudo-ratings derived from rules are weighted by the rule's likelihood.
Component trusts combine into term trust through their importance weights.

On request an assessment is built a second time with every rating weighted
equally. That uniform baseline exists solely so the explanation layer can
detect rankings that recency alone flipped; rankings never build it.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Optional, Sequence

from .core import (
    AgentId,
    Assessment,
    ComponentTrust,
    Preferences,
    Rating,
    ReputationType,
    REPUTATION_ORDER,
    Term,
    TermAssessment,
    assessment_of_terms,
    term_assessment,
    weighted_mean,
)
from .store import RatingStore, RoleRule

#: Components whose rating weight is the recency factor.
RECENCY_TYPES = (
    ReputationType.INTERACTION,
    ReputationType.WITNESS,
    ReputationType.CERTIFIED,
)


class _FireConfigFields(NamedTuple):
    lambda_: float
    history_cap: Optional[int]


class FireConfig(_FireConfigFields):
    """Recency scale and per-source history cap.

    Component importance is the assessor's
    ``Preferences.component_weights``. Only the constructor validates;
    ``_make`` and ``_replace`` skip the checks.
    """

    __slots__ = ()

    def __new__(cls, lambda_=5.0, history_cap=None):
        if lambda_ <= 0:
            raise ValueError("lambda must be positive")
        return tuple.__new__(cls, (lambda_, history_cap))


def recency_weight(delta_tau: float, lambda_: float) -> float:
    """Exponential decay weight for a rating delta_tau rounds old."""
    if delta_tau < 0:
        raise ValueError("delta_tau must be non-negative")
    if lambda_ <= 0:
        raise ValueError("lambda must be positive")
    return math.exp(-delta_tau / lambda_)


def role_pseudo_ratings(
    rules: Sequence[RoleRule],
    assessor_roles: Sequence[str],
    target_roles: Sequence[str],
    term: Term,
) -> list[tuple[float, float]]:
    """Instantiate matching role rules as pseudo-ratings, each a
    ``(value, weight)`` pair as ``weighted_mean`` takes them.

    A rule's expected value in [-1, 1] maps affinely onto [0, 1], so -1,
    0 and 1 become 0, 0.5 and 1; its likelihood is the rating's weight.
    """
    out = []
    for rule in rules:
        if rule.term != term:
            continue
        if rule.role_a in assessor_roles and rule.role_b in target_roles:
            out.append(((rule.expected_value + 1.0) / 2.0, rule.likelihood))
    return out


def component_trust(
    ratings: Sequence[Rating],
    rep_type: ReputationType,
    importance: float,
    config: FireConfig,
    now: int,
    recency: bool = True,
    role_evidence: Sequence[tuple[float, float]] = (),
) -> ComponentTrust:
    """Recency-weighted component trust (likelihood-weighted for roles).

    With ``recency`` off every rating weighs the same: that is the uniform
    baseline. Role-based evidence keeps its likelihood weights either way,
    because the recency factor never applies to rules. Empty evidence
    yields an absent value with zero weight; otherwise the returned weight
    is the component's importance.

    Every value is one ``weighted_mean``.
    """
    if rep_type is ReputationType.ROLE_BASED:
        value = weighted_mean(role_evidence)
    elif recency:
        value = _recency_mean(ratings, config.lambda_, now)
    else:
        value = _uniform_mean(ratings)
    if value is None:
        return ComponentTrust(rep_type=rep_type, value=None, weight=0.0)
    return ComponentTrust(rep_type=rep_type, value=value, weight=importance)


def _recency_mean(ratings: Sequence[Rating], lambda_: float, now: int) -> Optional[float]:
    """``weighted_mean`` of the ratings' values by their recency weights."""
    return weighted_mean((r.value, recency_weight(now - r.timestamp, lambda_)) for r in ratings)


def _uniform_mean(ratings: Sequence[Rating]) -> Optional[float]:
    """``weighted_mean`` of the ratings' values, each of weight 1."""
    return weighted_mean((r.value, 1.0) for r in ratings)


class FireAssessment(NamedTuple):
    """Recency-weighted assessment plus, on request, its uniform baseline.

    ``uniform`` weighs every rating equally. It is None unless
    ``assess_provider`` was called with ``baseline`` on, which only
    explanation contexts do.
    """

    assessment: Assessment
    uniform: Optional[Assessment]


def assess_provider(
    rating_store: RatingStore,
    assessor: AgentId,
    target: AgentId,
    preferences: Preferences,
    config: FireConfig,
    now: int,
    role_rules: Sequence[RoleRule] = (),
    agent_roles: Optional[Mapping[AgentId, Sequence[str]]] = None,
    baseline: bool = True,
) -> FireAssessment:
    """Assess one provider on every preferred term; with ``baseline`` on,
    also build the uniform-weight baseline.

    Only components of positive importance are read: a term queries the
    store for those rating types alone, and instantiates role rules only
    when the role-based component counts. The terms' assessments, with
    their baselines, are the ones the store keeps from the target's
    buckets (``RatingStore.derived_terms``), so a sealed store's buckets
    are summed once per (terms, importances, config, now, baseline flag,
    role evidence).
    """
    agent_roles = agent_roles or {}
    assessor_roles = agent_roles.get(assessor, ())
    target_roles = agent_roles.get(target, ())
    importance = preferences.component_weights
    active = tuple(
        [(k, importance[k]) for k in REPUTATION_ORDER if importance.get(k, 0.0) > 0.0]
    )
    rated = tuple([k for k, _ in active if k is not ReputationType.ROLE_BASED])
    roles = len(rated) < len(active)
    terms = tuple(preferences.term_weights)
    pseudo = tuple(
        [tuple(role_pseudo_ratings(role_rules, assessor_roles, target_roles, t)) for t in terms]
        if roles
        else [()] * len(terms)
    )
    weighted, uniform = rating_store.derived_terms(
        target, terms, rated, _term_assessments, active, config, now, baseline, pseudo
    )
    return FireAssessment(
        assessment=assessment_of_terms(assessor, target, dict(zip(terms, weighted)), preferences),
        uniform=(
            assessment_of_terms(assessor, target, dict(zip(terms, uniform)), preferences)
            if baseline
            else None
        ),
    )


def _term_assessments(
    snapshots: Sequence[Sequence[Sequence[Rating]]],
    active: Sequence[tuple[ReputationType, float]],
    config: FireConfig,
    now: int,
    baseline: bool,
    role_evidence: Sequence[Sequence[tuple[float, float]]],
) -> tuple[tuple[TermAssessment, ...], tuple[Optional[TermAssessment], ...]]:
    """Each term's assessment from the ``active`` (type, importance)
    pairs, each rating type reading the next of the term's ``snapshots``
    and the role-based type the term's ``role_evidence``, and, with
    ``baseline`` on, each term's uniform baseline (else None)."""
    weighted = []
    uniform = []
    for term_snapshots, term_role_evidence in zip(snapshots, role_evidence):
        components = []
        uniform_components = []
        ratings = iter(term_snapshots)
        for k, weight in active:
            if k is ReputationType.ROLE_BASED:
                component = uniform_component = component_trust(
                    (), k, weight, config, now, role_evidence=term_role_evidence
                )
            else:
                records = next(ratings)
                component = component_trust(records, k, weight, config, now)
                if baseline:
                    uniform_component = component_trust(
                        records, k, weight, config, now, recency=False
                    )
            components.append(component)
            if baseline:
                uniform_components.append(uniform_component)
        weighted.append(term_assessment(components))
        uniform.append(term_assessment(uniform_components) if baseline else None)
    return tuple(weighted), tuple(uniform)
