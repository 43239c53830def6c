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

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .core import (
    AgentId,
    Assessment,
    ComponentTrust,
    Preferences,
    Rating,
    ReputationType,
    REPUTATION_ORDER,
    Term,
    build_assessment,
)
from .store import RatingStore, RoleRule

#: Components whose rating weight is the recency factor.
RECENCY_TYPES = (
    ReputationType.INTERACTION,
    ReputationType.WITNESS,
    ReputationType.CERTIFIED,
)


@dataclass(frozen=True)
class FireConfig:
    """Recency scale, component importance and per-source history cap."""

    lambda_: float = 5.0
    importance: Mapping[ReputationType, float] = field(
        default_factory=lambda: {
            ReputationType.INTERACTION: 0.75,
            ReputationType.WITNESS: 0.25,
        }
    )
    history_cap: Optional[int] = None

    def __post_init__(self):
        if self.lambda_ <= 0:
            raise ValueError("lambda must be positive")
        if not self.importance or not any(w > 0 for w in self.importance.values()):
            raise ValueError("at least one positive importance weight required")


def recency_weight(delta_tau: float, lambda_: float) -> float:
    """Exponential decay weight for a rating delta_tau rounds old."""
    if delta_tau < 0:
        raise ValueError("delta_tau must be non-negative")
    if lambda_ <= 0:
        raise ValueError("lambda must be positive")
    return math.exp(-delta_tau / lambda_)


class _RecencyTable(dict):
    """``recency_weight(age, lambda_)`` by age, computed on first lookup.

    A negative age raises ``ValueError`` from ``recency_weight`` and is
    never stored.
    """

    def __init__(self, lambda_: float):
        super().__init__()
        self.lambda_ = lambda_

    def __missing__(self, age):
        weight = self[age] = recency_weight(age, self.lambda_)
        return weight


@functools.lru_cache(maxsize=16)
def _recency_table(lambda_: float) -> _RecencyTable:
    return _RecencyTable(lambda_)


@dataclass(frozen=True)
class PseudoRating:
    """Rule-derived evidence: a normalized value carrying its own weight."""

    value: float
    weight: float


def role_pseudo_ratings(
    rules: Sequence[RoleRule],
    assessor_roles: Sequence[str],
    target_roles: Sequence[str],
    term: Term,
) -> list[PseudoRating]:
    """Instantiate matching role rules as weighted pseudo-ratings.

    A rule's expected value in [-1, 1] maps affinely onto [0, 1], so -1,
    0 and 1 become 0, 0.5 and 1; its likelihood is the rating's weight.
    """
    out = []
    for rule in rules:
        if rule.term != term:
            continue
        if rule.role_a in assessor_roles and rule.role_b in target_roles:
            out.append(
                PseudoRating(
                    value=(rule.expected_value + 1.0) / 2.0, weight=rule.likelihood
                )
            )
    return out


def _weighted_mean(pairs: Sequence[tuple[float, float]]) -> Optional[float]:
    den = sum(w for _, w in pairs)
    if den <= 0.0:
        return None
    return sum(w * v for v, w in pairs) / den


def component_trust(
    ratings: Sequence[Rating],
    rep_type: ReputationType,
    config: FireConfig,
    now: int,
    role_evidence: Sequence[PseudoRating] = (),
    recency: bool = True,
) -> ComponentTrust:
    """Recency-weighted component trust (likelihood-weighted for roles).

    With ``recency`` off every rating weighs the same: that is the uniform
    baseline. Role-based evidence keeps its likelihood weights either way,
    because the recency factor never applies to rules. Empty evidence
    yields an absent value with zero weight; otherwise the returned weight
    is the component's importance.
    """
    if rep_type is ReputationType.ROLE_BASED:
        pairs = [(p.value, p.weight) for p in role_evidence]
    elif recency:
        weights = _recency_table(config.lambda_)
        pairs = [(r.value, weights[now - r.timestamp]) for r in ratings]
    else:
        pairs = [(r.value, 1.0) for r in ratings]
    value = _weighted_mean(pairs)
    if value is None:
        return ComponentTrust(rep_type=rep_type, value=None, weight=0.0)
    return ComponentTrust(
        rep_type=rep_type, value=value, weight=config.importance.get(rep_type, 0.0)
    )


@dataclass(frozen=True)
class FireAssessment:
    """Recency-weighted assessment plus, on request, its uniform baseline.

    ``uniform`` weighs every rating equally. It is None unless
    ``assess_provider`` was called with ``baseline`` on, which only
    explanation contexts do.
    """

    assessment: Assessment
    uniform: Optional[Assessment]


def _collect(
    rating_store: RatingStore,
    role_rules: Sequence[RoleRule],
    agent_roles: Mapping[AgentId, Sequence[str]],
    assessor: AgentId,
    target: AgentId,
    term: Term,
) -> dict[ReputationType, tuple[list[Rating], list[PseudoRating]]]:
    """Gather the evidence backing every component of one term."""
    evidence: dict[ReputationType, tuple[list[Rating], list[PseudoRating]]] = {}
    evidence[ReputationType.INTERACTION] = (
        [
            r
            for r in rating_store.query(target, term, ReputationType.INTERACTION)
            if r.source == assessor
        ],
        [],
    )
    evidence[ReputationType.WITNESS] = (
        [
            r
            for r in rating_store.query(target, term, ReputationType.WITNESS)
            if r.source != assessor
        ],
        [],
    )
    evidence[ReputationType.CERTIFIED] = (
        rating_store.query(target, term, ReputationType.CERTIFIED),
        [],
    )
    evidence[ReputationType.ROLE_BASED] = (
        [],
        role_pseudo_ratings(
            role_rules,
            agent_roles.get(assessor, ()),
            agent_roles.get(target, ()),
            term,
        ),
    )
    return evidence


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
    also build the uniform-weight baseline."""
    agent_roles = agent_roles or {}
    weighted: dict[Term, list[ComponentTrust]] = {}
    uniform: dict[Term, list[ComponentTrust]] = {}
    active_types = [k for k in REPUTATION_ORDER if config.importance.get(k, 0.0) > 0.0]
    for term in preferences.terms:
        evidence = _collect(
            rating_store, role_rules, agent_roles, assessor, target, term
        )
        weighted[term] = [
            component_trust(evidence[k][0], k, config, now, evidence[k][1])
            for k in active_types
        ]
        if baseline:
            uniform[term] = [
                component_trust(evidence[k][0], k, config, now, evidence[k][1], recency=False)
                for k in active_types
            ]
    return FireAssessment(
        assessment=build_assessment(assessor, target, weighted, preferences),
        uniform=(
            build_assessment(assessor, target, uniform, preferences) if baseline else None
        ),
    )
