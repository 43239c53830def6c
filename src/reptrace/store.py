"""Pattern-queryable evidence databases.

Three stores back the reputation engines: a rating store with an optional
bounded per-source history, a role-rule list, and an observation store
pairing past witness opinions with the outcomes that followed them.

Mutations are expected to come from a single writer; query results are
fresh lists that callers may keep across later mutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .core import AgentId, Rating, ReputationType, Term
from .errors import BadBinError

#: Wildcard marker for pattern fields ("match any value").
ANY = None


@dataclass(frozen=True)
class RatingPattern:
    """Conjunctive match over rating fields; None fields match anything."""

    source: Optional[AgentId] = ANY
    target: Optional[AgentId] = ANY
    term: Optional[Term] = ANY
    rep_type: Optional[ReputationType] = ANY
    interaction_id: Optional[str] = ANY

    def matches(self, rating: Rating) -> bool:
        return (
            (self.source is ANY or rating.source == self.source)
            and (self.target is ANY or rating.target == self.target)
            and (self.term is ANY or rating.term == self.term)
            and (self.rep_type is ANY or rating.rep_type is self.rep_type)
            and (self.interaction_id is ANY or rating.interaction_id == self.interaction_id)
        )


def _content_key(rating: Rating):
    # Query order must depend on store content only, never on insertion
    # interleaving, so ties at a timestamp sort by the remaining fields.
    return (
        rating.timestamp,
        rating.source,
        rating.target,
        rating.term,
        rating.rep_type.value,
        rating.value,
        rating.interaction_id or "",
    )


@dataclass
class RatingStore:
    """Ordered multiset of ratings with an optional per-source history cap.

    With ``history_cap`` set to H, each source agent keeps only its H
    most recent ratings (by timestamp; insertion order breaks ties, the
    oldest inserted record is evicted first). Each source has its own
    budget, so witness copies never crowd out self-authored history.
    """

    history_cap: Optional[int] = None
    _records: list[Rating] = field(default_factory=list)

    def __post_init__(self):
        if self.history_cap is not None and self.history_cap <= 0:
            raise ValueError("history_cap must be positive when set")

    def __len__(self) -> int:
        return len(self._records)

    def insert(self, rating: Rating) -> None:
        """Append a rating, evicting the source's oldest record over the cap."""
        self._records.append(rating)
        if self.history_cap is None:
            return
        indices = [i for i, r in enumerate(self._records) if r.source == rating.source]
        if len(indices) <= self.history_cap:
            return
        # Oldest by timestamp; among equal timestamps the earliest insertion.
        evict = min(indices, key=lambda i: (self._records[i].timestamp, i))
        del self._records[evict]

    def query(self, pattern: RatingPattern) -> list[Rating]:
        """All records matching the pattern, in timestamp order."""
        return sorted(
            (r for r in self._records if pattern.matches(r)), key=_content_key
        )

    def all_records(self) -> list[Rating]:
        return self.query(RatingPattern())


@dataclass(frozen=True)
class RoleRule:
    """Expectation rule: agents in (role_a, role_b) relate with likelihood e.

    ``expected_value`` stays in the declaring model's native range; the
    engine normalises it when building pseudo-ratings.
    """

    role_a: str
    role_b: str
    term: Term
    likelihood: float
    expected_value: float

    def __post_init__(self):
        if not 0.0 <= self.likelihood <= 1.0:
            raise ValueError("likelihood must lie in [0, 1]")


@dataclass(frozen=True)
class ObservationRecord:
    """A past witness opinion paired with the outcome that followed it."""

    assessor: AgentId
    witness: AgentId
    target: AgentId
    term: Term
    interaction_id: str
    opinion_value: float
    outcome_rating: float

    def __post_init__(self):
        if not 0.0 <= self.opinion_value <= 1.0:
            raise ValueError("opinion_value must lie in [0, 1]")


def bin_bounds(opinion_bin: int, bins: int) -> tuple[float, float]:
    """Half-open interval [lo, hi) of a bin; the last bin is closed at 1."""
    if not 1 <= opinion_bin <= bins:
        raise BadBinError(f"bin {opinion_bin} outside 1..{bins}")
    return (opinion_bin - 1) / bins, opinion_bin / bins


def bin_of(opinion_value: float, bins: int) -> int:
    """1-based index of the bin containing an opinion value in [0, 1]."""
    if not 0.0 <= opinion_value <= 1.0:
        raise BadBinError(f"opinion value {opinion_value!r} outside [0, 1]")
    return min(bins, int(math.floor(opinion_value * bins)) + 1)


def _in_bin(value: float, opinion_bin: int, bins: int) -> bool:
    lo, hi = bin_bounds(opinion_bin, bins)
    if opinion_bin == bins:
        return lo <= value <= hi
    return lo <= value < hi


@dataclass
class ObservationStore:
    """Append-only list of observation records."""

    _records: list[ObservationRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self._records)

    def insert(self, record: ObservationRecord) -> None:
        self._records.append(record)

    def all_records(self) -> list[ObservationRecord]:
        return list(self._records)

    def query(
        self,
        assessor: AgentId,
        witness: AgentId,
        term: Term,
        opinion_bin: int,
        bins: int,
    ) -> list[ObservationRecord]:
        """Records whose past opinion falls in the given bin."""
        bin_bounds(opinion_bin, bins)  # validate even when the store is empty
        return [
            rec
            for rec in self._records
            if rec.assessor == assessor
            and rec.witness == witness
            and rec.term == term
            and _in_bin(rec.opinion_value, opinion_bin, bins)
        ]
