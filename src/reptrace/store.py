"""Evidence databases, each read by one indexed key.

Three stores back the reputation engines: a rating store with an optional
bounded per-source history, a role-rule list, and an observation store
pairing past witness opinions with the outcomes that followed them.

Mutations are expected to come from a single writer; query results are
fresh lists that callers may keep across later mutations. Rating records
are immutable, so one record may sit in several stores at once.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import AgentId, Rating, ReputationType, Term
from .errors import BadBinError


def _content_key(rating: Rating):
    # Record order must depend on store content only, never on insertion
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


def _bucket_key(rating: Rating):
    # ``_content_key`` without the fields every record of a bucket shares,
    # so it orders a bucket exactly as ``_content_key`` does, only cheaper.
    return (rating.timestamp, rating.source, rating.value, rating.interaction_id or "")


@dataclass
class RatingStore:
    """Ordered multiset of ratings with an optional per-source history cap.

    Records live in buckets keyed by (target, term, rep_type's value),
    each kept in ``_content_key`` order with equal keys in insertion
    order. A query returns one bucket; callers filter it by source
    themselves.

    With ``history_cap`` set to H, each source agent keeps only its H
    ratings with the largest ``_content_key``: its most recent ones by
    timestamp, with ties at a timestamp broken by the remaining fields.
    Eviction removes one record at a time, never a whole interaction, and
    the kept records depend on the store's content only, never on the
    order of insertion. Each source has its own budget, so witness copies
    never crowd out self-authored history.

    ``insert`` adds one record in O(log n) comparisons plus a list shift;
    ``extend`` adds many and sorts each touched bucket and source history
    once. Both leave the same store and return the records the cap
    evicted, so a caller can keep running counts over the store.
    """

    history_cap: Optional[int] = None
    # Keyed by the type's string value, whose hash is computed once in C
    # and cached; ``Enum.__hash__`` is a Python-level call. The value is
    # read as ``_value_``, Enum's documented attribute for it, because
    # ``.value`` is a Python-level property too.
    _buckets: dict[tuple[AgentId, Term, str], list[Rating]] = field(
        default_factory=dict
    )
    # Per source, in ``_content_key`` order; kept only under a cap.
    _by_source: dict[AgentId, list[Rating]] = field(default_factory=dict)
    _size: int = 0

    def __post_init__(self):
        if self.history_cap is not None and self.history_cap <= 0:
            raise ValueError("history_cap must be positive when set")

    def __len__(self) -> int:
        return self._size

    def insert(self, rating: Rating) -> list[Rating]:
        """Add a rating; return the records the cap evicted (at most one)."""
        bucket = self._buckets.setdefault(
            (rating.target, rating.term, rating.rep_type._value_), []
        )
        # insort is insort_right: equal keys stay in insertion order.
        bisect.insort(bucket, rating, key=_bucket_key)
        self._size += 1
        if self.history_cap is None:
            return []
        history = self._by_source.setdefault(rating.source, [])
        bisect.insort(history, rating, key=_content_key)
        return self._trim(history)

    def extend(self, ratings: Iterable[Rating]) -> list[Rating]:
        """Add ratings in bulk; return the records the cap evicted.

        The store ends up exactly as if each rating had been inserted in
        turn, and the evicted records are the ones those inserts evict.
        Each touched bucket and source history is sorted once, stably, so
        appended records follow equal keys already present.
        """
        ratings = list(ratings)
        buckets = set()
        for rating in ratings:
            key = (rating.target, rating.term, rating.rep_type._value_)
            self._buckets.setdefault(key, []).append(rating)
            buckets.add(key)
        for key in buckets:
            self._buckets[key].sort(key=_bucket_key)
        self._size += len(ratings)
        if self.history_cap is None:
            return []
        for rating in ratings:
            self._by_source.setdefault(rating.source, []).append(rating)
        evicted = []
        for source in dict.fromkeys(rating.source for rating in ratings):
            history = self._by_source[source]
            history.sort(key=_content_key)
            evicted += self._trim(history)
        return evicted

    def _trim(self, history: list[Rating]) -> list[Rating]:
        # Keeping a source's H largest records is the same whether they
        # arrived one at a time or together: the smallest go, and among
        # equal keys the earliest inserted goes first.
        over = len(history) - self.history_cap
        if over <= 0:
            return []
        evicted = history[:over]
        del history[:over]
        for rating in evicted:
            self._evict(rating)
        return evicted

    def _evict(self, rating: Rating) -> None:
        key = (rating.target, rating.term, rating.rep_type._value_)
        bucket = self._buckets[key]
        # Records with an equal bucket key are identical to the evicted
        # one in every field an engine reads, so removing any one of them
        # is equivalent; bisect_left removes the first.
        del bucket[bisect.bisect_left(bucket, _bucket_key(rating), key=_bucket_key)]
        if not bucket:
            del self._buckets[key]
        self._size -= 1

    def query(self, target: AgentId, term: Term, rep_type: ReputationType) -> list[Rating]:
        """The records about ``target`` on ``term`` of one reputation type."""
        return list(self._buckets.get((target, term, rep_type._value_), ()))

    def all_records(self) -> list[Rating]:
        """Every record in ``_content_key`` order, equal keys in insertion order."""
        # Equal keys share a bucket, and the sort is stable.
        return sorted(itertools.chain.from_iterable(self._buckets.values()), key=_content_key)


@dataclass(frozen=True)
class RoleRule:
    """Expectation rule: agents in (role_a, role_b) relate with likelihood e.

    ``expected_value`` lies in FIRE's rule range [-1, 1], from absolutely
    negative to absolutely positive; the engine maps it onto [0, 1] when
    building pseudo-ratings.
    """

    role_a: str
    role_b: str
    term: Term
    likelihood: float
    expected_value: float

    def __post_init__(self):
        if not 0.0 <= self.likelihood <= 1.0:
            raise ValueError("likelihood must lie in [0, 1]")
        if not -1.0 <= self.expected_value <= 1.0:
            raise ValueError("expected_value must lie in [-1, 1]")


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


@dataclass
class ObservationStore:
    """Append-only observation records, indexed by (assessor, witness, term).

    A query reads one index entry and filters it by bin, in insertion
    order; ``all_records`` returns every record in insertion order.
    """

    _records: list[ObservationRecord] = field(default_factory=list)
    _index: dict[tuple[AgentId, AgentId, Term], list[ObservationRecord]] = field(
        default_factory=dict
    )

    def __len__(self) -> int:
        return len(self._records)

    def insert(self, record: ObservationRecord) -> None:
        self._records.append(record)
        key = (record.assessor, record.witness, record.term)
        self._index.setdefault(key, []).append(record)

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
        lo, hi = bin_bounds(opinion_bin, bins)  # validate even when the store is empty
        closed = opinion_bin == bins  # the last bin includes 1
        return [
            rec
            for rec in self._index.get((assessor, witness, term), ())
            if lo <= rec.opinion_value < hi or (closed and rec.opinion_value == hi)
        ]
