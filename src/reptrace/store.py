"""Evidence databases, each read by one indexed key.

Three stores back the reputation engines: a rating store with an optional
bounded per-source history, a role-rule list, and an observation store
counting the outcomes that followed past witness opinions.

Mutations are expected to come from a single writer. A rating query
returns one bucket as an immutable tuple, its snapshot, built on the
first query of the bucket after the last mutation; a caller may keep it
across later mutations, and it never changes. Rating records are
immutable, so one record may be read through several stores at once.

A rating store also keeps, in one dict, what the engines finish from
one bucket (``RatingStore.derived``) or from several buckets of one
target (``RatingStore.derived_terms``):

- each target keeps FIRE's term assessments from the interaction,
  witness and certified buckets of its terms per (terms, importances,
  config, now, role evidence), with their uniform baselines when they
  are asked for;
- each interaction bucket keeps TRAVOS's term result from the
  assessor's own evidence with its term assessment: its beta,
  confidence and low-confidence flag, and for a confident term the
  whole result;
- for a term of low confidence, the witness bucket keeps TRAVOS's
  witness contributions and pooled witness evidence, per number of bins,
  for the last observation store the rating store was read with.

``RatingStore.insert`` and ``share_witness_evidence`` drop every
snapshot and every kept value of the stores they change, and
``ObservationStore.add`` drops every value derived from that
observation store. A rating store keeps values derived from one
observation store at a time: reading it with another drops those of the
one before. A value lives only as long as its store, so it pays
only when one store serves several requests: a fresh command builds its
stores anew and reads each bucket once per model.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterable, Mapping, NamedTuple, Optional

from .core import AgentId, Rating, ReputationType, Term


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


def share_witness_evidence(
    stores: Mapping[AgentId, "RatingStore"], witnesses: Mapping[AgentId, Iterable[AgentId]]
) -> None:
    """Let each agent's store read its witnesses' own interaction ratings.

    One witness-tagged copy of every interaction rating the stores hold
    is made, and grouped into one run per (target, term) in
    ``_bucket_key`` order. Every store reads the runs, never copies them,
    so every store is sealed: its ``insert`` raises ``ValueError`` from
    then on, since the runs would not see the new record. Snapshots and
    derived values taken before sharing are dropped, since they lack the
    runs.
    """
    runs: dict[tuple[AgentId, Term], list[Rating]] = {}
    for store in stores.values():
        for (target, term, kind), bucket in store._buckets.items():
            if kind is ReputationType.INTERACTION:
                # The originals were validated; ``_replace`` skips the checks.
                runs.setdefault((target, term), []).extend(
                    r._replace(rep_type=ReputationType.WITNESS) for r in bucket
                )
    for run in runs.values():
        run.sort(key=_bucket_key)
    for agent, store in stores.items():
        store._sealed = True
        store._witness_runs = runs
        store._peers = frozenset(witnesses.get(agent, ()))
        store._snapshots.clear()
        store._derived.clear()


class RatingStore:
    """Ordered multiset of ratings with an optional per-source history cap.

    Records live in buckets keyed by (target, term, rep_type),
    each kept in ``_content_key`` order with equal keys in insertion
    order. A query returns one bucket as a tuple, built on the first
    query of its key after the last insert; ``derived`` keeps what is
    computed from a bucket. An insert clears every snapshot and every
    derived value of the store.

    With ``history_cap`` set to H, each source agent keeps only its H
    ratings with the largest ``_content_key``: its most recent ones by
    timestamp, with ties at a timestamp broken by the remaining fields.
    Eviction removes one record at a time, never a whole interaction, and
    the kept records depend on the store's content only, never on the
    order of insertion. Each source has its own budget. ``insert`` adds
    one record in O(log n) comparisons plus a list shift and returns the
    records the cap evicted, so a caller can keep running counts over
    the store.

    A store belongs to one agent, its ``owner``, and holds only the
    owner's interaction ratings and any explicit witness or certified
    records; ``len`` and ``all_records`` count only these. ``insert``
    rejects an interaction rating from any other source and a witness
    rating from the owner, so an engine reads every interaction record as
    the assessor's own and every witness record as someone else's. What
    the owner's witnesses rated themselves is read through
    ``share_witness_evidence``, never held; after it the store is sealed.
    """

    def __init__(self, owner: AgentId, history_cap: Optional[int] = None):
        if history_cap is not None and history_cap <= 0:
            raise ValueError("history_cap must be positive when set")
        self.owner = owner
        self.history_cap = history_cap
        self._buckets: dict[tuple[AgentId, Term, ReputationType], list[Rating]] = {}
        # Per source, in ``_content_key`` order; kept only under a cap.
        self._by_source: dict[AgentId, list[Rating]] = {}
        self._size = 0
        # Set by ``share_witness_evidence``.
        self._sealed = False
        self._witness_runs: Mapping[tuple[AgentId, Term], list[Rating]] = {}
        self._peers: frozenset[AgentId] = frozenset()
        self._snapshots: dict[tuple[AgentId, Term, ReputationType], tuple[Rating, ...]] = {}
        # (target, term, rep_type, fn, args) -> fn(that bucket's snapshot, *args),
        # and (target, terms, rep_types, fn, args) -> fn(those snapshots, *args).
        self._derived: dict[tuple, object] = {}
        # The observation store whose derived values ``_derived`` may hold.
        self._observations: Optional[ObservationStore] = None

    def __len__(self) -> int:
        return self._size

    def insert(self, rating: Rating) -> list[Rating]:
        """Add a rating; return the records the cap evicted (at most one).

        Raises ``ValueError``, leaving the store unchanged, for a record
        the store may not hold, or once the store is sealed.
        """
        if self._sealed:
            raise ValueError(f"{self.owner}'s store is sealed: its witness evidence is shared")
        if rating.rep_type is ReputationType.INTERACTION:
            if rating.source != self.owner:
                raise ValueError(
                    f"an interaction rating in {self.owner}'s store must have source "
                    f"{self.owner!r}, not {rating.source!r}"
                )
        elif rating.rep_type is ReputationType.WITNESS and rating.source == self.owner:
            raise ValueError(
                f"a witness rating in {self.owner}'s store must not have its owner as source"
            )
        key = (rating.target, rating.term, rating.rep_type)
        bucket = self._buckets.setdefault(key, [])
        # insort is insort_right: equal keys stay in insertion order.
        bisect.insort(bucket, rating, key=_bucket_key)
        self._snapshots.clear()
        self._derived.clear()
        self._size += 1
        if self.history_cap is None:
            return []
        history = self._by_source.setdefault(rating.source, [])
        bisect.insort(history, rating, key=_content_key)
        if len(history) <= self.history_cap:
            return []
        # The source's smallest record goes; among equal keys, the earliest
        # inserted.
        old = history.pop(0)
        key = (old.target, old.term, old.rep_type)
        bucket = self._buckets[key]
        # Records with an equal bucket key are identical to the evicted
        # one in every field an engine reads, so removing any one of them
        # is equivalent; bisect_left removes the first.
        del bucket[bisect.bisect_left(bucket, _bucket_key(old), key=_bucket_key)]
        if not bucket:
            del self._buckets[key]
        self._size -= 1
        return [old]

    def query(
        self, target: AgentId, term: Term, rep_type: ReputationType
    ) -> tuple[Rating, ...]:
        """The records about ``target`` on ``term`` of one reputation type,
        as an immutable snapshot: the same tuple on every query until the
        next insert.

        For the witness type: the explicit records, then those of the
        owner's witnesses, each part in ``_bucket_key`` order.
        """
        key = (target, term, rep_type)
        found = self._snapshots.get(key)
        if found is None:
            records = self._buckets.get(key, [])
            if rep_type is ReputationType.WITNESS and self._peers:
                peers = self._peers
                shared = [
                    r for r in self._witness_runs.get((target, term), ()) if r.source in peers
                ]
                records = records + shared
            found = self._snapshots[key] = tuple(records)
        return found

    def derived(self, target: AgentId, term: Term, rep_type: ReputationType, fn, *args):
        """``fn(self.query(target, term, rep_type), *args)``, computed on
        the first call with this bucket and these arguments and kept until
        the next insert.

        The query runs on every call, so every read of evidence goes
        through ``query``. A call that raises keeps nothing, so it raises
        again on every call. ``fn`` must depend on nothing but its
        arguments and, for an ``ObservationStore`` among them, on what
        the observation store holds: its ``add`` drops every value
        computed from it. Values are kept for one observation store at a
        time: a miss with another one drops those computed from the one
        before, so a caller that passes a fresh observation store to every
        call keeps one set of them, not one per store.
        """
        records = self.query(target, term, rep_type)
        return self._kept((target, term, rep_type, fn, args), fn, records, args)

    def derived_terms(
        self,
        target: AgentId,
        terms: tuple[Term, ...],
        rep_types: tuple[ReputationType, ...],
        fn,
        *args,
    ):
        """``fn(snapshots, *args)``, where ``snapshots`` holds, for each
        term of ``terms`` in order, the tuple of ``self.query(target,
        term, k)`` for each type ``k`` of ``rep_types``: a value that
        combines several buckets of one target, kept as ``derived`` keeps
        its values.

        Every query runs on every call, as in ``derived``.
        """
        snapshots = tuple(
            [tuple([self.query(target, term, k) for k in rep_types]) for term in terms]
        )
        return self._kept((target, terms, rep_types, fn, args), fn, snapshots, args)

    def _kept(self, key: tuple, fn, evidence, args: tuple):
        """The value kept under ``key``, or ``fn(evidence, *args)`` kept
        there now."""
        try:
            return self._derived[key]
        except KeyError:
            pass
        self._read_with(args)
        value = self._derived[key] = fn(evidence, *args)
        return value

    def _read_with(self, args: tuple) -> None:
        """Register with each observation store among ``args``, dropping
        first the values computed from another one."""
        for arg in args:
            if type(arg) is ObservationStore:
                if arg is not self._observations:
                    if self._observations is not None:
                        self._drop_derived_from(self._observations)
                    self._observations = arg
                arg._readers.add(self)

    def _drop_derived_from(self, observations: "ObservationStore") -> None:
        """Drop every kept value computed from ``observations``."""
        self._derived = {k: v for k, v in self._derived.items() if observations not in k[4]}

    def all_records(self) -> list[Rating]:
        """Every record held, in ``_content_key`` order, equal keys in
        insertion order."""
        # Equal keys share a bucket, and the sort is stable.
        return sorted(itertools.chain.from_iterable(self._buckets.values()), key=_content_key)


class _RoleRuleFields(NamedTuple):
    role_a: str
    role_b: str
    term: Term
    likelihood: float
    expected_value: float


class RoleRule(_RoleRuleFields):
    """Expectation rule: agents in (role_a, role_b) relate with likelihood e.

    ``expected_value`` lies in FIRE's rule range [-1, 1], from absolutely
    negative to absolutely positive; the engine maps it onto [0, 1] when
    building pseudo-ratings. Only the constructor validates; ``_make``
    and ``_replace`` skip the checks.
    """

    __slots__ = ()

    def __new__(cls, role_a, role_b, term, likelihood, expected_value):
        if not 0.0 <= likelihood <= 1.0:
            raise ValueError("likelihood must lie in [0, 1]")
        if not -1.0 <= expected_value <= 1.0:
            raise ValueError("expected_value must lie in [-1, 1]")
        return tuple.__new__(cls, (role_a, role_b, term, likelihood, expected_value))


def bin_bounds(opinion_bin: int, bins: int) -> tuple[float, float]:
    """Half-open interval [lo, hi) of a bin; the last bin is closed at 1."""
    if not 1 <= opinion_bin <= bins:
        raise ValueError(f"bin {opinion_bin} outside 1..{bins}")
    return (opinion_bin - 1) / bins, opinion_bin / bins


def bin_of(opinion_value: float, bins: int) -> int:
    """1-based index of the bin whose ``bin_bounds`` interval holds an
    opinion value in [0, 1]; where ``opinion_value * bins`` rounds across
    an edge, the floor is one bin off and one step corrects it."""
    if not 0.0 <= opinion_value <= 1.0:
        raise ValueError(f"opinion value {opinion_value!r} outside [0, 1]")
    b = min(bins, math.floor(opinion_value * bins) + 1)
    if b < bins and opinion_value >= b / bins:
        return b + 1
    if opinion_value < (b - 1) / bins:
        return b - 1
    return b


class ObservationStore:
    """What followed a witness's past opinions, as counts.

    Per (witness, term), a map from opinion value to [n, successes]: the
    witness gave that opinion before n outcomes, and successes of them
    were successful. That pair is all TRAVOS reads of an observation. The
    key is the opinion value, not its bin, so a query can use any number
    of bins. ``len`` is the number of observations counted.

    A query bins each opinion value of its (witness, term) by ``bin_of``.
    An ``add`` drops every value a ``RatingStore`` derived from this
    store.
    """

    def __init__(self):
        self._counts: dict[tuple[AgentId, Term], dict[float, list[int]]] = {}
        self._size = 0
        # Rating stores holding values derived from this store.
        self._readers: set[RatingStore] = set()

    def __len__(self) -> int:
        return self._size

    def add(self, witness: AgentId, term: Term, opinion_value: float, n: int,
            successes: int) -> None:
        """Count n observations of one opinion, successes of them successful."""
        count = self._counts.setdefault((witness, term), {}).setdefault(opinion_value, [0, 0])
        count[0] += n
        count[1] += successes
        self._size += n
        for reader in self._readers:
            reader._drop_derived_from(self)
        self._readers.clear()

    def entries(self) -> list[tuple[AgentId, Term, float, int, int]]:
        """Every (witness, term, opinion_value, n, successes), sorted."""
        return sorted(
            (witness, term, value, n, successes)
            for (witness, term), values in self._counts.items()
            for value, (n, successes) in values.items()
        )

    def query(self, witness: AgentId, term: Term, opinion_bin: int, bins: int) -> tuple[int, int]:
        """(n, successes) summed over the opinion values in the given bin.

        Raises ``ValueError`` from ``bin_of`` for a stored opinion value
        outside [0, 1].
        """
        bin_bounds(opinion_bin, bins)  # validate even when the store is empty
        n_total = successes_total = 0
        for value, (n, successes) in self._counts.get((witness, term), {}).items():
            if bin_of(value, bins) == opinion_bin:
                n_total += n
                successes_total += successes
        return n_total, successes_total
