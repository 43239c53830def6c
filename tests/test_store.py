"""Store behaviour: eviction, bucket queries, binning."""

import copy
import itertools
import math
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ObservationStoreOracle, RatingStoreOracle, content_key
from reptrace.core import Rating, ReputationType
from reptrace.store import (
    ObservationStore,
    RatingStore,
    bin_bounds,
    bin_of,
    share_witness_evidence,
)

I = ReputationType.INTERACTION
W = ReputationType.WITNESS
C = ReputationType.CERTIFIED


def r(source="a", target="b", term="q", rep_type=I, value=0.5, ts=0, iid=None):
    return Rating(
        source=source,
        target=target,
        term=term,
        rep_type=rep_type,
        value=value,
        timestamp=ts,
        interaction_id=iid,
    )


#: A valid instance of each evidence record, by keyword, and its repr.
RECORDS = [
    (
        Rating,
        dict(source="a", target="b", term="q", rep_type=I, value=0.5,
             timestamp=3, interaction_id="i1"),
        "Rating(source='a', target='b', term='q', "
        "rep_type=<ReputationType.INTERACTION: 'interaction'>, value=0.5, "
        "timestamp=3, interaction_id='i1')",
    ),
]

#: One invalid field per case, with the exact exception type and message.
INVALID_FIELDS = [
    (Rating, "source", "", ValueError, "source, target and term must be non-empty"),
    (Rating, "target", "", ValueError, "source, target and term must be non-empty"),
    (Rating, "term", "", ValueError, "source, target and term must be non-empty"),
    (Rating, "value", 1.5, ValueError, "rating value 1.5 outside [0, 1]"),
    (Rating, "value", -0.0625, ValueError, "rating value -0.0625 outside [0, 1]"),
    (Rating, "value", math.nan, ValueError, "rating value nan outside [0, 1]"),
    (Rating, "timestamp", -1, ValueError, "timestamp must be a non-negative round index"),
]

RECORD_IDS = ["rating"]


class TestEvidenceRecords:
    """The value semantics every store and document relies on."""

    @pytest.mark.parametrize("cls, field, bad, error, message", INVALID_FIELDS)
    def test_constructor_check(self, cls, field, bad, error, message):
        fields = next(f for c, f, _ in RECORDS if c is cls)
        for build in (cls, lambda **kw: cls(*kw.values())):
            with pytest.raises(ValueError) as info:
                build(**dict(fields, **{field: bad}))
            assert type(info.value) is error
            assert str(info.value) == message

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=RECORD_IDS)
    def test_keyword_and_positional_construction(self, cls, fields, text):
        by_keyword = cls(**fields)
        by_position = cls(*fields.values())
        assert by_keyword == by_position
        for name, value in fields.items():
            assert getattr(by_keyword, name) == value
            assert getattr(by_position, name) == value

    def test_rating_interaction_id_defaults_to_none(self):
        fields = dict(RECORDS[0][1])
        del fields["interaction_id"]
        assert Rating(**fields).interaction_id is None
        assert Rating(*fields.values()) == Rating(**fields, interaction_id=None)

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=RECORD_IDS)
    def test_immutable(self, cls, fields, text):
        record = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, fields[name])
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == cls(**fields)

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=RECORD_IDS)
    def test_equality_and_hash_by_value(self, cls, fields, text):
        a, b = cls(**fields), cls(**dict(fields))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        for name in ("target", "term"):
            other = cls(**dict(fields, **{name: "z"}))
            assert other != a and not other == a

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=RECORD_IDS)
    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=RECORD_IDS)
    def test_deepcopy_and_pickle_round_trips(self, cls, fields, text):
        record = cls(**fields)
        for copied in (
            copy.deepcopy(record),
            *(pickle.loads(pickle.dumps(record, protocol=p))
              for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        ):
            assert type(copied) is cls
            assert copied == record and hash(copied) == hash(record)
            assert repr(copied) == text


class TestEviction:
    def test_oldest_evicted_at_cap(self):
        store = RatingStore("a", history_cap=2)
        store.insert(r(ts=0, value=0.1))
        store.insert(r(ts=1, value=0.2))
        store.insert(r(ts=2, value=0.3))
        timestamps = [rec.timestamp for rec in store.all_records()]
        assert sorted(timestamps) == [1, 2]

    def test_unbounded_by_default(self):
        store = RatingStore("a")
        for ts in range(10):
            store.insert(r(ts=ts))
        assert len(store) == 10

    def test_cap_is_per_source(self):
        store = RatingStore("a", history_cap=2)
        for source, rep_type in (("a", I), ("w", W)):
            store.insert(r(source=source, rep_type=rep_type, ts=0))
            store.insert(r(source=source, rep_type=rep_type, ts=1))
        assert len(store) == 4

    def test_tie_broken_by_content(self):
        first = r(ts=5, value=0.1, iid="first")
        second = r(ts=5, value=0.2, iid="second")
        for order in ((first, second), (second, first)):
            store = RatingStore("a", history_cap=1)
            for rec in order:
                store.insert(rec)
            [kept] = store.all_records()
            assert kept.interaction_id == "second"

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 5)),
            min_size=1,
            max_size=20,
        ),
        st.integers(1, 4),
    )
    def test_retained_are_most_recent_per_source(self, inserts, cap):
        store = RatingStore("a", history_cap=cap)
        full = RatingStore("a")
        for idx, (source, ts) in enumerate(inserts):
            rec = r(source=source, rep_type=I if source == "a" else W, ts=ts, iid=str(idx))
            store.insert(rec)
            full.insert(rec)
        for source in ("a", "b"):
            kept = {rec.interaction_id for rec in store.all_records() if rec.source == source}
            everything = sorted(
                (rec for rec in full.all_records() if rec.source == source),
                key=content_key,
            )
            expected = {rec.interaction_id for rec in everything[-cap:]}
            assert kept == expected


class TestQuery:
    def build(self):
        store = RatingStore("a")
        store.insert(r(source="a", target="b", term="q", rep_type=I, ts=2))
        store.insert(r(source="a", target="b", term="t", rep_type=I, ts=0))
        store.insert(r(source="w", target="b", term="q", rep_type=W, ts=1))
        store.insert(r(source="a", target="c", term="q", rep_type=I, ts=3))
        return store

    def test_bucket_query(self):
        store = self.build()
        out = store.query("b", "q", I)
        assert [(rec.source, rec.timestamp) for rec in out] == [("a", 2)]
        assert list(store.query("b", "q", C)) == []

    def test_witness_bucket(self):
        store = self.build()
        out = store.query("b", "q", W)
        assert [rec.source for rec in out] == ["w"]

    def test_all_records(self):
        store = self.build()
        assert [rec.timestamp for rec in store.all_records()] == [0, 1, 2, 3]

    def test_timestamp_order(self):
        store = RatingStore("a")
        timestamps = [3, 0, 2, 0, 1]
        for ts in timestamps:
            store.insert(r(ts=ts))
        assert [rec.timestamp for rec in store.query("b", "q", I)] == sorted(timestamps)

    def test_query_returns_an_immutable_snapshot(self):
        store = self.build()
        out = store.query("b", "q", I)
        with pytest.raises(AttributeError):
            out.clear()
        with pytest.raises(TypeError):
            out[0] = r(ts=9)
        store.all_records().clear()
        assert store.query("b", "q", I) is out
        assert len(out) == 1 and len(store.all_records()) == 4
        # A later insert reaches the next query; the snapshot kept never changes.
        store.insert(r(source="a", target="b", term="q", rep_type=I, ts=5))
        assert [rec.timestamp for rec in store.query("b", "q", I)] == [2, 5]
        assert [rec.timestamp for rec in out] == [2]

    def test_derives_once_per_bucket_and_arguments(self):
        calls = []

        def mean_plus(records, offset):
            calls.append((len(records), offset))
            if offset < 0:
                raise ValueError("negative offset")
            return sum(rec.value for rec in records) / len(records) + offset

        store = self.build()
        assert [store.derived("b", "q", I, mean_plus, k) for k in (0.0, 1.0, 0.0, 1.0)] == [
            0.5, 1.5, 0.5, 1.5
        ]
        for _ in range(2):
            with pytest.raises(ValueError, match="negative offset"):
                store.derived("b", "q", I, mean_plus, -1.0)
        # Another bucket is another value.
        assert store.derived("b", "q", W, mean_plus, 0.0) == 0.5
        assert calls == [(1, 0.0), (1, 1.0), (1, -1.0), (1, -1.0), (1, 0.0)]
        # An insert drops every kept value.
        store.insert(r(source="a", target="b", term="q", rep_type=I, value=1.0, ts=4))
        assert store.derived("b", "q", I, mean_plus, 0.0) == 0.75
        assert calls[-1] == (2, 0.0)

    def test_derives_once_per_terms_types_and_arguments(self):
        calls, queried = [], []

        def sizes(snapshots, offset):
            calls.append((tuple(tuple(len(s) for s in term) for term in snapshots), offset))
            return [[len(s) + offset for s in term] for term in snapshots]

        store = self.build()
        query = store.query
        store.query = lambda *key: queried.append(key[1:]) or query(*key)
        got = [
            store.derived_terms("b", terms, types, sizes, offset)
            for terms, types, offset in (
                (("q",), (I,), 0),
                (("q",), (I, W), 0),
                (("q", "t"), (I, W), 0),
                (("q", "t"), (I, W), 1),
                (("q", "t"), (I, W), 0),
                (("q",), (I,), 0),
            )
        ]
        assert got == [
            [[1]], [[1, 1]], [[1, 1], [1, 0]], [[2, 2], [2, 1]], [[1, 1], [1, 0]], [[1]]
        ]
        assert calls == [
            (((1,),), 0), (((1, 1),), 0), (((1, 1), (1, 0)), 0), (((1, 1), (1, 0)), 1)
        ]
        # Every call reads each of its buckets through ``query``, term by term.
        assert queried == [
            ("q", I), ("q", I), ("q", W), *[("q", I), ("q", W), ("t", I), ("t", W)] * 3, ("q", I)
        ]
        # An insert drops the kept values.
        store.insert(r(source="a", target="b", term="q", rep_type=I, value=1.0, ts=4))
        assert store.derived_terms("b", ("q", "t"), (I, W), sizes, 0) == [[2, 1], [1, 0]]

    def test_an_observation_add_drops_only_what_was_derived_from_it(self):
        calls = []

        def count(records, *stores):
            calls.append(stores)
            return sum(len(s) for s in stores)

        store, obs, other = self.build(), ObservationStore(), ObservationStore()
        # ``other`` is read by a second rating store: this one keeps values
        # from one observation store at a time.
        second = self.build()
        for _ in range(2):
            assert [store.derived("b", "q", W, count, *s) for s in ((), (obs,))] == [0, 0]
            assert second.derived("b", "q", W, count, other) == 0
        assert calls == [(), (obs,), (other,)]
        obs.add("w", "q", 0.5, 3, 1)
        assert [store.derived("b", "q", W, count, *s) for s in ((), (obs,))] == [0, 3]
        assert second.derived("b", "q", W, count, other) == 0
        assert calls == [(), (obs,), (other,), (obs,)]

    def test_keeps_values_from_one_observation_store_at_a_time(self):
        calls = []

        def count(records, obs=None):
            calls.append(obs)
            return 0 if obs is None else len(obs)

        store, first, fresh = self.build(), ObservationStore(), ObservationStore()
        assert [store.derived("b", "q", W, count, *s) for s in ((), (first,))] == [0, 0]
        # Reading another observation store drops what came from the first
        # one, and only that.
        assert [store.derived("b", "q", W, count, *s) for s in ((), (fresh,))] == [0, 0]
        assert [store.derived("b", "q", W, count, *s) for s in ((), (first,))] == [0, 0]
        assert calls == [None, first, fresh, first]
        assert len(store._derived) == 2
        # The first store no longer reaches this one through ``add``.
        fresh.add("w", "q", 0.5, 3, 1)
        assert store.derived("b", "q", W, count, first) == 0
        assert calls == [None, first, fresh, first]

    def test_unsealed_query_sees_a_later_insert(self):
        store = RatingStore("a", history_cap=2)
        store.insert(r(source="a", target="b", term="q", ts=0))
        store.insert(r(source="a", target="c", term="q", ts=1))
        before_b, before_c = store.query("b", "q", I), store.query("c", "q", I)
        assert [rec.timestamp for rec in before_c] == [1]
        # The insert touches c's bucket, and its eviction b's.
        store.insert(r(source="a", target="c", term="q", ts=2))
        assert [rec.timestamp for rec in store.query("c", "q", I)] == [1, 2]
        assert list(store.query("b", "q", I)) == []
        assert [rec.timestamp for rec in before_b] == [0]
        assert [rec.timestamp for rec in before_c] == [1]

    def test_result_independent_of_insertion_order(self):
        records = [
            r(source="a", ts=1, value=0.1, iid="x"),
            r(source="b", rep_type=W, ts=1, value=0.2, iid="y"),
            r(source="a", ts=0, value=0.3, iid="z"),
        ]
        s1, s2 = RatingStore("a"), RatingStore("a")
        for rec in records:
            s1.insert(rec)
        for rec in reversed(records):
            s2.insert(rec)
        assert s1.all_records() == s2.all_records()


class TestOwnership:
    @pytest.mark.parametrize(
        "rec",
        [r(source="w", rep_type=I), r(source="a", rep_type=W)],
        ids=["foreign-interaction", "own-witness"],
    )
    def test_foreign_records_are_refused(self, rec):
        store = RatingStore("a", history_cap=1)
        store.insert(r(ts=1))
        with pytest.raises(ValueError):
            store.insert(rec)
        assert store.all_records() == [r(ts=1)]

    def test_certified_records_from_anyone(self):
        store = RatingStore("a")
        for source in ("a", "w"):
            store.insert(r(source=source, rep_type=C))
        assert len(store.query("b", "q", C)) == 2

    def test_no_insert_once_shared(self):
        # z reads a's interaction ratings as witness evidence; an insert
        # into a after sharing would never reach z's view.
        a, z = RatingStore("a"), RatingStore("z")
        a.insert(r(source="a", ts=0))
        assert list(z.query("b", "q", W)) == []  # a snapshot that sharing must drop
        share_witness_evidence({"a": a, "z": z}, {"z": ("a",)})
        for store, rec in ((a, r(source="a", ts=1)), (z, r(source="z", ts=1))):
            with pytest.raises(ValueError, match="sealed"):
                store.insert(rec)
        assert len(a) == 1 and len(z) == 0
        assert list(z.query("b", "q", W)) == [r(source="a", rep_type=W, ts=0)]


class TestObservationBins:
    def test_bin_of(self):
        assert bin_of(0.65, 5) == 4
        assert bin_of(1.0, 5) == 5
        assert bin_of(0.0, 5) == 1

    def test_bin_of_agrees_with_bin_bounds_at_every_edge(self):
        # v * bins and the bounds k / bins round separately: 15/22 * 22
        # rounds to 14.999999999999998, yet 15/22 is bin 16's lower bound.
        assert bin_of(15 / 22, 22) == 16
        for bins in range(1, 101):
            for k in range(bins + 1):
                v = k / bins
                for _ in range(3):
                    v = math.nextafter(v, -math.inf)
                for _ in range(7):
                    if 0.0 <= v <= 1.0:
                        b = bin_of(v, bins)
                        lo, hi = bin_bounds(b, bins)
                        assert lo <= v < hi or (b == bins and v == hi), (v, bins, b)
                    v = math.nextafter(v, math.inf)

    def test_bin_filtering(self):
        store = ObservationStore()
        store.add("w", "q", 0.60, 1, 1)
        store.add("w", "q", 0.79, 2, 1)
        store.add("w", "q", 0.80, 4, 4)  # the next bin
        store.add("w", "q", 0.59, 8, 0)  # the bin before
        store.add("v", "q", 0.70, 16, 16)  # another witness
        store.add("w", "t", 0.70, 32, 32)  # another term
        assert store.query("w", "q", opinion_bin=4, bins=5) == (3, 2)

    def test_last_bin_closed(self):
        store = ObservationStore()
        store.add("w", "q", 1.0, 1, 1)
        assert store.query("w", "q", 5, 5) == (1, 1)

    def test_empty_store(self):
        assert ObservationStore().query("w", "q", 1, 5) == (0, 0)

    def test_query_matches_a_per_value_scan_at_every_edge(self):
        # Every bin edge of 1 to 10 bins, 3 ulps either side, with 1.0 in
        # the closed last bin; each value counts its own (n, successes),
        # so a total that takes or loses one value shows. The second pass
        # follows an add that changes one count.
        values = {1.0}
        for bins in range(1, 11):
            for k in range(bins + 1):
                v = k / bins
                for _ in range(3):
                    v = math.nextafter(v, -math.inf)
                for _ in range(7):
                    if 0.0 <= v <= 1.0:
                        values.add(v)
                    v = math.nextafter(v, math.inf)
        store = ObservationStore()
        counts = {}
        for i, value in enumerate(sorted(values)):
            counts[value] = (2**i, 2**i if i % 2 else 0)
            store.add("w", "q", value, *counts[value])
        for later in (None, 1.0):
            if later is not None:
                store.add("w", "q", later, 1, 1)
                n, successes = counts[later]
                counts[later] = (n + 1, successes + 1)
            for bins in range(1, 11):
                for opinion_bin in range(1, bins + 1):
                    lo, hi = bin_bounds(opinion_bin, bins)
                    inside = [
                        counts[v] for v in values
                        if lo <= v < hi or (opinion_bin == bins and v == hi)
                    ]
                    expected = (sum(n for n, _ in inside), sum(s for _, s in inside))
                    assert store.query("w", "q", opinion_bin, bins) == expected, (
                        later, opinion_bin, bins)

    def test_bad_bin(self):
        with pytest.raises(ValueError, match=r"^bin 0 outside 1\.\.5$"):
            ObservationStore().query("w", "q", 0, 5)
        with pytest.raises(ValueError, match=r"^bin 6 outside 1\.\.5$"):
            ObservationStore().query("w", "q", 6, 5)


SOURCES = ("a", "b", "c")
OWNER = "a"


def owner_may_hold(rec):
    """Whether ``OWNER``'s store takes the record: its own interaction
    ratings, witness ratings by others, certified records by anyone."""
    if rec.rep_type is I:
        return rec.source == OWNER
    return rec.rep_type is not W or rec.source != OWNER
TARGETS = ("x", "y")
TERMS = ("q", "t")
IIDS = (None, "i1", "i2")

ratings = st.builds(
    Rating,
    source=st.sampled_from(SOURCES),
    target=st.sampled_from(TARGETS),
    term=st.sampled_from(TERMS),
    rep_type=st.sampled_from(list(ReputationType)),
    # Equal records are distinct objects, and records with equal keys
    # must come back in insertion order.
    value=st.sampled_from([0.0, 0.5, 1.0]),
    timestamp=st.integers(0, 3),
    interaction_id=st.sampled_from(IIDS),
)

BUCKETS = list(itertools.product(TARGETS, TERMS, ReputationType))


def same_records(got, expected):
    # Identity, not equality: the store must keep and order the very
    # records the oracle does, even among equal ones.
    return [id(rec) for rec in got] == [id(rec) for rec in expected]


def dropped(oracle, chunk):
    """Feed ``chunk`` to the oracle; return the ids of the records it dropped."""
    ids = Counter(map(id, oracle.records)) + Counter(map(id, chunk))
    for rec in chunk:
        oracle.insert(rec)
    ids.subtract(map(id, oracle.records))
    return +ids


class TestRatingStoreAgainstOracle:
    def assert_same(self, store, oracle):
        assert len(store) == len(oracle)
        for bucket in BUCKETS:
            assert same_records(store.query(*bucket), oracle.query(*bucket)), bucket
        assert same_records(store.all_records(), oracle.all_records())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(ratings, max_size=25),
        st.none() | st.integers(1, 4),
    )
    def test_queries_match_a_full_scan(self, inserts, cap):
        store = RatingStore(OWNER, history_cap=cap)
        oracle = RatingStoreOracle(history_cap=cap)
        for rec in inserts:
            if owner_may_hold(rec):
                evicted = store.insert(rec)
                assert Counter(map(id, evicted)) == dropped(oracle, [rec])
            else:
                with pytest.raises(ValueError):
                    store.insert(rec)
            self.assert_same(store, oracle)


@st.composite
def observation_counts(draw):
    n = draw(st.integers(1, 3))
    return (
        draw(st.sampled_from(("v", "w"))),
        draw(st.sampled_from(TERMS)),
        # Bin edges of 2 to 5 bins, and values between them.
        draw(
            st.sampled_from([0.0, 0.2, 0.25, 0.4, 0.5, 0.6, 0.75, 0.8, 1.0])
            | st.floats(0.0, 1.0)
        ),
        n,
        draw(st.integers(0, n)),
    )


class TestObservationStoreAgainstOracle:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(observation_counts(), max_size=15))
    def test_queries_match_a_linear_filter(self, adds):
        store = ObservationStore()
        oracle = ObservationStoreOracle()
        for count in adds:
            store.add(*count)
            oracle.add(*count)
            assert len(store) == len(oracle)
            assert store.entries() == oracle.entries()
            for witness, term, bins in itertools.product(("v", "w"), TERMS, range(1, 6)):
                for opinion_bin in range(1, bins + 1):
                    key = (witness, term, opinion_bin, bins)
                    assert store.query(*key) == oracle.query(*key), key
