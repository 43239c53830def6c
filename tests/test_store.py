"""Store behaviour: eviction, pattern queries, binning."""

import pytest
from hypothesis import given, strategies as st

from reptrace.core import Rating, ReputationType
from reptrace.errors import BadBinError
from reptrace.store import (
    ObservationRecord,
    ObservationStore,
    RatingPattern,
    RatingStore,
    bin_of,
)

I = ReputationType.INTERACTION
W = ReputationType.WITNESS


def r(source="a", target="b", term="q", rep_type=I, value=0.5, ts=0, iid=None):
    return Rating(
        source=source,
        target=target,
        term=term,
        rep_type=rep_type,
        value=value,
        raw_value=value,
        timestamp=ts,
        interaction_id=iid,
    )


class TestEviction:
    def test_oldest_evicted_at_cap(self):
        store = RatingStore(history_cap=2)
        store.insert(r(ts=0, value=0.1))
        store.insert(r(ts=1, value=0.2))
        store.insert(r(ts=2, value=0.3))
        timestamps = [rec.timestamp for rec in store.all_records()]
        assert sorted(timestamps) == [1, 2]

    def test_unbounded_by_default(self):
        store = RatingStore()
        for ts in range(10):
            store.insert(r(ts=ts))
        assert len(store) == 10

    def test_cap_is_per_source(self):
        store = RatingStore(history_cap=2)
        for source in ("a", "w"):
            store.insert(r(source=source, ts=0))
            store.insert(r(source=source, ts=1))
        assert len(store) == 4

    def test_tie_broken_by_insertion_order(self):
        store = RatingStore(history_cap=1)
        store.insert(r(ts=5, value=0.1, iid="first"))
        store.insert(r(ts=5, value=0.2, iid="second"))
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
        store = RatingStore(history_cap=cap)
        full = RatingStore()
        for idx, (source, ts) in enumerate(inserts):
            rec = r(source=source, ts=ts, iid=str(idx))
            store.insert(rec)
            full.insert(rec)
        for source in ("a", "b"):
            pattern = RatingPattern(source=source)
            kept = {rec.interaction_id for rec in store.query(pattern)}
            everything = sorted(
                full.query(pattern),
                key=lambda rec: (rec.timestamp, int(rec.interaction_id)),
            )
            expected = {rec.interaction_id for rec in everything[-cap:]}
            assert kept == expected


class TestQuery:
    def build(self):
        store = RatingStore()
        store.insert(r(source="a", target="b", term="q", rep_type=I, ts=2))
        store.insert(r(source="a", target="b", term="t", rep_type=I, ts=0))
        store.insert(r(source="w", target="b", term="q", rep_type=W, ts=1))
        store.insert(r(source="a", target="c", term="q", rep_type=I, ts=3))
        return store

    def test_exact_pattern(self):
        store = self.build()
        out = store.query(RatingPattern(source="a", target="b", term="q"))
        assert len(out) == 1 and out[0].rep_type is I

    def test_witness_pattern(self):
        store = self.build()
        out = store.query(RatingPattern(target="b", term="q", rep_type=W))
        assert [rec.source for rec in out] == ["w"]

    def test_all_wildcards(self):
        store = self.build()
        assert len(store.query(RatingPattern())) == 4

    def test_timestamp_order(self):
        store = self.build()
        out = store.query(RatingPattern(source="a"))
        assert [rec.timestamp for rec in out] == [0, 2, 3]

    def test_result_independent_of_insertion_order(self):
        records = [
            r(source="a", ts=1, value=0.1, iid="x"),
            r(source="b", ts=1, value=0.2, iid="y"),
            r(source="a", ts=0, value=0.3, iid="z"),
        ]
        s1, s2 = RatingStore(), RatingStore()
        for rec in records:
            s1.insert(rec)
        for rec in reversed(records):
            s2.insert(rec)
        assert s1.query(RatingPattern()) == s2.query(RatingPattern())


class TestObservationBins:
    def test_bin_of(self):
        assert bin_of(0.65, 5) == 4
        assert bin_of(1.0, 5) == 5
        assert bin_of(0.0, 5) == 1

    def obs(self, opinion, iid="i"):
        return ObservationRecord(
            assessor="a",
            witness="w",
            target="b",
            term="q",
            interaction_id=iid,
            opinion_value=opinion,
            outcome_rating=1.0,
        )

    def test_bin_filtering(self):
        store = ObservationStore()
        store.insert(self.obs(0.60, "in-lo"))
        store.insert(self.obs(0.79, "in-hi"))
        store.insert(self.obs(0.80, "above"))
        store.insert(self.obs(0.59, "below"))
        out = store.query("a", "w", "q", opinion_bin=4, bins=5)
        assert {rec.interaction_id for rec in out} == {"in-lo", "in-hi"}

    def test_last_bin_closed(self):
        store = ObservationStore()
        store.insert(self.obs(1.0))
        assert len(store.query("a", "w", "q", 5, 5)) == 1

    def test_empty_store(self):
        assert ObservationStore().query("a", "w", "q", 1, 5) == []

    def test_bad_bin(self):
        with pytest.raises(BadBinError):
            ObservationStore().query("a", "w", "q", 0, 5)
        with pytest.raises(BadBinError):
            ObservationStore().query("a", "w", "q", 6, 5)

