"""Tests for the cached prediction service (repro.serving.service)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.coordinates import CoordinateTable
from repro.serving.service import (
    BatchPrediction,
    PredictionService,
    RowPrediction,
)
from repro.serving.store import CoordinateStore


@pytest.fixture
def table(rng):
    return CoordinateTable(15, 4, rng)


@pytest.fixture
def store(table):
    return CoordinateStore(table)


@pytest.fixture
def service(store):
    return PredictionService(store, cache_size=8)


class TestPairPrediction:
    def test_matches_snapshot_estimate(self, service, store):
        pred = service.predict_pair(2, 9)
        assert pred.estimate == pytest.approx(store.snapshot().estimate(2, 9))
        assert pred.label in (-1, 1)
        assert pred.label == (1 if pred.estimate >= 0 else -1)
        assert pred.version == 1
        assert pred.cached is False

    def test_repeat_query_hits_cache(self, service):
        first = service.predict_pair(2, 9)
        second = service.predict_pair(2, 9)
        assert second.cached is True
        assert second.estimate == first.estimate
        stats = service.stats()
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1

    def test_out_of_range_rejected(self, service, store):
        with pytest.raises(ValueError):
            service.predict_pair(0, store.n)

    def test_self_pair_rejected(self, service):
        with pytest.raises(ValueError):
            service.predict_pair(4, 4)

    def test_nan_estimate_has_no_label(self, table):
        table.U[:] = np.nan
        store = CoordinateStore(table)
        service = PredictionService(store)
        pred = service.predict_pair(0, 1)
        assert pred.label is None  # never a confident class for NaN
        payload = pred.as_dict()
        assert payload["estimate"] is None
        assert payload["label"] is None

    def test_cache_disabled(self, store):
        service = PredictionService(store, cache_size=0)
        service.predict_pair(1, 2)
        second = service.predict_pair(1, 2)
        assert second.cached is False
        assert service.stats().cache_entries == 0

    def test_as_dict_is_json_ready(self, service):
        payload = service.predict_pair(0, 1).as_dict()
        assert set(payload) == {
            "source", "target", "estimate", "label", "version", "cached",
        }


class TestBatchPrediction:
    def test_matches_pairwise_loop(self, service, store):
        sources = np.array([0, 3, 7, 12])
        targets = np.array([5, 1, 9, 2])
        batch = service.predict_pairs(sources, targets)
        snapshot = store.snapshot()
        expected = [snapshot.estimate(s, t) for s, t in zip(sources, targets)]
        np.testing.assert_allclose(batch.estimates, expected)
        assert batch.version == snapshot.version

    def test_self_pairs_are_nan(self, service):
        batch = service.predict_pairs(np.array([4, 4]), np.array([4, 5]))
        assert np.isnan(batch.estimates[0])
        assert np.isfinite(batch.estimates[1])
        assert np.isnan(batch.labels()[0])

    def test_as_dict_is_json_ready(self, service):
        import json

        payload = service.predict_pairs(
            np.array([0, 1]), np.array([0, 2])
        ).as_dict()
        json.dumps(payload)
        assert payload["estimates"][0] is None
        assert payload["labels"][1] in (-1, 1)

    def test_out_of_range_raises(self, service, store):
        with pytest.raises(ValueError):
            service.predict_pairs(np.array([0]), np.array([store.n]))

    def test_shape_mismatch_raises(self, service):
        with pytest.raises(ValueError):
            service.predict_pairs(np.array([0, 1]), np.array([1]))

    def test_counters(self, service):
        service.predict_pairs(np.array([0, 1, 2]), np.array([1, 2, 3]))
        stats = service.stats()
        assert stats.batch_queries == 1
        assert stats.batch_pairs == 3


class TestCacheInvalidation:
    def test_snapshot_bump_invalidates(self, service, store, table):
        before = service.predict_pair(2, 9)
        table.U += 0.5
        store.publish(table)
        after = service.predict_pair(2, 9)
        assert after.cached is False  # the bump must drop the cached entry
        assert after.version == before.version + 1
        assert after.estimate != before.estimate
        assert service.stats().invalidations == 1

    def test_stale_value_never_served(self, service, store, table):
        service.predict_pair(2, 9)
        table.U[:] = 0.0
        store.publish(table)
        assert service.predict_pair(2, 9).estimate == 0.0

    def test_eviction_bounds_cache(self, store):
        service = PredictionService(store, cache_size=4)
        for j in range(1, 10):
            service.predict_pair(0, j)
        stats = service.stats()
        assert stats.cache_entries <= 4
        assert stats.cache_evictions >= 5

    def test_stale_snapshot_does_not_wipe_newer_cache(self, service, store, table):
        stale = store.snapshot()
        table.U += 0.5
        store.publish(table)
        service.predict_pair(0, 1)  # rolls the epoch forward and caches
        assert service.stats().cache_entries == 1
        # a straggler request still holding the old snapshot bypasses
        # the cache instead of rolling the epoch backwards
        with service._lock:
            assert service._cache_get(stale, (0, 1)) is None
        assert service.stats().cache_entries == 1
        assert service.predict_pair(0, 1).cached is True

    def test_clear_cache(self, service):
        service.predict_pair(0, 1)
        service.clear_cache()
        assert service.stats().cache_entries == 0
        assert service.predict_pair(0, 1).cached is False


class TestVectorizedPaths:
    def test_one_to_all_matches_pairwise(self, service, store):
        row = service.predict_from(4)
        snap = store.snapshot()
        assert np.isnan(row.estimates[4])
        for j in range(snap.n):
            if j != 4:
                assert row.estimates[j] == pytest.approx(snap.estimate(4, j))
        labels = row.labels()
        finite = np.isfinite(row.estimates)
        assert set(np.unique(labels[finite])) <= {-1.0, 1.0}

    def test_targets_subset(self, service, store):
        targets = np.array([1, 3, 5])
        row = service.predict_from(4, targets)
        np.testing.assert_array_equal(row.targets, targets)
        assert row.estimates.shape == (3,)

    def test_self_target_in_subset_is_masked(self, service):
        row = service.predict_from(4, np.array([3, 4, 5]))
        assert np.isnan(row.estimates[1])
        assert np.isfinite(row.estimates[0])
        assert row.as_dict()["estimates"][1] is None

    def test_row_as_dict_nan_becomes_none(self, service):
        payload = service.predict_from(4).as_dict()
        assert payload["estimates"][4] is None
        assert payload["labels"][4] is None

    def test_full_matrix(self, service, store):
        np.testing.assert_allclose(
            service.predict_matrix(),
            store.snapshot().estimate_matrix(),
        )

    def test_query_counters(self, service):
        service.predict_pair(0, 1)
        service.predict_from(0)
        service.predict_matrix()
        stats = service.stats()
        assert stats.pair_queries == 1
        assert stats.row_queries == 1
        assert stats.matrix_queries == 1


# ----------------------------------------------------------------------
# reply bytes: the vectorized encoding equals the per-element rules
# ----------------------------------------------------------------------


def _reference_floats(values):
    return [float(v) if np.isfinite(v) else None for v in values]


def _reference_labels(estimates):
    labels = np.where(estimates < 0, -1.0, 1.0)
    labels = np.where(np.isfinite(estimates), labels, np.nan)
    return [int(l) if np.isfinite(l) else None for l in labels]


#: the edge values every reply encoder must carry through unchanged
_EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e300, 1e-300, -1e-300]

_ESTIMATES = st.integers(0, 24).flatmap(
    lambda k: hnp.arrays(
        np.float64,
        k,
        elements=st.one_of(
            st.sampled_from(_EDGES), st.floats(allow_nan=True, allow_infinity=True)
        ),
    )
)


@st.composite
def _indexed(draw):
    estimates = draw(_ESTIMATES)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    index = hnp.arrays(dtype, estimates.size, elements=st.integers(0, 2**31 - 1))
    return draw(index), draw(index), estimates


class TestReplyBytes:
    @given(_indexed(), st.integers(0, 2**40))
    @settings(max_examples=200, deadline=None)
    def test_batch_reply_bytes(self, arrays, version):
        sources, targets, estimates = arrays
        reply = BatchPrediction(sources, targets, estimates, version).as_dict()
        reference = {
            "sources": [int(s) for s in sources],
            "targets": [int(t) for t in targets],
            "estimates": _reference_floats(estimates),
            "labels": _reference_labels(estimates),
            "version": version,
        }
        assert json.dumps(reply) == json.dumps(reference)

    @given(_indexed(), st.integers(0, 10**6), st.integers(0, 2**40))
    @settings(max_examples=200, deadline=None)
    def test_row_reply_bytes(self, arrays, source, version):
        _, targets, estimates = arrays
        reply = RowPrediction(source, targets, estimates, version).as_dict()
        reference = {
            "source": source,
            "targets": [int(t) for t in targets],
            "estimates": _reference_floats(estimates),
            "labels": _reference_labels(estimates),
            "version": version,
        }
        assert json.dumps(reply) == json.dumps(reference)

    def test_every_edge_value_at_once(self):
        estimates = np.array(_EDGES)
        index = np.arange(estimates.size, dtype=np.int32)
        reply = BatchPrediction(index, index, estimates, 3).as_dict()
        assert json.dumps(reply["estimates"]) == (
            "[null, null, null, -0.0, 0.0, 1e+300, -1e+300, 1e-300, -1e-300]"
        )
        assert reply["labels"] == [None, None, None, 1, 1, 1, -1, 1, -1]
