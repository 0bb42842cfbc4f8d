"""Query-side API of the serving layer: cached, vectorized prediction.

:class:`PredictionService` turns a :class:`~repro.serving.store.CoordinateStore`
into the paper's *prediction module* as an online facility: any node
pair's performance class (and the underlying real-valued estimate) is
available on demand, without any further measurement.

Three query granularities, matching how applications consume network
performance predictions:

* :meth:`PredictionService.predict_pair` — one ``(source, target)``
  lookup, served from a bounded LRU cache keyed by the snapshot
  version, so repeated queries against an unchanged model cost a dict
  hit instead of a dot product;
* :meth:`PredictionService.predict_from` — one-to-many (peer
  selection's shape: rank all candidate targets of one source) as a
  single ``V @ u_i`` matrix product;
* :meth:`PredictionService.predict_matrix` — the full ``U V^T`` batch,
  for offline-style consumers.

Consistency model: every query is answered from one immutable snapshot,
so a one-to-many or full-batch answer is internally consistent.  When
the ingest pipeline publishes a new snapshot the service notices the
version bump on the next query and drops the entire cache — cached
entries can therefore never outlive the model they were computed from
(staleness is bounded by the ingest refresh policy, not by the cache).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.serving.store import CoordinateSnapshot, CoordinateStore

__all__ = [
    "PairPrediction",
    "RowPrediction",
    "BatchPrediction",
    "ServiceStats",
    "PredictionService",
]


def classify_score(estimate: float) -> Optional[int]:
    """Map a real-valued estimate to the {+1, -1} class.

    Exact-zero ties break toward good, matching
    :meth:`repro.core.engine.TrainResult.predicted_classes`; a
    non-finite estimate (untrained/diverged model) has no class and
    maps to ``None``, matching the NaN propagation of
    :meth:`RowPrediction.labels`.
    """
    if not np.isfinite(estimate):
        return None
    return -1 if estimate < 0 else 1


def _classify_scores(estimates: np.ndarray) -> np.ndarray:
    """Vectorized :func:`classify_score` (NaN slots stay NaN)."""
    labels = np.where(estimates < 0, -1.0, 1.0)
    return np.where(np.isfinite(estimates), labels, np.nan)


def _json_indices(indices: np.ndarray) -> list:
    """Node ids as Python ints."""
    return np.asarray(indices, dtype=np.int64).tolist()


def _json_estimates(estimates: np.ndarray):
    """``(estimates, labels)`` lists, labels as in :func:`classify_score`.

    Non-finite slots become None in both (bare NaN is not valid JSON).
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    values = estimates.tolist()
    labels = np.where(estimates < 0, -1, 1).tolist()
    for i in np.flatnonzero(~np.isfinite(estimates)).tolist():
        values[i] = labels[i] = None
    return values, labels


@dataclass(frozen=True)
class PairPrediction:
    """Answer to a single-pair query."""

    source: int
    target: int
    estimate: float
    label: Optional[int]
    version: int
    cached: bool

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by the gateway).

        A non-finite estimate (diverged/untrained model) becomes
        ``null`` — bare NaN is not valid JSON.
        """
        finite = np.isfinite(self.estimate)
        return {
            "source": self.source,
            "target": self.target,
            "estimate": float(self.estimate) if finite else None,
            "label": self.label,
            "version": self.version,
            "cached": self.cached,
        }


@dataclass(frozen=True)
class RowPrediction:
    """Answer to a one-to-many query (targets aligned with estimates)."""

    source: int
    targets: np.ndarray
    estimates: np.ndarray
    version: int

    def labels(self) -> np.ndarray:
        """{+1, -1} classes of the estimates (NaN slots stay NaN)."""
        return _classify_scores(self.estimates)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (NaN estimates become None)."""
        estimates, labels = _json_estimates(self.estimates)
        return {
            "source": self.source,
            "targets": _json_indices(self.targets),
            "estimates": estimates,
            "labels": labels,
            "version": self.version,
        }


@dataclass(frozen=True)
class BatchPrediction:
    """Answer to a many-pair query (pairs aligned with estimates)."""

    sources: np.ndarray
    targets: np.ndarray
    estimates: np.ndarray
    version: int

    def labels(self) -> np.ndarray:
        """{+1, -1} classes of the estimates (NaN slots stay NaN)."""
        return _classify_scores(self.estimates)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (NaN estimates become None)."""
        estimates, labels = _json_estimates(self.estimates)
        return {
            "sources": _json_indices(self.sources),
            "targets": _json_indices(self.targets),
            "estimates": estimates,
            "labels": labels,
            "version": self.version,
        }


@dataclass
class ServiceStats:
    """Cumulative query counters (all monotone except ``cache_entries``)."""

    pair_queries: int = 0
    row_queries: int = 0
    batch_queries: int = 0
    batch_pairs: int = 0
    matrix_queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    invalidations: int = 0
    cache_entries: int = 0
    version: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready counters (the ``service`` section of ``/stats``)."""
        return dict(self.__dict__)


class PredictionService:
    """Cached prediction frontend over a :class:`CoordinateStore`.

    Thread-safety: fully concurrent.  Snapshot reads and the NumPy
    estimate kernels run lock-free; the internal mutex guards only
    counter bumps and cache insert/evict, so concurrent readers never
    serialize on each other's gathers.

    Parameters
    ----------
    store:
        Source of model snapshots.
    cache_size:
        Maximum number of cached pair predictions (LRU eviction);
        0 disables caching entirely.
    """

    def __init__(self, store: CoordinateStore, *, cache_size: int = 4096) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self.store = store
        self.cache_size = int(cache_size)
        self._cache: "OrderedDict[tuple, float]" = OrderedDict()
        self._cache_version = store.version
        self._lock = threading.Lock()
        self._stats = ServiceStats()

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------

    def _roll_version(self, snapshot: CoordinateSnapshot) -> None:
        """Advance the cache epoch when a newer model was published.

        Forward-only: a straggler request still holding a pre-publish
        snapshot must not wipe the freshly rebuilt cache of the newer
        version — it bypasses the cache instead (see :meth:`_cache_get`).
        """
        if snapshot.version > self._cache_version:
            if self._cache:
                self._stats.invalidations += 1
            self._cache.clear()
            self._cache_version = snapshot.version

    def _cache_get(self, snapshot: CoordinateSnapshot, key: tuple):
        self._roll_version(snapshot)
        if snapshot.version != self._cache_version:
            # stale snapshot: its model is not the cached one
            self._stats.cache_misses += 1
            return None
        if key in self._cache:
            self._cache.move_to_end(key)
            self._stats.cache_hits += 1
            return self._cache[key]
        self._stats.cache_misses += 1
        return None

    def _cache_put(self, key: tuple, value: float) -> None:
        self._cache[key] = value
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            self._stats.cache_evictions += 1

    def clear_cache(self) -> None:
        """Explicitly drop every cached prediction."""
        with self._lock:
            self._cache.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def predict_pair(self, source: int, target: int) -> PairPrediction:
        """Predict the performance class of one directed pair.

        The path to self is undefined (as everywhere in the repo), so
        ``source == target`` is rejected rather than answered with a
        meaningless product.
        """
        if int(source) == int(target):
            raise ValueError(
                f"the path from node {int(source)} to itself is undefined"
            )
        snapshot = self.store.snapshot()
        if self.cache_size == 0:
            with self._lock:
                self._stats.pair_queries += 1
            estimate = snapshot.estimate(source, target)
            return PairPrediction(
                source=int(source),
                target=int(target),
                estimate=estimate,
                label=classify_score(estimate),
                version=snapshot.version,
                cached=False,
            )
        key = (int(source), int(target))
        with self._lock:
            self._stats.pair_queries += 1
            hit = self._cache_get(snapshot, key)
        if hit is not None:
            return PairPrediction(
                source=key[0],
                target=key[1],
                estimate=hit,
                label=classify_score(hit),
                version=snapshot.version,
                cached=True,
            )
        # Locking discipline: the NumPy work (the dot product, and the
        # lock-free store.snapshot() re-read below) happens strictly
        # outside the mutex; the lock guards only counter bumps and
        # cache insert/evict, so concurrent readers never serialize on
        # each other's gathers.
        estimate = snapshot.estimate(source, target)
        latest = self.store.snapshot()
        with self._lock:
            # Re-check the epoch: a publish may have raced the compute.
            self._roll_version(latest)
            if self._cache_version == snapshot.version:
                self._cache_put(key, estimate)
        return PairPrediction(
            source=key[0],
            target=key[1],
            estimate=estimate,
            label=classify_score(estimate),
            version=snapshot.version,
            cached=False,
        )

    def predict_from(
        self, source: int, targets: Optional[np.ndarray] = None
    ) -> RowPrediction:
        """One-to-many prediction via a single ``V @ u_i`` product."""
        snapshot = self.store.snapshot()
        with self._lock:
            self._stats.row_queries += 1
        estimates = snapshot.estimate_row(source, targets)
        if targets is None:
            targets = np.arange(snapshot.n)
        else:
            targets = np.asarray(targets, dtype=int)
            # mask the undefined self-path in explicit target lists too
            estimates = np.where(targets == int(source), np.nan, estimates)
        return RowPrediction(
            source=int(source),
            targets=targets,
            estimates=estimates,
            version=snapshot.version,
        )

    def predict_pairs(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> BatchPrediction:
        """Many-pair prediction answered with one vectorized gather.

        The ``POST /estimate/batch`` shape: ``k`` arbitrary pairs in,
        ``k`` estimates out of a single snapshot (internally
        consistent), one einsum instead of ``k`` dot products.
        Self-pairs answer NaN (the path to self is undefined) rather
        than failing the whole batch; out-of-range indices raise.
        """
        sources = np.asarray(sources, dtype=int)
        targets = np.asarray(targets, dtype=int)
        snapshot = self.store.snapshot()
        with self._lock:
            self._stats.batch_queries += 1
            self._stats.batch_pairs += int(sources.size)
        estimates = snapshot.estimate_pairs(sources, targets)
        estimates = np.where(sources == targets, np.nan, estimates)
        return BatchPrediction(
            sources=sources,
            targets=targets,
            estimates=estimates,
            version=snapshot.version,
        )

    def predict_matrix(self) -> np.ndarray:
        """Full-batch ``X_hat = U V^T`` (NaN diagonal)."""
        snapshot = self.store.snapshot()
        with self._lock:
            self._stats.matrix_queries += 1
        return snapshot.estimate_matrix()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A point-in-time copy of the counters."""
        with self._lock:
            stats = ServiceStats(**self._stats.as_dict())
            stats.cache_entries = len(self._cache)
            stats.version = self.store.version
            return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PredictionService(n={self.store.n}, "
            f"cache_size={self.cache_size})"
        )
