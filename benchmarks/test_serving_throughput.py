"""Serving-layer throughput micro-benchmark.

Measures predictions/second through :mod:`repro.serving` on a
1000-node model along the axes that matter for a query-serving system:

* **single-pair, uncached** — one dot product + Python call overhead
  per query (cache disabled);
* **single-pair, cached** — repeated queries served from the LRU cache;
* **one-to-many batch** — ``predict_from``: all ``n - 1`` predictions
  of one source in a single ``V @ u_i`` matrix product;
* **full batch** — ``predict_matrix``: all ``n (n - 1)`` predictions in
  one ``U V^T`` product.

Also *verifies* the vectorization claim — the batch paths agree with
the per-pair loop to float precision while running orders of magnitude
faster — and writes a machine-readable ``BENCH_serving.json`` summary
under ``.bench_out/``, gated by ``benchkit.GATES["serving"]``.
"""

import gc
import os
import time

import numpy as np

from benchkit import evaluate, write
from repro.core.coordinates import CoordinateTable
from repro.serving.service import PredictionService
from repro.serving.store import CoordinateStore
from repro.utils.tables import format_table

NODES = 1000
RANK = 10
PAIR_QUERIES = 2_000
ROW_QUERIES = 200


def _time(fn) -> float:
    """Wall time of ``fn()`` with the garbage collector paused, as
    :mod:`timeit` does: the cached window lasts a few milliseconds, and
    a full collection of this process's heap (30-40 ms) landing in it
    would measure the collector, not the cache."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


def run():
    rng = np.random.default_rng(20111206)
    table = CoordinateTable(NODES, RANK, rng)
    store = CoordinateStore(table)

    sources = rng.integers(0, NODES, size=PAIR_QUERIES)
    targets = (sources + 1 + rng.integers(0, NODES - 1, size=PAIR_QUERIES)) % NODES
    pairs = list(zip(sources.tolist(), targets.tolist()))

    # --- single-pair, cache disabled ----------------------------------
    uncached = PredictionService(store, cache_size=0)

    def query_all_uncached():
        for src, dst in pairs:
            uncached.predict_pair(src, dst)

    uncached_s = _time(query_all_uncached)

    # --- single-pair, cache hits --------------------------------------
    cached = PredictionService(store, cache_size=PAIR_QUERIES)
    query_all_cached = (
        lambda: [cached.predict_pair(src, dst) for src, dst in pairs]
    )
    query_all_cached()  # warm: all misses
    cached_s = _time(query_all_cached)  # timed: all hits
    assert cached.stats().cache_hits >= PAIR_QUERIES

    # --- one-to-many batch --------------------------------------------
    service = PredictionService(store, cache_size=0)
    row_sources = rng.integers(0, NODES, size=ROW_QUERIES)

    def query_rows():
        for src in row_sources:
            service.predict_from(int(src))

    row_s = _time(query_rows)

    # --- full batch ----------------------------------------------------
    matrix_s = _time(service.predict_matrix)

    # --- vectorization check: batch path == per-pair loop --------------
    row = service.predict_from(7).estimates
    snapshot = store.snapshot()
    loop = np.array(
        [
            snapshot.estimate(7, j) if j != 7 else np.nan
            for j in range(NODES)
        ]
    )
    np.testing.assert_allclose(row, loop, equal_nan=True)

    return {
        "nodes": NODES,
        "rank": RANK,
        "cpu_count": os.cpu_count() or 1,
        "notices": [],  # all serving-throughput gates hold on any machine
        "single_uncached_pps": PAIR_QUERIES / uncached_s,
        "single_cached_pps": PAIR_QUERIES / cached_s,
        "batch_row_pps": ROW_QUERIES * (NODES - 1) / row_s,
        "batch_matrix_pps": NODES * (NODES - 1) / matrix_s,
    }


def format_rows(result: dict) -> list:
    return [
        ["single pair, uncached", f"{result['single_uncached_pps']:,.0f}"],
        ["single pair, cached", f"{result['single_cached_pps']:,.0f}"],
        ["one-to-many batch", f"{result['batch_row_pps']:,.0f}"],
        ["full matrix batch", f"{result['batch_matrix_pps']:,.0f}"],
    ]


def test_serving_throughput(run_once, report):
    result = run_once(run)

    report(
        f"Serving throughput — {NODES}-node model, rank {RANK}",
        format_table(format_rows(result), headers=["mode", "predictions/s"]),
    )

    # the vectorized one-to-many path must dominate the per-pair loop,
    # and caching must not be slower than recomputing
    failures = evaluate("serving", result)
    report("Summary", f"wrote {write('serving', result)}")
    assert not failures, failures
