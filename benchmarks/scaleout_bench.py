"""Serving scale-out benchmark (shared measurement module).

Used by ``benchmarks/compare.py`` (``BENCH_scaleout.json``).  Measures
the scale-out surface added by ``repro.serving.shard`` with a seeded
RNG:

* **ingest throughput at shards ∈ {1, 2, 4}** — the guarded admission
  stream (token buckets + sigma filter + dedup/clip) through the
  single-store pipeline (``shards=1``) and through ``ShardedIngest``
  (bounded queues, one worker per shard);
* **query throughput at shards ∈ {1, 2, 4}** — vectorized
  ``estimate_pairs`` batches against the (sharded) snapshot, plus the
  dense one-to-many row path;
* **single-query coalescing** — the per-request path
  (``predict_pair`` per query) vs the request coalescer:
  ``single_query_coalesced_pps`` drives the full open loop
  (submit + collect through the worker), and
  ``coalesced_answer_pps`` prices the answer path itself — the same
  queries packed into the coalescer's observed mean batch size and
  answered by ``predict_pairs`` gathers, which is where coalescing
  moves the serving work.

Both gates (``benchkit.GATES["scaleout"]``) compare numbers of the
same run: the coalesced answer path against the per-request path, and
4-shard admission against ``admission_floor_mps``.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

import benchkit
from benchkit import NODES, SAMPLES
from repro.serving.ingest import IngestPipeline
from repro.serving.service import PredictionService
from repro.serving.shard import (
    RequestCoalescer,
    ShardedCoordinateStore,
    ShardedIngest,
)
from repro.serving.store import CoordinateStore

SEED = 20111206
RANK = 10
BATCH = 1024
QUERY_PAIRS = 200_000
QUERY_BATCH = 4096
SINGLE_QUERIES = 20_000
COALESCE_WINDOW = 0.0005
SHARD_COUNTS = (1, 2, 4)

#: guarded admission throughput (measurements/s) of the single-pipeline
#: path before sharding: sharded admission must hold at least 2x this.
GUARDED_ADMISSION_BASELINE_MPS = 410_444.0

#: the single-pipeline guarded-admission throughput on the machine that
#: set the sharded-admission floor.  Absolute floors only transfer
#: between machines after calibrating by relative speed: the same-run
#: shards1 measurement over this reference scales the floor down on
#: slower hardware (never up — faster machines still face the full
#: bar).
SINGLE_REFERENCE_MPS = 963_188.0


def bench_ingest(shards: int, sources, targets, values) -> float:
    """Guarded-admission measurements/second at a given shard count."""
    engine = benchkit.engine()
    if shards == 1:
        store = CoordinateStore(engine.coordinates)
        pipeline = IngestPipeline(
            engine,
            store,
            batch_size=BATCH,
            refresh_interval=10 * BATCH,
            step_clip=0.1,
            guard=benchkit.guard(),
        )
        start = time.perf_counter()
        for lo in range(0, SAMPLES, BATCH):
            pipeline.submit_many(
                sources[lo : lo + BATCH],
                targets[lo : lo + BATCH],
                values[lo : lo + BATCH],
            )
        pipeline.flush()
        return SAMPLES / (time.perf_counter() - start)
    store = ShardedCoordinateStore(engine.coordinates, shards=shards)
    with ShardedIngest(
        engine,
        store,
        batch_size=BATCH,
        refresh_interval=10 * BATCH,
        step_clip=0.1,
        guards=[benchkit.guard() for _ in range(shards)],
        queue_depth=256,
    ) as sharded:
        start = time.perf_counter()
        for lo in range(0, SAMPLES, BATCH):
            sharded.submit_many(
                sources[lo : lo + BATCH],
                targets[lo : lo + BATCH],
                values[lo : lo + BATCH],
            )
        sharded.flush()
        return SAMPLES / (time.perf_counter() - start)


def bench_queries(shards: int, rng) -> "tuple[float, float]":
    """(batch pair pps, one-to-many row pps) at a given shard count."""
    table_rng = np.random.default_rng(SEED)
    U = table_rng.uniform(size=(NODES, RANK))
    V = table_rng.uniform(size=(NODES, RANK))
    if shards == 1:
        snapshot = CoordinateStore((U, V)).snapshot()
    else:
        snapshot = ShardedCoordinateStore((U, V), shards=shards).snapshot()
    sources = rng.integers(0, NODES, size=QUERY_PAIRS)
    targets = (
        sources + 1 + rng.integers(0, NODES - 1, size=QUERY_PAIRS)
    ) % NODES
    start = time.perf_counter()
    for lo in range(0, QUERY_PAIRS, QUERY_BATCH):
        snapshot.estimate_pairs(
            sources[lo : lo + QUERY_BATCH], targets[lo : lo + QUERY_BATCH]
        )
    pair_pps = QUERY_PAIRS / (time.perf_counter() - start)
    rows = 2000  # enough calls to dominate the one-off dense-view build
    start = time.perf_counter()
    for i in range(rows):
        snapshot.estimate_row(int(i % NODES))
    row_pps = rows * (NODES - 1) / (time.perf_counter() - start)
    return pair_pps, row_pps


def bench_coalescing(rng) -> "dict[str, float]":
    """Per-request path vs the coalesced single-query path."""
    table_rng = np.random.default_rng(SEED)
    U = table_rng.uniform(size=(NODES, RANK))
    V = table_rng.uniform(size=(NODES, RANK))
    service = PredictionService(CoordinateStore((U, V)), cache_size=0)
    sources = rng.integers(0, NODES, size=SINGLE_QUERIES)
    targets = (
        sources + 1 + rng.integers(0, NODES - 1, size=SINGLE_QUERIES)
    ) % NODES
    pairs = list(zip(sources.tolist(), targets.tolist()))

    # -- per-request path: one predict_pair per query ------------------
    start = time.perf_counter()
    for src, dst in pairs:
        service.predict_pair(src, dst)
    uncoalesced_pps = SINGLE_QUERIES / (time.perf_counter() - start)

    # -- coalesced, open loop: submit every query, collect every answer
    with RequestCoalescer(
        service, window=COALESCE_WINDOW, max_batch=8192
    ) as coalescer:
        start = time.perf_counter()
        tickets = [coalescer.submit(src, dst) for src, dst in pairs]
        for ticket in tickets:
            ticket.result(timeout=30.0)
        coalesced_pps = SINGLE_QUERIES / (time.perf_counter() - start)
        stats = coalescer.as_dict()
    mean_batch = max(1, int(stats["mean_batch"] or 1))

    # -- the answer path itself: the same queries packed into the
    # coalescer's observed mean batch size and answered by the batch
    # gather — the capacity coalescing unlocks on the serving side
    start = time.perf_counter()
    for lo in range(0, SINGLE_QUERIES, mean_batch):
        service.predict_pairs(
            sources[lo : lo + mean_batch], targets[lo : lo + mean_batch]
        )
    answer_pps = SINGLE_QUERIES / (time.perf_counter() - start)

    return {
        "single_query_uncoalesced_pps": uncoalesced_pps,
        "single_query_coalesced_pps": coalesced_pps,
        "coalesced_answer_pps": answer_pps,
        "coalesce_window_s": COALESCE_WINDOW,
        "coalesce_mean_batch": float(mean_batch),
        "coalesced_answer_speedup": answer_pps / uncoalesced_pps,
    }


def run() -> dict:
    rng = np.random.default_rng(SEED)
    sources, targets, values = benchkit.stream(rng)
    result: dict = {
        "nodes": NODES,
        "rank": RANK,
        "samples": SAMPLES,
        "hot_fraction": benchkit.HOT_FRACTION,
        "seed": SEED,
        "cpu_count": os.cpu_count() or 1,
        "notices": [],
    }
    for shards in SHARD_COUNTS:
        result[f"ingest_shards{shards}_mps"] = bench_ingest(
            shards, sources.copy(), targets.copy(), values.copy()
        )
    for shards in SHARD_COUNTS:
        pair_pps, row_pps = bench_queries(shards, rng)
        result[f"query_pairs_shards{shards}_pps"] = pair_pps
        result[f"query_rows_shards{shards}_pps"] = row_pps
    result.update(bench_coalescing(rng))
    machine = min(
        1.0, result["ingest_shards1_mps"] / SINGLE_REFERENCE_MPS
    )
    result["admission_floor_mps"] = (
        2.0 * GUARDED_ADMISSION_BASELINE_MPS * machine
    )
    if machine < 1.0:
        result["notices"].append(
            f"sharded-admission floor scaled by x{machine:.2f} machine "
            "calibration (single-pipeline speed vs the reference machine)"
        )
    return result


def format_rows(result: dict) -> list:
    keys = [(f"ingest, {s} shard(s)", f"ingest_shards{s}_mps")
            for s in SHARD_COUNTS]
    keys += [(f"batch queries, {s} shard(s)", f"query_pairs_shards{s}_pps")
             for s in SHARD_COUNTS]
    keys += [
        ("single query, per-request", "single_query_uncoalesced_pps"),
        ("single query, coalesced (open loop)", "single_query_coalesced_pps"),
        ("coalesced answer path", "coalesced_answer_pps"),
    ]
    # the key's suffix is its unit (mps / pps)
    return [[label, f"{result[key]:,.0f} {key[-3:]}"] for label, key in keys]


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(benchkit.main("scaleout", run, format_rows))
