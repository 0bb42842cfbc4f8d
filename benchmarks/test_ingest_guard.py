"""Ingest-path throughput micro-benchmark: guarded vs raw admission.

The admission guard (within-batch dedup, per-pair step clip, token
buckets, outlier rejection) buys safety on the ingest hot path; this
bench prices it.  A 500-node model ingests the same duplicate-heavy
stream (30% of samples hammer one hot pair — the ROADMAP's divergence
traffic) through four configurations:

* **raw batch** — seed-faithful mode, no guard work at all;
* **guarded batch** — within-batch dedup + step clip;
* **guarded + admission** — dedup/clip plus per-source token buckets
  and the sigma outlier filter;
* **guarded + admission, 4 shards** — the same admission work through
  ``repro.serving.shard.ShardedIngest`` (bounded queues, one guarded
  pipeline per shard on its own worker thread);
* **single-submit** — the scalar fast path of ``submit`` (the
  gateway's per-request shape), guarded.

Writes a machine-readable ``BENCH_ingest.json`` (measurements/second
per mode) under ``.bench_out/`` so the guard's overhead is tracked
across PRs, and ``benchkit.GATES["ingest"]`` holds the overhead
bounded: guarded batch ingest must sustain at least one fifth of raw
throughput.
"""

import os
import time

import numpy as np

import benchkit
from benchkit import HOT_FRACTION, NODES, SAMPLES, evaluate, write
from repro.serving.ingest import IngestPipeline
from repro.serving.shard import ShardedCoordinateStore, ShardedIngest
from repro.serving.store import CoordinateStore
from repro.utils.tables import format_table

SINGLE_SAMPLES = 5_000
BATCH = 1024


def make_pipeline(seed, **kwargs):
    engine = benchkit.engine(seed)
    store = CoordinateStore(engine.coordinates)
    kwargs.setdefault("batch_size", BATCH)
    kwargs.setdefault("refresh_interval", 10 * BATCH)
    return IngestPipeline(engine, store, **kwargs)


def _ingest_batched(pipeline, sources, targets, values) -> float:
    start = time.perf_counter()
    for lo in range(0, SAMPLES, BATCH):
        pipeline.submit_many(
            sources[lo : lo + BATCH],
            targets[lo : lo + BATCH],
            values[lo : lo + BATCH],
        )
    pipeline.flush()
    return time.perf_counter() - start


def run():
    rng = np.random.default_rng(20111206)
    sources, targets, values = benchkit.stream(rng)

    raw = make_pipeline(1, mode="raw")
    raw_s = _ingest_batched(raw, sources, targets, values)

    guarded = make_pipeline(1, step_clip=0.1)
    guarded_s = _ingest_batched(guarded, sources, targets, values)

    admission = make_pipeline(1, step_clip=0.1, guard=benchkit.guard())
    admission_s = _ingest_batched(admission, sources, targets, values)

    # the same admission work, sharded 4 ways (queues + workers)
    engine = benchkit.engine()
    sharded_store = ShardedCoordinateStore(engine.coordinates, shards=4)
    with ShardedIngest(
        engine,
        sharded_store,
        batch_size=BATCH,
        refresh_interval=10 * BATCH,
        step_clip=0.1,
        guards=[benchkit.guard() for _ in range(4)],
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
        sharded_s = time.perf_counter() - start

    single = make_pipeline(1, step_clip=0.1)
    start = time.perf_counter()
    for k in range(SINGLE_SAMPLES):
        single.submit(int(sources[k]), int(targets[k]), float(values[k]))
    single.flush()
    single_s = time.perf_counter() - start

    # the guard must actually have worked on this stream
    assert guarded.stats().deduped > 0
    assert raw.stats().deduped == 0

    return {
        "nodes": NODES,
        "samples": SAMPLES,
        "hot_fraction": HOT_FRACTION,
        "cpu_count": os.cpu_count() or 1,
        "notices": [],  # all ingest-guard gates hold on any machine
        "raw_batch_mps": SAMPLES / raw_s,
        "guarded_batch_mps": SAMPLES / guarded_s,
        "guarded_admission_mps": SAMPLES / admission_s,
        "guarded_admission_shards4_mps": SAMPLES / sharded_s,
        "single_submit_mps": SINGLE_SAMPLES / single_s,
        "guarded_deduped": guarded.stats().deduped,
    }


def format_rows(result: dict) -> list:
    return [
        ["raw batch (seed-faithful)", f"{result['raw_batch_mps']:,.0f}"],
        ["guarded batch (dedup+clip)", f"{result['guarded_batch_mps']:,.0f}"],
        [
            "guarded + rate limit + outlier",
            f"{result['guarded_admission_mps']:,.0f}",
        ],
        [
            "guarded + admission, 4 shards",
            f"{result['guarded_admission_shards4_mps']:,.0f}",
        ],
        ["single submit (fast path)", f"{result['single_submit_mps']:,.0f}"],
    ]


def test_ingest_guard_throughput(run_once, report):
    result = run_once(run)

    report(
        f"Ingest throughput — {NODES}-node model, "
        f"{result['hot_fraction']:.0%} hot-pair duplicates",
        format_table(format_rows(result), headers=["mode", "measurements/s"]),
    )

    # the guard's price must stay bounded on the batch hot path, and it
    # must have actually deduped the hot-pair traffic
    failures = evaluate("ingest", result)
    report("Summary", f"wrote {write('ingest', result)}")
    assert not failures, failures
