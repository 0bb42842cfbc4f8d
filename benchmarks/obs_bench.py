"""Telemetry overhead benchmark (shared measurement module).

Used by ``benchmarks/test_obs_smoke.py`` (tier-1) and by
``benchmarks/compare.py`` (``BENCH_obs.json``).  Prices the
observability plane on the ingest hot path — the same duplicate-heavy
stream as ``BENCH_scaleout.json`` through a 2-shard
:class:`~repro.serving.shard.ShardedIngest` — in three
configurations:

* **uninstrumented** — no registry bound: chunks carry no metadata and
  every telemetry hook is one ``is None`` branch;
* **instrumented** — a :class:`~repro.obs.metrics.MetricsRegistry`
  bound (queue-wait + apply latency histograms recorded per chunk),
  tracing still off.  The acceptance gate: this must stay within
  5% of the uninstrumented run;
* **traced** — registry bound *and* the module-global tracer armed,
  one span minted per submitted batch (the gateway's behaviour),
  recorded for the books.

Methodology: both ingests run **inline** (workers closed, so submits
apply on the caller thread — the identical routing + instrumented
apply code path minus thread-scheduler noise), and each trial
interleaves the two configurations *batch by batch*, accumulating
separate time sums.  Machine noise — frequency steps, neighbour
interference — lands on both accumulators almost equally, so the
per-trial ratio is stable where whole-pass pairing is not; the gate
takes the median ratio over ``TRIALS``.  A same-run comparison on one
machine, so the gate is absolute — no core-count calibration.

The instrumented run's quantile summary (what ``/stats`` serves as
``obs``) is committed too; the gate table requires every quantile of
``benchkit.QUANTILE_FAMILIES`` so the scrape surface cannot silently
lose its latency families.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

import benchkit
from benchkit import NODES, QUANTILE_FAMILIES
from repro.obs import MetricsRegistry
from repro.obs import tracing
from repro.serving.shard import ShardedCoordinateStore, ShardedIngest

SEED = 20111206
RANK = 10
SAMPLES = 120_000
BATCH = 1024
SHARDS = 2
TRIALS = 5


def _inline_ingest(registry=None) -> ShardedIngest:
    """A closed (worker-less) sharded ingest: submits apply inline."""
    engine = benchkit.engine()
    store = ShardedCoordinateStore(engine.coordinates, shards=SHARDS)
    ingest = ShardedIngest(
        engine,
        store,
        batch_size=BATCH,
        refresh_interval=10 * BATCH,
        step_clip=0.1,
        queue_depth=256,
    )
    ingest.close()
    if registry is not None:
        ingest.bind_obs(registry)
    return ingest


def bench_pair(sources, targets, values, registry) -> "tuple[float, float]":
    """One interleaved trial: (plain_seconds, instrumented_seconds)."""
    plain = _inline_ingest()
    instr = _inline_ingest(registry)
    t_plain = t_instr = 0.0
    for lo in range(0, SAMPLES, BATCH):
        s = sources[lo : lo + BATCH]
        t = targets[lo : lo + BATCH]
        v = values[lo : lo + BATCH]
        start = time.perf_counter()
        plain.submit_many(s, t, v)
        t_plain += time.perf_counter() - start
        start = time.perf_counter()
        instr.submit_many(s, t, v)
        t_instr += time.perf_counter() - start
    plain.flush()
    instr.flush()
    return t_plain, t_instr


def bench_traced(sources, targets, values, registry) -> dict:
    """The traced configuration: one span per batch, for the books."""
    tracer = tracing.install()
    try:
        ingest = _inline_ingest(registry)
        start = time.perf_counter()
        for lo in range(0, SAMPLES, BATCH):
            accept_us = tracing.now_us()
            span_id = tracer.begin(
                route="/ingest",
                samples=min(BATCH, SAMPLES - lo),
                accept_us=accept_us,
            )
            tracing.set_context(span_id, accept_us)
            try:
                ingest.submit_many(
                    sources[lo : lo + BATCH],
                    targets[lo : lo + BATCH],
                    values[lo : lo + BATCH],
                )
            finally:
                tracing.clear_context()
        ingest.publish()  # complete the tail spans' publish stamps
        elapsed = time.perf_counter() - start
        return {
            "traced_mps": SAMPLES / elapsed,
            "trace_spans_started": tracer.started,
            "trace_spans_completed": tracer.completed,
        }
    finally:
        tracing.uninstall()


def run() -> dict:
    rng = np.random.default_rng(SEED)
    sources, targets, values = benchkit.stream(rng, SAMPLES)
    registry = MetricsRegistry()

    plain_s = []
    instr_s = []
    for _ in range(TRIALS):
        t_plain, t_instr = bench_pair(sources, targets, values, registry)
        plain_s.append(t_plain)
        instr_s.append(t_instr)
    ratios = sorted(i / p for p, i in zip(plain_s, instr_s))
    overhead = ratios[len(ratios) // 2]

    traced = bench_traced(sources, targets, values, registry)

    quantiles = registry.summary()
    best_plain = SAMPLES / min(plain_s)
    best_instr = SAMPLES / min(instr_s)
    return {
        "cpu_count": os.cpu_count() or 1,
        "notices": [],
        "nodes": NODES,
        "rank": RANK,
        "samples": SAMPLES,
        "hot_fraction": benchkit.HOT_FRACTION,
        "seed": SEED,
        "shards": SHARDS,
        "trials": TRIALS,
        "uninstrumented_mps": best_plain,
        "instrumented_mps": best_instr,
        "overhead_ratio": overhead,
        "overhead_ratios": ratios,
        **traced,
        "traced_overhead_ratio": (
            best_plain / traced["traced_mps"]
            if traced["traced_mps"]
            else float("inf")
        ),
        "quantiles": quantiles,
    }


def format_rows(result: dict) -> list:
    rows = [
        [
            "ingest, uninstrumented",
            f"{result['uninstrumented_mps']:,.0f} mps",
        ],
        [
            "ingest, instrumented",
            f"{result['instrumented_mps']:,.0f} mps",
        ],
        [
            "instrumentation overhead (median)",
            f"{result['overhead_ratio']:.3f}x",
        ],
        ["ingest, traced", f"{result['traced_mps']:,.0f} mps"],
        [
            "trace spans completed",
            f"{result['trace_spans_completed']}"
            f"/{result['trace_spans_started']}",
        ],
    ]
    for family in QUANTILE_FAMILIES:
        entry = result["quantiles"].get(family, {})
        if "p99" in entry:
            rows.append(
                [f"{family} p99", f"{entry['p99'] * 1e3:.3f} ms"]
            )
    return rows


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(benchkit.main("obs", run, format_rows))
