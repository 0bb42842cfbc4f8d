"""Process-per-shard ingest benchmark (shared measurement module).

Used by ``benchmarks/test_mp_scaleout.py`` (tier-1) and by
``benchmarks/compare.py`` (``BENCH_mp.json``).  Measures the
guarded-admission stream — the same duplicate-heavy traffic as
``BENCH_ingest.json`` — through:

* the single-process single-store :class:`IngestPipeline` (the
  GIL-bound baseline every scale-out number is judged against);
* :class:`~repro.serving.procs.ProcessShardedIngest` with 4 worker
  processes (chunks cross the process boundary once; admission, dedup
  and the SGD apply run on the workers' own cores).

Also verifies, and records, the read-parity acceptance bit: quiesced
process-store estimates must be **bitwise identical** to the
thread-mode sharded store for the same factors.

The 1.5x throughput floor only means something when there are cores to
parallelize over, so the result carries ``cpu_count``; the gate table
(``benchkit.GATES["mp"]``) enforces the floor on >= 4 cores and
records a notice below that.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

import benchkit
from benchkit import NODES, SAMPLES
from repro.core.engine import EngineSpec
from repro.serving.ingest import IngestPipeline
from repro.serving.procs import (
    ProcessShardedIngest,
    ProcessShardedStore,
    WorkerSpec,
    WorkerSupervisor,
)
from repro.serving.shard import ShardedCoordinateStore
from repro.serving.store import CoordinateStore

SEED = 20111206
RANK = 10
BATCH = 1024
MP_SHARDS = 4


def bench_single(sources, targets, values) -> float:
    """Single-process guarded admission (the GIL-bound baseline)."""
    engine = benchkit.engine()
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


def bench_mp(sources, targets, values, shards=MP_SHARDS) -> float:
    """Guarded admission through ``shards`` worker processes."""
    engine = benchkit.engine()
    store = ProcessShardedStore.create(engine.coordinates, shards=shards)
    spec = WorkerSpec(
        engine=EngineSpec.from_engine(engine, seed=1),
        batch_size=BATCH,
        refresh_interval=10 * BATCH,
        step_clip=0.1,
        guards=[benchkit.guard() for _ in range(shards)],
    )
    supervisor = WorkerSupervisor(
        store, spec, queue_depth=256, monitor=False, command_timeout=120.0
    ).start()
    ingest = ProcessShardedIngest(store, supervisor)
    try:
        # warm-up: absorb worker start-up (imports, engine build) so the
        # measured window prices the steady state, as the thread bench does
        ingest.submit_many(sources[:BATCH], targets[:BATCH], values[:BATCH])
        ingest.flush()
        start = time.perf_counter()
        for lo in range(0, SAMPLES, BATCH):
            ingest.submit_many(
                sources[lo : lo + BATCH],
                targets[lo : lo + BATCH],
                values[lo : lo + BATCH],
            )
        ingest.flush()
        return SAMPLES / (time.perf_counter() - start)
    finally:
        ingest.close()


def check_read_parity(rng) -> bool:
    """Quiesced process-store reads vs thread mode: bitwise identical."""
    table_rng = np.random.default_rng(SEED)
    U = table_rng.uniform(size=(NODES, RANK))
    V = table_rng.uniform(size=(NODES, RANK))
    threaded = ShardedCoordinateStore((U, V), shards=MP_SHARDS)
    store = ProcessShardedStore.create((U, V), shards=MP_SHARDS)
    try:
        sources = rng.integers(0, NODES, size=10_000)
        targets = (
            sources + 1 + rng.integers(0, NODES - 1, size=10_000)
        ) % NODES
        a = store.snapshot().estimate_pairs(sources, targets)
        b = threaded.snapshot().estimate_pairs(sources, targets)
        return bool(np.array_equal(a, b))
    finally:
        store.destroy()


def run() -> dict:
    rng = np.random.default_rng(SEED)
    sources, targets, values = benchkit.stream(rng)
    single = bench_single(sources.copy(), targets.copy(), values.copy())
    mp = bench_mp(sources.copy(), targets.copy(), values.copy())
    return {
        "cpu_count": os.cpu_count() or 1,
        "notices": [],
        "nodes": NODES,
        "rank": RANK,
        "samples": SAMPLES,
        "hot_fraction": benchkit.HOT_FRACTION,
        "seed": SEED,
        "mp_shards": MP_SHARDS,
        "guarded_admission_single_mps": single,
        "mp_shards4_mps": mp,
        "mp_speedup": mp / single,
        "read_parity_bitwise": check_read_parity(rng),
    }


def format_rows(result: dict) -> list:
    return [
        ["cores", str(result["cpu_count"])],
        [
            "guarded admission, 1 process",
            f"{result['guarded_admission_single_mps']:,.0f} mps",
        ],
        [
            f"guarded admission, {result['mp_shards']} processes",
            f"{result['mp_shards4_mps']:,.0f} mps",
        ],
        ["mp speedup", f"{result['mp_speedup']:.2f}x"],
        [
            "read parity (bitwise)",
            "yes" if result["read_parity_bitwise"] else "NO",
        ],
    ]


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(benchkit.main("mp", run, format_rows))
