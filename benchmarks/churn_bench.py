"""Shared churn-benchmark measurement (imported, not collected).

One measurement routine used from two places:

* ``benchmarks/test_membership_churn.py`` — the pytest bench that
  prints the table and gates the payload;
* ``benchmarks/compare.py`` — which writes ``BENCH_churn.json`` and
  reports the latencies and throughput against the committed numbers.

The scenario: a sharded serving stack under sustained query and ingest
load takes a storm of live membership transitions (joins and leaves
through :class:`repro.serving.membership.MembershipManager`).  Reported:

* ``join_transition_ms`` / ``leave_transition_ms`` — mean epoch-swap
  latency (barrier + resize + atomic snapshot-tuple store);
* ``query_availability_during_churn`` — fraction of queries answered
  successfully while the storm runs (the paper's claim, served live:
  churn must not take queries down);
* ``queries_during_churn_pps`` — sustained query throughput under
  churn (batch gathers against stable nodes).
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.core.config import DMFSGDConfig
from repro.core.engine import DMFSGDEngine
from repro.serving.membership import MembershipManager
from repro.serving.service import PredictionService
from repro.serving.shard import ShardedCoordinateStore, ShardedIngest

SEED = 20111206
NODES = 300
SHARDS = 4
STABLE = 50  # nodes the churn never touches (the query working set)
CHURN_OPS = 40  # join/leave pairs applied during the storm
QUERY_BATCH = 512
QUERY_THREADS = 2
FEED_BATCH = 256


def run() -> dict:
    """Measure churn latency + availability; returns the JSON payload."""
    config = DMFSGDConfig(neighbors=8)
    engine = DMFSGDEngine(
        NODES, lambda r, c: np.ones(len(r)), config, rng=SEED
    )
    store = ShardedCoordinateStore(engine.coordinates, shards=SHARDS)
    ingest = ShardedIngest(
        engine, store, batch_size=256, refresh_interval=2048, queue_depth=64
    )
    service = PredictionService(store, cache_size=0)
    manager = MembershipManager(engine, store, ingest, rng=SEED)

    rng = np.random.default_rng(SEED)
    qs = rng.integers(0, STABLE, size=QUERY_BATCH)
    qt = (qs + 1 + rng.integers(0, STABLE - 1, size=QUERY_BATCH)) % STABLE

    stop = threading.Event()
    ok = [0] * QUERY_THREADS
    failed = [0] * QUERY_THREADS

    def querier(slot: int) -> None:
        while not stop.is_set():
            try:
                batch = service.predict_pairs(qs, qt)
                if np.all(np.isfinite(batch.estimates)):
                    ok[slot] += 1
                else:
                    failed[slot] += 1
            except Exception:
                failed[slot] += 1

    def feeder() -> None:
        feed_rng = np.random.default_rng(SEED + 1)
        while not stop.is_set():
            src = feed_rng.integers(0, STABLE, size=FEED_BATCH)
            dst = (src + 1 + feed_rng.integers(0, STABLE - 1, size=FEED_BATCH)) % STABLE
            vals = feed_rng.choice([-1.0, 1.0], size=FEED_BATCH)
            ingest.submit_many(src, dst, vals)

    threads = [
        threading.Thread(target=querier, args=(slot,), daemon=True)
        for slot in range(QUERY_THREADS)
    ] + [threading.Thread(target=feeder, daemon=True)]
    for t in threads:
        t.start()

    join_ms: list = []
    leave_ms: list = []
    started = time.perf_counter()
    try:
        for _ in range(CHURN_OPS):
            out = manager.join()
            join_ms.append(out["transition_s"] * 1000.0)
            out = manager.leave(out["node"])
            leave_ms.append(out["transition_s"] * 1000.0)
    finally:
        elapsed = time.perf_counter() - started
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        ingest.close()

    answered = sum(ok)
    dropped = sum(failed)
    total = answered + dropped
    return {
        "nodes": NODES,
        "shards": SHARDS,
        "seed": SEED,
        "cpu_count": os.cpu_count() or 1,
        "notices": [],  # every churn gate is enforced on any machine
        "churn_ops": 2 * CHURN_OPS,
        "final_epoch": manager.epoch,
        "join_transition_ms": float(np.mean(join_ms)),
        "leave_transition_ms": float(np.mean(leave_ms)),
        "join_transition_p99_ms": float(np.quantile(join_ms, 0.99)),
        "leave_transition_p99_ms": float(np.quantile(leave_ms, 0.99)),
        "query_availability_during_churn": (
            answered / total if total else 0.0
        ),
        "queries_answered_during_churn": answered,
        "queries_failed_during_churn": dropped,
        "queries_during_churn_pps": answered * QUERY_BATCH / elapsed,
        "worker_errors": len(ingest.worker_errors),
    }


def format_rows(result: dict) -> list:
    """Table rows shared by the bench and compare.py output."""
    return [
        ["join epoch transition (mean)", f"{result['join_transition_ms']:.2f} ms"],
        ["leave epoch transition (mean)", f"{result['leave_transition_ms']:.2f} ms"],
        ["join epoch transition (p99)", f"{result['join_transition_p99_ms']:.2f} ms"],
        [
            "query availability under churn",
            f"{result['query_availability_during_churn']:.4%}",
        ],
        [
            "queries under churn",
            f"{result['queries_during_churn_pps']:,.0f} pps",
        ],
    ]
