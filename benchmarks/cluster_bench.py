"""Cluster-plane failover benchmark (shared measurement module).

Used by ``benchmarks/test_cluster_failover.py`` (tier-1) and by
``benchmarks/compare.py`` (``BENCH_cluster.json``).  Two measurements:

* **failover availability** — a 2-group process-mode cluster under
  sustained routed ingest and mirror-read load takes a SIGKILL of one
  whole worker group (every pid, nothing cooperative).  The monitor
  must detect the death, fence the group (ingest rejected with the
  distinct ``rejected_group_down`` reason), keep answering reads from
  the last mirror, and restart-with-reattach.  Reported:
  ``query_availability_during_outage`` — fraction of mirror reads that
  returned finite estimates across the whole window, kill included.
  The acceptance floor is 99.9% and it is machine-independent: mirror
  reads are in-process snapshot gathers and must never see the outage;

* **route overhead** — the same traffic submitted through the
  :class:`RoutingGateway` (validate, split by partition book, forward)
  vs submitted pre-split straight into each group's admission path, on
  a thread-mode cluster (no IPC noise).  ``route_overhead_x`` is the
  end-to-end slowdown the routing tier adds, gated under a 4x
  ceiling.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import numpy as np

import benchkit  # puts src/ on sys.path

from repro.core.config import DMFSGDConfig  # noqa: E402
from repro.serving.cluster import build_cluster  # noqa: E402

SEED = 20111206
NODES = 240
RANK = 10
GROUPS = 2
GROUP_SHARDS = 2
ROUTE_SAMPLES = 20_000
ROUTE_BATCH = 512
QUERY_BATCH = 256
FEED_BATCH = 256
HEARTBEAT_S = 0.05
STALENESS_BUDGET_S = 0.25
OUTAGE_RUN_S = 3.0
KILL_AFTER_ANSWERS = 100


def _factors(rng) -> tuple:
    U = rng.uniform(0.1, 1.0, size=(NODES, RANK))
    V = rng.uniform(0.1, 1.0, size=(NODES, RANK))
    return U, V


def _traffic(rng, samples):
    sources = rng.integers(0, NODES, size=samples)
    targets = (sources + 1 + rng.integers(0, NODES - 1, size=samples)) % NODES
    values = rng.choice([-1.0, 1.0], size=samples)
    return sources, targets, values


def bench_route_overhead() -> dict:
    """Routed vs direct ingest throughput on a thread-mode cluster."""
    rng = np.random.default_rng(SEED)
    config = DMFSGDConfig(neighbors=8)
    supervisor = build_cluster(
        _factors(rng),
        groups=GROUPS,
        shards=GROUP_SHARDS,
        workers="threads",
        config=config,
        batch_size=ROUTE_BATCH,
        refresh_interval=10 * ROUTE_BATCH,
        monitor=False,
        seed=SEED,
    ).start()
    try:
        router = supervisor.router
        sources, targets, values = _traffic(rng, ROUTE_SAMPLES)

        # warm-up both paths (thread spin-up, first-touch)
        router.submit_many(
            sources[:ROUTE_BATCH], targets[:ROUTE_BATCH], values[:ROUTE_BATCH]
        )
        router.flush()

        start = time.perf_counter()
        for lo in range(0, ROUTE_SAMPLES, ROUTE_BATCH):
            router.submit_many(
                sources[lo : lo + ROUTE_BATCH],
                targets[lo : lo + ROUTE_BATCH],
                values[lo : lo + ROUTE_BATCH],
            )
        router.flush()
        routed_mps = ROUTE_SAMPLES / (time.perf_counter() - start)

        # direct path: pre-split by owner outside the timer's per-batch
        # loop shape — each batch is split and fed straight into the
        # owning group's admission path, skipping the routing tier
        owners = sources % GROUPS
        start = time.perf_counter()
        for lo in range(0, ROUTE_SAMPLES, ROUTE_BATCH):
            src = sources[lo : lo + ROUTE_BATCH]
            dst = targets[lo : lo + ROUTE_BATCH]
            val = values[lo : lo + ROUTE_BATCH]
            own = owners[lo : lo + ROUTE_BATCH]
            for g, group in enumerate(supervisor.groups):
                mask = own == g
                if mask.any():
                    group.submit_many(src[mask], dst[mask], val[mask])
        for group in supervisor.groups:
            group.flush()
        direct_mps = ROUTE_SAMPLES / (time.perf_counter() - start)

        return {
            "route_direct_mps": direct_mps,
            "route_routed_mps": routed_mps,
            "route_overhead_x": direct_mps / routed_mps,
        }
    finally:
        supervisor.close()


def bench_failover() -> dict:
    """SIGKILL one worker group under load; measure read availability."""
    rng = np.random.default_rng(SEED + 1)
    config = DMFSGDConfig(neighbors=8)
    supervisor = build_cluster(
        _factors(rng),
        groups=GROUPS,
        shards=GROUP_SHARDS,
        workers="processes",
        config=config,
        batch_size=FEED_BATCH,
        refresh_interval=10 * FEED_BATCH,
        queue_depth=64,
        staleness_budget=STALENESS_BUDGET_S,
        heartbeat_interval=HEARTBEAT_S,
        auto_restart=True,
        monitor=True,
        seed=SEED,
    ).start()
    try:
        router = supervisor.router
        mirror = supervisor.mirror

        # prime: a little routed traffic so versions move before the kill
        src, dst, val = _traffic(rng, 4 * FEED_BATCH)
        router.submit_many(src, dst, val)
        router.flush()
        version_before_kill = supervisor.version

        qs = rng.integers(0, NODES, size=QUERY_BATCH)
        qt = (qs + 1 + rng.integers(0, NODES - 1, size=QUERY_BATCH)) % NODES

        stop = threading.Event()
        ok = [0]
        failed = [0]

        def querier() -> None:
            while not stop.is_set():
                try:
                    batch = mirror.snapshot().estimate_pairs(qs, qt)
                    if np.all(np.isfinite(batch)):
                        ok[0] += 1
                    else:
                        failed[0] += 1
                except Exception:
                    failed[0] += 1

        def feeder() -> None:
            feed_rng = np.random.default_rng(SEED + 2)
            while not stop.is_set():
                fs, ft, fv = _traffic(feed_rng, FEED_BATCH)
                try:
                    router.submit_many(fs, ft, fv)
                except Exception:
                    pass
                time.sleep(0.002)

        threads = [
            threading.Thread(target=querier, daemon=True),
            threading.Thread(target=feeder, daemon=True),
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()

        # let the read path warm up before pulling the trigger
        deadline = started + OUTAGE_RUN_S
        while ok[0] < KILL_AFTER_ANSWERS and time.perf_counter() < deadline:
            time.sleep(0.005)

        victim = supervisor.groups[1]
        kill_at = time.perf_counter()
        for pid in victim.pids():
            if pid:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        # the monitor thread must notice (deaths) and revive (alive)
        detection_s = recovery_s = float("nan")
        wait_until = kill_at + 10.0
        while time.perf_counter() < wait_until:
            if supervisor.deaths[1] >= 1:
                detection_s = time.perf_counter() - kill_at
                break
            time.sleep(0.005)
        while time.perf_counter() < wait_until:
            if supervisor.alive(1):
                recovery_s = time.perf_counter() - kill_at
                break
            time.sleep(0.005)

        # keep load running past recovery so the window prices both sides
        while time.perf_counter() < deadline:
            time.sleep(0.01)
        elapsed = time.perf_counter() - started
        stop.set()
        for t in threads:
            t.join(timeout=5.0)

        version_after = supervisor.version
        answered, dropped = ok[0], failed[0]
        total = answered + dropped
        return {
            "query_availability_during_outage": (
                answered / total if total else 0.0
            ),
            "queries_answered_during_outage": answered,
            "queries_failed_during_outage": dropped,
            "queries_during_outage_pps": answered * QUERY_BATCH / elapsed,
            "death_detection_ms": detection_s * 1000.0,
            "group_recovery_ms": recovery_s * 1000.0,
            "deaths_detected": list(supervisor.deaths),
            "group_restarts": list(supervisor.group_restarts),
            "rejected_group_down": int(sum(router.rejected_group_down)),
            "forwarded": int(sum(router.forwarded)),
            "version_before_kill": int(version_before_kill),
            "version_after_recovery": int(version_after),
            "version_monotone": bool(version_after >= version_before_kill),
            "supervisor_errors": len(supervisor.errors),
        }
    finally:
        supervisor.close()


def run() -> dict:
    result = {
        "nodes": NODES,
        "rank": RANK,
        "groups": GROUPS,
        "group_shards": GROUP_SHARDS,
        "seed": SEED,
        "cpu_count": os.cpu_count() or 1,
        "notices": [],
        "staleness_budget_s": STALENESS_BUDGET_S,
        "heartbeat_interval_s": HEARTBEAT_S,
    }
    result.update(bench_route_overhead())
    result.update(bench_failover())
    return result


def format_rows(result: dict) -> list:
    return [
        ["cores", str(result["cpu_count"])],
        [
            "query availability through kill/restart",
            f"{result['query_availability_during_outage']:.4%}",
        ],
        [
            "mirror reads during outage",
            f"{result['queries_during_outage_pps']:,.0f} pps",
        ],
        ["death detection", f"{result['death_detection_ms']:.0f} ms"],
        ["group recovery", f"{result['group_recovery_ms']:.0f} ms"],
        [
            "ingest rejected while down",
            f"{result['rejected_group_down']:,d} samples",
        ],
        ["route overhead (routed vs direct)", f"{result['route_overhead_x']:.2f}x"],
        [
            "version monotone across restart",
            "yes" if result["version_monotone"] else "NO",
        ],
    ]


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(benchkit.main("cluster", run, format_rows))
