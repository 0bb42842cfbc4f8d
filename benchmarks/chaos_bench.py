"""Fault-plane chaos benchmark (shared measurement module).

Used by ``benchmarks/test_chaos_smoke.py`` (tier-1) and by
``benchmarks/compare.py`` (``BENCH_chaos.json``).  Two measurements:

* **availability under the standard fault soup** — a 2-group
  thread-mode cluster under sustained routed ingest + mirror-read load
  takes the composed chaos scenario: delayed ``transport.pull`` calls,
  one scripted whole-group flap (kill, hold down, restart), a stalled
  worker heartbeat, and a corrupted checkpoint write — all armed from
  one seeded :class:`~repro.serving.faults.FaultPlan` through a
  :class:`~repro.simnet.livefeed.ChaosDriver`.  Reported:
  ``chaos_availability`` (fraction of mirror reads answering finite
  estimates through the whole soup, acceptance floor 99.9%),
  ``chaos_torn_reads`` (non-finite estimates *or* snapshot-version
  rewinds — must be zero: RCU snapshot reads and monotone versions are
  the torn-read defence this bench prices), the circuit breaker's
  open/close latency around the flap, and the
  checkpoint-recovery outcome (the corrupted write must be detected at
  load and fall back to the rotated last-good file);

* **shed-vs-fail breakdown** — a :class:`GatewayCore` with a
  :class:`~repro.serving.faults.LoadShedder` over a sharded ingest
  whose workers are stalled by the injector (the queue-backs-up
  overload shape).  Overloaded ingest/batch requests must turn into
  clean 503 sheds, never hard failures, while single reads — the
  availability number — are never shed at all.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

import benchkit  # puts src/ on sys.path

from repro.core.config import DMFSGDConfig  # noqa: E402
from repro.serving import faults  # noqa: E402
from repro.serving.cluster import build_cluster  # noqa: E402
from repro.serving.gateway import GatewayCore  # noqa: E402
from repro.serving.service import PredictionService  # noqa: E402
from repro.serving.shard import (  # noqa: E402
    ShardedCoordinateStore,
    ShardedIngest,
)
from repro.simnet.livefeed import ChaosDriver, ClusterOutageDriver  # noqa: E402

SEED = 20111206
NODES = 240
RANK = 10
GROUPS = 2
GROUP_SHARDS = 2
QUERY_BATCH = 256
FEED_BATCH = 256
HEARTBEAT_S = 0.05
STALENESS_BUDGET_S = 0.25
SOUP_RUN_S = 3.0
FLAP_IDLE_STEPS = 6
STEP_S = 0.1
WARMUP_ANSWERS = 50

#: the standard fault soup (the plan ``--chaos-plan`` would load).  The
#: checkpoint rule skips the first write (the good baseline the rotation
#: keeps) and corrupts the second — the recovery path must then restore
#: the first.
SOUP_PLAN = {
    "seed": SEED,
    "rules": [
        {"point": "transport.pull", "action": "delay", "ms": 2, "p": 0.25},
        {
            "point": "heartbeat",
            "action": "drop",
            "p": 1.0,
            "max_fires": 20,
            "match": {"group": "g0"},
        },
        {
            "point": "checkpoint.write",
            "action": "corrupt",
            "after": 1,
            "max_fires": 1,
        },
    ],
}


def _factors(rng) -> tuple:
    U = rng.uniform(0.1, 1.0, size=(NODES, RANK))
    V = rng.uniform(0.1, 1.0, size=(NODES, RANK))
    return U, V


def _traffic(rng, samples):
    sources = rng.integers(0, NODES, size=samples)
    targets = (sources + 1 + rng.integers(0, NODES - 1, size=samples)) % NODES
    values = rng.choice([-1.0, 1.0], size=samples)
    return sources, targets, values


def bench_fault_soup(tmp_dir: Path) -> dict:
    """Run the standard fault soup against a live cluster under load."""
    rng = np.random.default_rng(SEED)
    config = DMFSGDConfig(neighbors=8)
    supervisor = build_cluster(
        _factors(rng),
        groups=GROUPS,
        shards=GROUP_SHARDS,
        workers="threads",
        config=config,
        batch_size=FEED_BATCH,
        refresh_interval=10 * FEED_BATCH,
        staleness_budget=STALENESS_BUDGET_S,
        heartbeat_interval=HEARTBEAT_S,
        auto_restart=False,  # the flap schedule owns the restart
        monitor=False,  # the chaos driver owns detection, in-step
        seed=SEED,
    ).start()
    checkpoint = tmp_dir / "chaos_ckpt.npz"
    outages = ClusterOutageDriver(
        supervisor,
        # a *silent* crash (no fence): the in-step detection pass must
        # notice the dead heartbeat surface before routing fences it
        schedule=ClusterOutageDriver.flap_schedule(
            [1], idle=FLAP_IDLE_STEPS, op="crash"
        ),
        detect=True,
    )
    try:
        with ChaosDriver(SOUP_PLAN, outages=outages) as chaos:
            router = supervisor.router
            mirror = supervisor.mirror
            breaker = supervisor.transports[1].breaker

            # prime: routed traffic so versions move before the chaos
            src, dst, val = _traffic(rng, 4 * FEED_BATCH)
            router.submit_many(src, dst, val)
            router.flush()
            supervisor.save(checkpoint)  # the good write the soup keeps
            version_good = mirror.version

            qs = rng.integers(0, NODES, size=QUERY_BATCH)
            qt = (qs + 1 + rng.integers(0, NODES - 1, size=QUERY_BATCH)) % NODES

            stop = threading.Event()
            ok = [0]
            torn = [0]
            failed = [0]

            def querier() -> None:
                last_version = -1
                while not stop.is_set():
                    try:
                        snapshot = mirror.snapshot()
                        batch = snapshot.estimate_pairs(qs, qt)
                        version = snapshot.version
                        if np.all(np.isfinite(batch)) and version >= last_version:
                            ok[0] += 1
                            last_version = version
                        else:
                            torn[0] += 1
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

            def refresher() -> None:
                # the pull + heartbeat loop the monitor thread would
                # run — kept explicit so the delayed/failed pulls that
                # exercise the breaker (and the stalled-heartbeat rule)
                # happen at a steady, seed-independent cadence
                while not stop.is_set():
                    supervisor.refresh_mirror()
                    for group in supervisor.groups:
                        group.heartbeat()
                    time.sleep(HEARTBEAT_S / 2.0)

            threads = [
                threading.Thread(target=querier, daemon=True),
                threading.Thread(target=feeder, daemon=True),
                threading.Thread(target=refresher, daemon=True),
            ]
            started = time.perf_counter()
            for t in threads:
                t.start()
            deadline = started + SOUP_RUN_S
            while ok[0] < WARMUP_ANSWERS and time.perf_counter() < deadline:
                time.sleep(0.005)

            # drive the flap schedule; stamp the breaker transitions
            kill_at = restart_at = None
            breaker_open_s = breaker_close_s = float("nan")
            while True:
                applied = chaos.step()
                if applied is not None and applied.get("op") in (
                    "kill",
                    "crash",
                ):
                    kill_at = time.perf_counter()
                if applied is not None and applied.get("op") == "restart":
                    restart_at = time.perf_counter()
                if kill_at is not None and np.isnan(breaker_open_s):
                    if breaker.state == breaker.OPEN:
                        breaker_open_s = time.perf_counter() - kill_at
                if outages._cursor >= len(outages.schedule):
                    break
                time.sleep(STEP_S)
            wait_until = time.perf_counter() + 5.0
            while time.perf_counter() < wait_until:
                if kill_at is not None and np.isnan(breaker_open_s):
                    if breaker.state == breaker.OPEN:
                        breaker_open_s = time.perf_counter() - kill_at
                if restart_at is not None and breaker.state == breaker.CLOSED:
                    breaker_close_s = time.perf_counter() - restart_at
                    break
                time.sleep(0.005)

            # the corrupted write: rule 2 fires on this save, tearing
            # the installed file while the rotation keeps the good one
            supervisor.save(checkpoint)

            while time.perf_counter() < deadline:
                time.sleep(0.01)
            stop.set()
            for t in threads:
                t.join(timeout=5.0)
            report = chaos.report()

        # recovery: the torn primary must be detected and the rotated
        # last-good restored (chaos is disarmed here — a recovery load
        # under a live corrupt rule would corrupt nothing, reads don't
        # write, but keeping the window tight mirrors real operation)
        restored = ShardedCoordinateStore.load(checkpoint, shards=GROUPS)
        answered, dropped = ok[0], failed[0]
        total = answered + dropped
        return {
            "chaos_availability": answered / total if total else 0.0,
            "chaos_reads_answered": answered,
            "chaos_reads_failed": dropped,
            "chaos_torn_reads": torn[0],
            "breaker_open_ms": breaker_open_s * 1000.0,
            "breaker_close_ms": breaker_close_s * 1000.0,
            "breaker_opens": breaker.opens,
            "breaker_closes": breaker.closes,
            "breaker_fast_failures": breaker.fast_failures,
            "injected": report["injected"],
            "outage_kills": report["outages"]["kills"],
            "outage_restarts": report["outages"]["restarts"],
            "outage_detections": report["outages"]["detections"],
            "checkpoint_recovered": bool(restored.recovered_from_fallback),
            "checkpoint_version_saved": int(version_good),
            "checkpoint_version_restored": int(restored.version),
            "checkpoint_version_held": bool(restored.version >= version_good),
        }
    finally:
        supervisor.close()


def bench_overload_shedding() -> dict:
    """Stalled workers back the queues up; count sheds vs hard fails.

    Two phases, so the numbers are deterministic instead of an
    oscillation race: a healthy phase (no injector — every request must
    be accepted) and an overloaded phase (workers stalled hard by the
    injector, queues pre-filled to the brim) where ingest and batch
    requests must turn into clean 503 sheds while single reads — the
    availability number — keep answering 200.
    """
    rng = np.random.default_rng(SEED + 3)
    U, V = _factors(rng)
    store = ShardedCoordinateStore((U, V), shards=GROUP_SHARDS)
    config = DMFSGDConfig(neighbors=8)
    from repro.core.engine import DMFSGDEngine

    engine = DMFSGDEngine(
        NODES, lambda r, c: np.ones(len(r)), config, rng=SEED
    )
    # deep enough that one worker drain gulp (up to ``_DRAIN_LIMIT``
    # queued chunks at a time) cannot empty it while the apply stalls
    queue_depth = 64
    rounds = 50
    shed_ingest = shed_batch = accepted = hard_failures = reads_ok = 0
    with ShardedIngest(
        engine,
        store,
        batch_size=32,
        refresh_interval=320,
        queue_depth=queue_depth,
        put_timeout=0.05,
    ) as ingest:
        shedder = faults.LoadShedder(
            ingest,
            ingest_watermark=0.5,
            batch_watermark=0.75,
            refresh_s=0.0,
        )
        core = GatewayCore(
            PredictionService(store, cache_size=0), ingest, shedder=shedder
        )
        body = json.dumps(
            {
                "measurements": [
                    [int(s), int(t), float(v)]
                    for s, t, v in zip(*_traffic(rng, 64))
                ]
            }
        ).encode("utf-8")
        batch_body = json.dumps(
            {"pairs": [[3, 17], [4, 9], [5, 11]]}
        ).encode("utf-8")

        def one_round() -> None:
            nonlocal shed_ingest, shed_batch, accepted
            nonlocal hard_failures, reads_ok
            status, payload = core.handle("POST", "/ingest", {}, body)
            if status == 200:
                accepted += 1
            elif status == 503 and payload.get("shed") == "ingest":
                shed_ingest += 1
            else:
                hard_failures += 1
            status, payload = core.handle(
                "POST", "/estimate/batch", {}, batch_body
            )
            if status == 503 and payload.get("shed") == "batch":
                shed_batch += 1
            elif status != 200:
                hard_failures += 1
            # single reads are the availability number: never shed
            status, _ = core.handle(
                "GET", "/predict", {"src": ["3"], "dst": ["7"]}, b""
            )
            if status == 200:
                reads_ok += 1
            else:
                hard_failures += 1

        # healthy phase: drained queues, nothing sheds (the per-round
        # flush keeps the fill at zero so the phase is deterministic)
        for _ in range(rounds):
            one_round()
            ingest.flush()
        healthy_accepted = accepted

        # overloaded phase: every apply stalls 400 ms, so the directly
        # pre-filled queues stay at the brim for the whole count
        faults.install(
            {
                "seed": SEED,
                "rules": [
                    {"point": "worker.apply", "action": "stall", "ms": 400}
                ],
            }
        )
        try:
            src, dst, val = _traffic(rng, 64)
            # queue_depth chunks per shard, plus one drain gulp each
            # worker swallows before its first stall pins it down
            for _ in range(queue_depth + 16):
                ingest.submit_many(src, dst, val)
            for _ in range(rounds):
                one_round()
        finally:
            faults.uninstall()
    return {
        "overload_rounds": rounds,
        "overload_accepted_healthy": healthy_accepted,
        "overload_accepted_overloaded": accepted - healthy_accepted,
        "overload_shed_ingest": shed_ingest,
        "overload_shed_batch": shed_batch,
        "overload_hard_failures": hard_failures,
        "overload_single_reads_ok": reads_ok,
        "overload_queue_fill": shedder.as_dict()["queue_fill"],
    }


def run() -> dict:
    import tempfile

    result = {
        "nodes": NODES,
        "rank": RANK,
        "groups": GROUPS,
        "group_shards": GROUP_SHARDS,
        "seed": SEED,
        "cpu_count": os.cpu_count() or 1,
        "notices": [],
        "soup_plan": SOUP_PLAN,
        "heartbeat_interval_s": HEARTBEAT_S,
    }
    with tempfile.TemporaryDirectory(prefix="chaos-bench-") as tmp:
        result.update(bench_fault_soup(Path(tmp)))
    result.update(bench_overload_shedding())
    return result


def format_rows(result: dict) -> list:
    injected = result["injected"]
    return [
        ["cores", str(result["cpu_count"])],
        [
            "read availability through the fault soup",
            f"{result['chaos_availability']:.4%}",
        ],
        ["torn reads", str(result["chaos_torn_reads"])],
        [
            "faults injected",
            ", ".join(f"{k}={v}" for k, v in sorted(injected.items()))
            or "none",
        ],
        ["breaker open after kill", f"{result['breaker_open_ms']:.0f} ms"],
        ["breaker close after restart", f"{result['breaker_close_ms']:.0f} ms"],
        [
            "breaker fast failures",
            f"{result['breaker_fast_failures']:,d}",
        ],
        [
            "overload shed (ingest/batch)",
            f"{result['overload_shed_ingest']:,d}/"
            f"{result['overload_shed_batch']:,d}",
        ],
        ["overload hard failures", str(result["overload_hard_failures"])],
        [
            "corrupt checkpoint recovered",
            "yes" if result["checkpoint_recovered"] else "NO",
        ],
    ]


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(benchkit.main("chaos", run, format_rows))
