"""Tests for the process-per-shard serving layer (repro.serving.procs).

Covers the tentpole guarantees:

* **seqlock** — a writer process republishing recognizable constants
  while readers copy slices: no torn read ever observed, versions
  monotone;
* **read parity** — process-store estimates are *bitwise* identical to
  the thread-mode sharded store (and therefore to the single store)
  for the same model;
* **ingest parity** — the same stream through a single process worker
  and a single-store pipeline produces bitwise-identical published
  models (same engine seed, same batch boundaries);
* **checkpointing** — the single-``.npz`` shard format round-trips in
  both directions between thread mode and process mode, versions and
  tombstones included;
* **shared-memory lifecycle** — no leaked ``/dev/shm`` segments after
  a normal shutdown; a killed worker is restarted by the supervisor
  and resumes from its last published slice; SIGTERM mid-epoch rolls
  the transition forward with readers 100% available throughout;
* **membership** — join/leave/compact run over worker processes via
  the two-phase barrier/commit protocol.

Everything here is tier-1: models are tiny and every test carries the
``mp_smoke`` marker so the whole module stays well under the 60 s
budget.
"""

import os
import queue
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.config import DMFSGDConfig
from repro.core.engine import DMFSGDEngine, EngineSpec, null_label_fn
from repro.serving.guard import AdmissionGuard, PairTokenBucketRateLimiter
from repro.serving.ingest import IngestPipeline
from repro.serving.membership import MembershipManager
from repro.serving import procs
from repro.serving.procs import (
    EVAL_AUC_E6,
    EVAL_OBSERVED,
    EVAL_SAMPLES,
    HEARTBEAT_S,
    FactorSegment,
    ProcessShardedIngest,
    ProcessShardedStore,
    WorkerSpec,
    WorkerSupervisor,
    _ShardWorker,
)
from repro.serving.service import PredictionService
from repro.serving.shard import ShardedCoordinateStore
from repro.serving.store import CoordinateStore

pytestmark = pytest.mark.mp_smoke


def make_engine(n=24, seed=3, **config_kwargs):
    config = DMFSGDConfig(neighbors=8, **config_kwargs)
    return DMFSGDEngine(n, null_label_fn, config, rng=seed)


def random_factors(rng, n=21, rank=5):
    return rng.normal(size=(n, rank)), rng.normal(size=(n, rank))


def random_stream(rng, n, k=400):
    sources = rng.integers(0, n, size=k).astype(float)
    targets = (sources + 1 + rng.integers(0, n - 1, size=k)) % n
    values = rng.choice([-1.0, 1.0], size=k)
    return sources, targets, values


def shm_leftovers(store):
    """Names of this store's segments still visible in /dev/shm."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    prefix = store._prefix
    return [f for f in os.listdir("/dev/shm") if prefix in f]


def build_stack(
    n=24,
    shards=2,
    seed=3,
    *,
    batch_size=16,
    refresh_interval=32,
    guards=None,
    monitor=False,
    command_timeout=10.0,
    **spec_kwargs,
):
    engine = make_engine(n, seed=seed)
    store = ProcessShardedStore.create(engine.coordinates, shards=shards)
    spec = WorkerSpec(
        engine=EngineSpec.from_engine(engine, seed=seed),
        batch_size=batch_size,
        refresh_interval=refresh_interval,
        guards=guards,
        **spec_kwargs,
    )
    supervisor = WorkerSupervisor(
        store,
        spec,
        queue_depth=32,
        monitor=monitor,
        command_timeout=command_timeout,
    ).start()
    return store, supervisor, ProcessShardedIngest(store, supervisor)


# ----------------------------------------------------------------------
# seqlock: no torn reads across processes
# ----------------------------------------------------------------------


def _constant_publisher(name, rounds):
    """Child process: republish a constant-filled slice ``rounds`` times."""
    segment = FactorSegment.attach(name)
    try:
        owned, rank = segment._U.shape
        for c in range(1, rounds + 1):
            block = np.full((owned, rank), float(c))
            segment.write_slice(block, block, c + 1)
    finally:
        segment.close()


class TestSeqlock:
    def test_concurrent_writer_never_tears_a_read(self):
        """A writer process floods publishes; every read_slice copy must
        be one constant (a torn read would mix two) with U == V and a
        monotone version."""
        import multiprocessing

        store = ProcessShardedStore.create(
            (np.zeros((40, 6)), np.zeros((40, 6))), shards=1
        )
        try:
            segment = store._state.segments[0]
            ctx = multiprocessing.get_context("fork")
            rounds = 3000
            writer = ctx.Process(
                target=_constant_publisher, args=(segment.name, rounds)
            )
            writer.start()
            failures = []
            last_version = 0
            reads = 0

            def check_read():
                nonlocal last_version, reads
                _, version, U, V = segment.read_slice()
                reads += 1
                if U.size and U.min() != U.max():
                    failures.append("torn U slice")
                if not np.array_equal(U, V):
                    failures.append("U/V mismatch")
                if version < last_version:
                    failures.append("version went backwards")
                last_version = version

            while writer.is_alive() or reads == 0:
                check_read()
                if reads > 200_000:  # pragma: no cover - safety valve
                    break
            writer.join(timeout=10.0)
            check_read()  # the writer is done: this read sees its last publish
            assert failures == []
            assert reads > 0 and last_version == rounds + 1
        finally:
            store.destroy()

    def test_snapshot_cache_reuses_unchanged_shards(self, rng):
        U, V = random_factors(rng)
        store = ProcessShardedStore.create((U, V), shards=3)
        try:
            first = store.snapshot()
            again = store.snapshot()
            for a, b in zip(first.parts, again.parts):
                assert a is b  # same seq -> cached part reused
        finally:
            store.destroy()


# ----------------------------------------------------------------------
# read parity with the thread-mode stores
# ----------------------------------------------------------------------


class TestReadParity:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_bitwise_identical_to_thread_mode(self, rng, shards):
        U, V = random_factors(rng)
        n = U.shape[0]
        threaded = ShardedCoordinateStore((U, V), shards=shards)
        store = ProcessShardedStore.create((U, V), shards=shards)
        try:
            sources = rng.integers(0, n, size=150)
            targets = (sources + 1 + rng.integers(0, n - 1, size=150)) % n
            assert np.array_equal(
                store.snapshot().estimate_pairs(sources, targets),
                threaded.snapshot().estimate_pairs(sources, targets),
            )
            assert np.array_equal(
                store.snapshot().estimate_matrix(),
                threaded.snapshot().estimate_matrix(),
                equal_nan=True,
            )
            assert store.snapshot().estimate(3, 7) == threaded.snapshot().estimate(3, 7)
            assert store.version == threaded.version
        finally:
            store.destroy()

    def test_prediction_service_runs_unchanged(self, rng):
        U, V = random_factors(rng)
        store = ProcessShardedStore.create((U, V), shards=2)
        try:
            service = PredictionService(store, cache_size=8)
            first = service.predict_pair(1, 2)
            again = service.predict_pair(1, 2)
            assert again.cached and again.estimate == first.estimate
        finally:
            store.destroy()


# ----------------------------------------------------------------------
# ingest through worker processes
# ----------------------------------------------------------------------


class TestProcessIngest:
    def test_stream_applies_and_publishes(self, rng):
        n = 24
        store, supervisor, ingest = build_stack(n, shards=2)
        try:
            src, dst, vals = random_stream(rng, n, 600)
            kept = ingest.submit_many(src, dst, vals)
            assert kept == 600
            version_before = store.version
            ingest.publish()
            stats = ingest.stats()
            assert stats.received == 600
            assert stats.applied + stats.deduped == 600
            assert store.version > version_before
            assert ingest.buffered == 0
            payload = ingest.stats_payload()
            assert payload["ingest"]["workers"] == "processes"
            assert len(payload["shards"]) == 2
            for entry in payload["shards"]:
                assert entry["alive"] is True
                assert entry["pid"] is not None
        finally:
            ingest.close()
        assert shm_leftovers(store) == []

    def test_single_shard_bitwise_ingest_parity(self, rng):
        """One worker process vs the single-store pipeline: identical
        engine seed + identical batch boundaries -> the published
        models agree to the last bit (routing, pickling and the shm
        round-trip are invisible in the served numbers)."""
        n, samples = 20, 300
        src, dst, vals = random_stream(rng, n, samples)

        engine_a = make_engine(n, seed=11)
        store_a = CoordinateStore(engine_a.coordinates)
        single = IngestPipeline(
            engine_a, store_a, batch_size=16, refresh_interval=64
        )
        for lo in range(0, samples, 50):
            single.submit_many(
                src[lo : lo + 50], dst[lo : lo + 50], vals[lo : lo + 50]
            )
        single.publish()

        store_b, supervisor, ingest = build_stack(
            n, shards=1, seed=11, batch_size=16, refresh_interval=64
        )
        try:
            for lo in range(0, samples, 50):
                ingest.submit_many(
                    src[lo : lo + 50], dst[lo : lo + 50], vals[lo : lo + 50]
                )
            ingest.publish()
            assert np.array_equal(
                store_a.snapshot().estimate_matrix(),
                store_b.snapshot().estimate_matrix(),
                equal_nan=True,
            )
        finally:
            ingest.close()

    def test_guard_counters_surface_in_stats(self, rng):
        n = 24
        guards = [
            AdmissionGuard(
                pair_limiter=PairTokenBucketRateLimiter(
                    0.001, 1, clock=time.monotonic
                )
            )
            for _ in range(2)
        ]
        store, supervisor, ingest = build_stack(n, shards=2, guards=guards)
        try:
            hammer = np.full(50, 3.0), np.full(50, 7.0), np.ones(50)
            ingest.submit_many(*hammer)
            ingest.flush()
            info = ingest.guard_info()
            assert info["admission"]["rejected"]["pair_rate"] >= 49
            assert info["rejected_total"] >= 49
        finally:
            ingest.close()

    def test_evaluator_facade_merges_worker_windows(self, rng):
        n = 24
        store, supervisor, ingest = build_stack(
            n, shards=2, eval_mode="l2", eval_window=500
        )
        try:
            src, dst, vals = random_stream(rng, n, 300)
            ingest.submit_many(src, dst, np.abs(vals) * 100.0)
            ingest.flush()
            payload = ingest.evaluator.evaluate()
            assert payload["mode"] == "l2"
            assert payload["samples"] > 0
            assert payload["rel_err_p50"] is not None
        finally:
            ingest.close()


class _Clock:
    """``procs.time`` for the test: a hand-stepped ``monotonic``."""

    def __init__(self) -> None:
        self.now = 1000.0

    def monotonic(self) -> float:
        return self.now

    def __getattr__(self, name):
        return getattr(time, name)


class _ScriptedCommands:
    """The worker's command queue: a fixed script, observed between items.

    ``run()`` needs only ``get(timeout=...)`` and :class:`queue.Empty`;
    an ``IDLE`` entry raises the latter, as a heartbeat timeout on an
    empty queue does.  Before handing out each item, ``get`` records
    the header slots the previous item left behind.
    """

    IDLE = None

    def __init__(self, worker, script, step_s=0.0) -> None:
        self.worker = worker
        self.script = list(script)
        self.step_s = step_s
        self.seen = []

    def get(self, timeout):
        assert timeout == HEARTBEAT_S
        worker = self.worker
        header = worker.own_segment.header
        evaluator = worker.pipeline.evaluator
        self.seen.append(
            {
                "observed": int(header[EVAL_OBSERVED]),
                "samples": int(header[EVAL_SAMPLES]),
                "auc_e6": int(header[EVAL_AUC_E6]),
                "true_observed": evaluator.observed,
                "true_samples": len(evaluator.window_arrays()[1]),
                "evaluations": worker.evaluations,
                "now": worker.clock.now,
            }
        )
        worker.clock.now += self.step_s
        item = self.script.pop(0)
        if item is self.IDLE:
            raise queue.Empty
        return item


class TestWorkerEvalRefresh:
    """A worker rescores its evaluator window per heartbeat, not per chunk."""

    @pytest.fixture
    def worker(self, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(procs, "time", clock)
        engine = make_engine(24)
        store = ProcessShardedStore.create(engine.coordinates, shards=1)
        spec = WorkerSpec(
            engine=EngineSpec.from_engine(engine, seed=3),
            batch_size=16,
            refresh_interval=64,
            eval_mode="class",
            eval_window=200,
        )
        worker = _ShardWorker(spec, 0, store.segment_names)
        worker.clock = clock
        worker.evaluations = 0
        evaluate = worker.pipeline.evaluator.evaluate

        def counted():
            worker.evaluations += 1
            return evaluate()

        worker.pipeline.evaluator.evaluate = counted
        worker.exact_evaluate = evaluate
        try:
            yield worker
        finally:
            worker.close_segments()
            store.destroy()

    @staticmethod
    def chunks(rng, count, size=16):
        items = []
        for _ in range(count):
            src, dst, vals = random_stream(rng, 24, size)
            items.append(("chunk", src.astype(int), dst.astype(int), vals))
        return items

    def test_chunks_within_one_heartbeat_rescore_a_bounded_number_of_times(
        self, rng, worker
    ):
        script = self.chunks(rng, 50) + [("flush", 7), ("stop",)]
        commands = _ScriptedCommands(worker, script)
        worker.run(commands)
        after_chunks = commands.seen[1:51]
        # one rescore for the first batch, then none until the ack
        assert after_chunks[-1]["evaluations"] == 1
        for seen in after_chunks:  # counts stay exact on every chunk
            assert seen["observed"] == seen["true_observed"] > 0
            assert seen["samples"] == seen["true_samples"]
        after_flush = commands.seen[51]
        assert after_flush["evaluations"] == 2
        auc = worker.exact_evaluate()["auc"]
        assert auc is not None
        assert after_flush["auc_e6"] == int(auc * 1e6)

    def test_busy_worker_rescores_once_per_heartbeat(self, rng, worker):
        step_s = 0.1
        script = self.chunks(rng, 50) + [("stop",)]
        commands = _ScriptedCommands(worker, script, step_s=step_s)
        worker.run(commands)
        seen = commands.seen
        rescored_at = [
            now["now"]
            for before, now in zip(seen, seen[1:])
            if now["evaluations"] > before["evaluations"]
        ]
        # at most once per heartbeat, and never more than one chunk
        # later than that: the metric lags the counts by < one beat
        assert len(rescored_at) > 1
        for earlier, later in zip(rescored_at, rescored_at[1:]):
            assert HEARTBEAT_S <= later - earlier < HEARTBEAT_S + step_s
        assert seen[-1]["now"] - rescored_at[-1] < HEARTBEAT_S + step_s

    def test_idle_tick_brings_the_metric_up_to_date(self, rng, worker):
        idle = _ScriptedCommands.IDLE
        script = self.chunks(rng, 20) + [idle, idle, ("stop",)]
        commands = _ScriptedCommands(worker, script)
        worker.run(commands)
        stale, fresh, still = commands.seen[20:23]
        assert stale["evaluations"] == 1
        assert fresh["evaluations"] == still["evaluations"] == 2
        auc = worker.exact_evaluate()["auc"]
        assert fresh["auc_e6"] == int(auc * 1e6) != stale["auc_e6"]


# ----------------------------------------------------------------------
# shared-memory lifecycle: shutdown, crash, SIGTERM mid-epoch
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_no_leaked_segments_after_shutdown(self, rng):
        store, supervisor, ingest = build_stack(20, shards=2)
        src, dst, vals = random_stream(rng, 20, 100)
        ingest.submit_many(src, dst, vals)
        ingest.publish()
        assert shm_leftovers(store)  # live while serving
        ingest.close()
        assert shm_leftovers(store) == []
        ingest.close()  # idempotent

    def test_worker_crash_restart_resumes_from_published_state(self, rng):
        n = 24
        store, supervisor, ingest = build_stack(n, shards=2)
        try:
            src, dst, vals = random_stream(rng, n, 400)
            ingest.submit_many(src, dst, vals)
            ingest.publish()
            applied_before = ingest.stats().applied
            matrix_before = store.snapshot().estimate_matrix()
            victim = supervisor.procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            assert supervisor.health_check() == [0]
            assert supervisor.alive(0)
            assert supervisor.restarts[0] == 1
            # published state survived the crash...
            assert np.array_equal(
                store.snapshot().estimate_matrix(),
                matrix_before,
                equal_nan=True,
            )
            # ...and the revived worker keeps applying, counters intact
            ingest.submit_many(src, dst, vals)
            ingest.publish()
            stats = ingest.stats()
            assert stats.applied > applied_before
            assert stats.received == 800
        finally:
            ingest.close()

    def test_sigterm_during_epoch_transition_keeps_readers_available(
        self, rng
    ):
        """Kill a quiesced worker between barrier and commit: the
        transition rolls forward (respawn against the new epoch) and
        concurrent readers never see a single failed or torn query."""
        n = 24
        store, supervisor, ingest = build_stack(
            n, shards=2, command_timeout=3.0
        )
        service = PredictionService(store, cache_size=0)
        failures = []
        answered = [0]
        stop = threading.Event()

        def reader():
            qs = rng.integers(0, n, size=16)
            qt = (qs + 1 + rng.integers(0, n - 1, size=16)) % n
            last_version = 0
            try:
                while not stop.is_set():
                    prediction = service.predict_pairs(qs, qt)
                    if not np.all(np.isfinite(prediction.estimates)):
                        failures.append("non-finite estimate")
                    if prediction.version < last_version:
                        failures.append("version regressed")
                    last_version = prediction.version
                    answered[0] += 1
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            src, dst, vals = random_stream(rng, n, 200)
            ingest.submit_many(src, dst, vals)
            with ingest.membership_barrier():
                # the barrier acked: workers sit quiesced; kill one now
                os.kill(supervisor.procs[0].pid, signal.SIGTERM)
                supervisor.procs[0].join(timeout=5.0)
                table = ingest.engine.coordinates
                U = np.vstack([table.U, table.U.mean(axis=0)[None, :]])
                V = np.vstack([table.V, table.V.mean(axis=0)[None, :]])
                store.replace_model((U, V), tombstones=())
            assert store.n == n + 1
            assert supervisor.restarts[0] == 1  # rolled forward
            assert supervisor.alive(0)
            # the revived worker serves the new epoch
            src2 = np.full(40, 0.0)
            dst2 = np.full(40, float(n))  # the joined node
            assert ingest.submit_many(src2, dst2, np.ones(40)) == 40
            ingest.publish()
        finally:
            stop.set()
            for t in threads:
                t.join()
            ingest.close()
        assert failures == []
        assert answered[0] > 0

    def test_queued_chunks_survive_a_crash(self, rng):
        """Chunks sit in the supervisor's queue, not in the worker:
        killing the worker must not lose what was never dequeued."""
        n = 20
        store, supervisor, ingest = build_stack(n, shards=1)
        try:
            src, dst, vals = random_stream(rng, n, 200)
            ingest.submit_many(src, dst, vals)
            os.kill(supervisor.procs[0].pid, signal.SIGKILL)
            supervisor.procs[0].join(timeout=5.0)
            assert supervisor.health_check() == [0]
            ingest.publish()
            stats = ingest.stats()
            # at most one in-flight chunk (64 samples here) dies with
            # the worker; everything still queued must be applied
            assert stats.applied + stats.deduped >= 100
        finally:
            ingest.close()


# ----------------------------------------------------------------------
# checkpointing: round-trips with the thread-mode format
# ----------------------------------------------------------------------


class TestCheckpointInterop:
    def test_process_to_thread_and_back(self, rng, tmp_path):
        U, V = random_factors(rng, n=18)
        store = ProcessShardedStore.create(
            (U, V), shards=3, versions=[4, 2, 9], tombstones=(5,)
        )
        try:
            path = tmp_path / "proc.npz"
            store.save(path)
            threaded = ShardedCoordinateStore.load(path)
            assert threaded.versions == [4, 2, 9]
            assert threaded.tombstones == (5,)
            assert np.array_equal(
                threaded.snapshot().estimate_matrix(),
                store.snapshot().estimate_matrix(),
                equal_nan=True,
            )
            back = tmp_path / "thread.npz"
            threaded.save(back)
            restored = ProcessShardedStore.load(back)
            try:
                assert restored.versions == [4, 2, 9]
                assert restored.tombstones == (5,)
                assert np.array_equal(
                    restored.snapshot().estimate_matrix(),
                    store.snapshot().estimate_matrix(),
                    equal_nan=True,
                )
            finally:
                restored.destroy()
        finally:
            store.destroy()

    def test_shard_count_mismatch_warns_and_repartitions(self, rng, tmp_path):
        U, V = random_factors(rng, n=16)
        store = ProcessShardedStore.create((U, V), shards=4)
        try:
            path = tmp_path / "four.npz"
            store.save(path)
            with pytest.warns(RuntimeWarning, match="4 shard"):
                restored = ProcessShardedStore.load(path, shards=2)
            try:
                assert restored.shards == 2
                assert np.array_equal(
                    restored.snapshot().estimate_matrix(),
                    store.snapshot().estimate_matrix(),
                    equal_nan=True,
                )
            finally:
                restored.destroy()
        finally:
            store.destroy()


# ----------------------------------------------------------------------
# membership over processes (two-phase barrier/commit)
# ----------------------------------------------------------------------


class TestProcessMembership:
    def test_join_leave_compact_epochs(self, rng):
        n = 20
        store, supervisor, ingest = build_stack(n, shards=2)
        try:
            manager = MembershipManager(
                ingest.engine, store, ingest, rng=5
            )
            src, dst, vals = random_stream(rng, n, 200)
            ingest.submit_many(src, dst, vals)
            joined = manager.join()
            assert joined["node"] == n and store.n == n + 1
            assert store.epoch == 2
            left = manager.leave(n)  # tail leave: compacts right back
            assert left["compacted"] == 1 and store.n == n
            interior = manager.leave(3, compact=False)
            assert interior["node"] == 3
            assert 3 in store.tombstones
            # tombstoned traffic is shed at the gateway router
            shed = ingest.submit_many(
                np.full(10, 3.0), np.full(10, 7.0), np.ones(10)
            )
            assert shed == 0
            # ingest + queries still flow on the final epoch
            ingest.submit_many(src, dst, vals)
            ingest.publish()
            assert ingest.stats().applied > 0
        finally:
            ingest.close()
        assert shm_leftovers(store) == []

    def test_aborted_transition_resumes_workers(self, rng):
        n = 20
        store, supervisor, ingest = build_stack(n, shards=2)
        try:
            manager = MembershipManager(ingest.engine, store, ingest, rng=5)
            with pytest.raises(ValueError, match="active member"):
                manager.join(3)  # already active: barrier then abort
            assert store.epoch == 1  # nothing swapped
            # workers resumed: traffic still applies
            src, dst, vals = random_stream(rng, n, 100)
            ingest.submit_many(src, dst, vals)
            ingest.publish()
            assert ingest.stats().applied > 0
        finally:
            ingest.close()


# ----------------------------------------------------------------------
# review regressions: metric contract + spawn start method
# ----------------------------------------------------------------------


class TestWorkerContracts:
    def test_multi_shard_abw_rejected_loudly(self, rng):
        """The asymmetric update writes target rows other workers own;
        multi-shard process mode must refuse, not silently drop
        (P-1)/P of the target-side gradients."""
        from repro.measurement.metrics import Metric

        config = DMFSGDConfig(neighbors=8)
        engine = DMFSGDEngine(
            20, null_label_fn, config, metric=Metric.ABW, rng=3
        )
        store = ProcessShardedStore.create(engine.coordinates, shards=2)
        try:
            spec = WorkerSpec(engine=EngineSpec.from_engine(engine, seed=3))
            with pytest.raises(ValueError, match="symmetric"):
                WorkerSupervisor(store, spec, monitor=False)
        finally:
            store.destroy()

    def test_single_shard_abw_still_allowed(self, rng):
        """One worker owns every row: ABW is sound at shards=1."""
        from repro.measurement.metrics import Metric

        config = DMFSGDConfig(neighbors=8)
        engine = DMFSGDEngine(
            20, null_label_fn, config, metric=Metric.ABW, rng=3
        )
        store = ProcessShardedStore.create(engine.coordinates, shards=1)
        spec = WorkerSpec(engine=EngineSpec.from_engine(engine, seed=3))
        supervisor = WorkerSupervisor(store, spec, monitor=False).start()
        ingest = ProcessShardedIngest(store, supervisor)
        try:
            src, dst, vals = random_stream(rng, 20, 100)
            ingest.submit_many(src, dst, np.abs(vals) * 50.0)
            ingest.publish()
            assert ingest.stats().applied > 0
        finally:
            ingest.close()

    def test_spawn_start_method_end_to_end(self, rng):
        """The spec's picklability contract, proven: a spawn-context
        worker (clean interpreter, everything crosses via pickle)
        ingests and publishes like a forked one."""
        n = 20
        engine = make_engine(n, seed=5)
        store = ProcessShardedStore.create(engine.coordinates, shards=1)
        spec = WorkerSpec(
            engine=EngineSpec.from_engine(engine, seed=5),
            batch_size=16,
            refresh_interval=32,
            guards=[AdmissionGuard(
                pair_limiter=PairTokenBucketRateLimiter(1e9, 1e9)
            )],
            eval_mode="l2",
            eval_window=200,
        )
        supervisor = WorkerSupervisor(
            store,
            spec,
            monitor=False,
            start_method="spawn",
            command_timeout=60.0,
        ).start()
        ingest = ProcessShardedIngest(store, supervisor)
        try:
            src, dst, vals = random_stream(rng, n, 150)
            ingest.submit_many(src, dst, np.abs(vals) * 50.0)
            version_before = store.version
            ingest.publish()
            assert ingest.stats().applied > 0
            assert store.version > version_before
        finally:
            ingest.close()
