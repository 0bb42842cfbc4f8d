"""Process-per-shard serving: shared-memory slices, true CPU parallelism.

The thread-mode scale-out layer (:mod:`repro.serving.shard`) runs one
admission pipeline per shard, but every SGD ``apply`` serializes on the
GIL — the guarded ingest path tops out near one core no matter how many
shard workers exist.  DMFSGD itself is decentralized by construction:
node ``i`` updates only its own rows ``u_i``/``v_i`` using (possibly
stale) neighbor coordinates, which is exactly the parallelism a
process-per-shard deployment can exploit.  This module is that
deployment:

* :class:`FactorSegment` — one shard's strided factor slice in a
  :class:`multiprocessing.shared_memory.SharedMemory` segment, guarded
  by a **seqlock**: an even/odd sequence counter in the segment header.
  The writer (the shard's worker process) bumps the counter to odd,
  writes the slice, bumps it back to even; readers copy the payload and
  retry if the counter moved or was odd — lock-free, torn-read-free
  snapshots without any cross-process mutex;
* :class:`_ShardWorker` (child process) — owns shard ``s``'s rows
  authoritatively and runs the **full** per-shard pipeline
  (:class:`~repro.serving.guard.AdmissionGuard` →
  :class:`~repro.serving.ingest.IngestPipeline` → SGD apply) on its own
  :class:`~repro.core.engine.DMFSGDEngine`, rebuilt in-process from a
  picklable :class:`~repro.core.engine.EngineSpec`.  Rows of *other*
  shards are stale mirrors, refreshed from their segments whenever
  their published version moves — the paper's asynchrony model (in-
  flight messages carry slightly stale coordinates), now across
  processes;
* :class:`WorkerSupervisor` — spawns the workers, feeds them over
  bounded :class:`multiprocessing.Queue` chunks, health-checks them
  (liveness + heartbeat), restarts a crashed worker against the same
  segments (its published rows survive in shared memory — restart loses
  at most one ``refresh_interval`` of unpublished steps), and unlinks
  every segment on shutdown;
* :class:`ProcessShardedStore` — the gateway-side read facade: seqlock-
  consistent per-shard reads assembled into the *same*
  :class:`~repro.serving.shard.ShardSnapshot` /
  :class:`~repro.serving.shard.ShardedSnapshot` composites the thread
  stack serves, so every estimate is **bitwise identical** to thread
  mode for the same model, and
  :class:`~repro.serving.service.PredictionService` works unchanged.
  Checkpoints round-trip with the single-``.npz`` shard format of
  :class:`~repro.serving.shard.ShardedCoordinateStore`;
* :class:`ProcessShardedIngest` — the gateway-side submit facade with
  the exact :class:`~repro.serving.shard.ShardedIngest` surface
  (``submit``/``submit_many``/``flush``/``publish``/``stats_payload``/
  ``membership_barrier``/...), so the HTTP layer and the membership
  manager work unchanged on top of processes.

Consistency model
-----------------
Every reader builds its composite from one per-shard seqlock read each;
each slice is internally consistent at some published version, and
cross-shard staleness is bounded by each worker's ``refresh_interval``
— the same bound thread mode grants.  Counters (applied, rejected,
queue backlogs) live in the segment headers as plain aligned int64
slots: they are monotonic gauges, racy by a single increment at most,
and never participate in the seqlock.

Membership epochs are a **two-phase command**: phase one (``barrier``)
makes every worker drain its queue, flush its batch buffer and publish
— after the acks, shared memory *is* the model; phase two (``commit``)
hands every worker the new epoch's segment names, each worker
re-attaches and resizes its engine, and the gateway then atomically
swaps its read tuple.  Readers keep serving the old epoch's segments
throughout (they are unlinked, not unmapped, until shutdown), so
availability is 100% across a transition — and across a worker dying
mid-transition, which the supervisor repairs by respawning the worker
against the new epoch.
"""

from __future__ import annotations

import os
import queue as stdlib_queue
import secrets
import threading
import time
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.coordinates import CoordinateTable
from repro.core.engine import EngineSpec
from repro.obs.metrics import BUCKET_COUNT
from repro.serving.guard import (
    AdaptiveGuardTuner,
    AdmissionGuard,
    OnlineEvaluator,
)
from repro.serving.ingest import IngestPipeline, IngestStats
from repro.serving.plane import RoutedIngestBase, carried_versions
from repro.serving.shard import ShardedCoordinateStore, ShardedSnapshot, ShardSnapshot
from repro.serving.store import atomic_savez

__all__ = [
    "FactorSegment",
    "WorkerSpec",
    "WorkerSupervisor",
    "ProcessShardedStore",
    "ProcessShardedIngest",
]


# ----------------------------------------------------------------------
# segment layout
# ----------------------------------------------------------------------

#: int64 slots at the head of every segment, before the U/V payload
HEADER_SLOTS = 160

# seqlock + layout (written by the creator, layout never changes)
SEQ = 0  # seqlock counter: even = stable, odd = write in progress
VERSION = 1  # shard publish version
N = 2  # global node count of the epoch
SHARDS = 3
SHARD = 4
RANK = 5
OWNED = 6  # rows this shard owns (= len(range(shard, n, shards)))
EPOCH = 7
# worker-owned counters (monotonic gauges; never under the seqlock)
RECEIVED = 8
APPLIED = 9
DEDUPED = 10
CLIPPED = 11
REJECTED_GUARD = 12
DROPPED_NAN = 13
BATCHES = 14
PUBLISHES = 15
SINCE_PUBLISH = 16
BUFFERED = 17
CONSUMED = 18  # samples the worker has taken off its queue
HEARTBEAT = 19
LAST_ACK = 20  # last completed command token
REJ_RATE_LIMIT = 21
REJ_PAIR_RATE = 22
REJ_OUTLIER = 23
REJ_NOISE_BAND = 24
REJ_OTHER = 25
GUARD_RECEIVED = 26
GUARD_ADMITTED = 27
EVAL_SAMPLES = 28
EVAL_OBSERVED = 29
EVAL_AUC_E6 = 30  # auc * 1e6, -1 = undefined
EVAL_P50_E6 = 31  # rel_err quantiles * 1e6, -1 = undefined
EVAL_P90_E6 = 32
EVAL_P99_E6 = 33
STEP_CLIP_E9 = 34  # adaptive step clip * 1e9, -1 = none
SIGMA_E6 = 35  # adaptive sigma * 1e6, -1 = none
ADAPTIVE_UPDATES = 36
PUBLISHED_AT_US = 37  # time.monotonic() * 1e6 at last publish
PID = 38

# telemetry (PR 10): per-worker latency histograms on the shared
# bucket ladder of repro.obs.metrics (microsecond bounds 2**i), plus a
# small span ring so traces cross the process boundary without IPC.
# Observations past the top bound land only in the COUNT slot; the
# scrape derives +Inf as count - sum(buckets).
H_QUEUE_BUCKETS = 48  # BUCKET_COUNT slots: admit-to-dequeue wait
H_QUEUE_COUNT = H_QUEUE_BUCKETS + BUCKET_COUNT  # 72
H_QUEUE_SUM_US = H_QUEUE_COUNT + 1  # 73
H_APPLY_BUCKETS = H_QUEUE_SUM_US + 1  # 74: dequeue-to-applied latency
H_APPLY_COUNT = H_APPLY_BUCKETS + BUCKET_COUNT  # 98
H_APPLY_SUM_US = H_APPLY_COUNT + 1  # 99
TRACE_NEXT = 100  # monotone write cursor into the span ring
TRACE_RING = 101  # TRACE_ENTRIES entries of TRACE_FIELDS slots each
TRACE_ENTRIES = 8
#: per entry: accept, admit, queue, apply, publish (all µs),
#: samples, span_id — span_id is written *last* and re-read by the
#: harvester, so a torn entry is skipped rather than misread
TRACE_FIELDS = 7

#: the worker loop's ``commands.get`` timeout: an idle worker ticks its
#: HEARTBEAT slot (and rescores its evaluator window) this often, and a
#: busy one rescores its window at most this often
HEARTBEAT_S = 0.25

#: slots [COUNTERS_FROM:] are carried over verbatim into a new epoch's
#: segments, so restarts and epoch swaps never rewind a counter
COUNTERS_FROM = 8

_REASON_SLOTS = {
    "rate_limit": REJ_RATE_LIMIT,
    "pair_rate": REJ_PAIR_RATE,
    "outlier": REJ_OUTLIER,
    "noise_band": REJ_NOISE_BAND,
}

#: cumulative *totals* (never gauges) — when a re-partition drops
#: shards, these slots of the retired segments are folded into shard
#: 0's new segment so aggregated stats stay cumulative across topology
#: changes; gauges (SINCE_PUBLISH, BUFFERED, HEARTBEAT, eval windows,
#: adaptive levels, PID) describe a live worker and are never folded
_ADDITIVE_SLOTS = (
    RECEIVED,
    APPLIED,
    DEDUPED,
    CLIPPED,
    REJECTED_GUARD,
    DROPPED_NAN,
    BATCHES,
    PUBLISHES,
    CONSUMED,
    REJ_RATE_LIMIT,
    REJ_PAIR_RATE,
    REJ_OUTLIER,
    REJ_NOISE_BAND,
    REJ_OTHER,
    GUARD_RECEIVED,
    GUARD_ADMITTED,
    EVAL_OBSERVED,
    ADAPTIVE_UPDATES,
    # histogram buckets/counts/sums are cumulative totals too, so a
    # merge folds them and the aggregated quantiles stay monotone; the
    # trace ring is *not* additive and is never folded
) + tuple(range(H_QUEUE_BUCKETS, H_APPLY_SUM_US + 1))


def _owned_rows(shard: int, shards: int, n: int) -> int:
    return len(range(shard, n, shards))


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment as a non-owner.

    CPython registers a segment with the per-process resource tracker
    only on *create*, so a plain attach is already untracked: the
    creator (the gateway-side store) remains the single owner that
    unlinks, and the tracker doubles as crash insurance — if the
    gateway dies without :meth:`ProcessShardedStore.destroy`, its
    tracker unlinks the registered segments at exit.
    """
    return shared_memory.SharedMemory(name=name)


class FactorSegment:
    """One shard's factor slice + header in a shared-memory segment.

    Layout: ``HEADER_SLOTS`` aligned int64 slots, then the ``U`` slice
    and the ``V`` slice as contiguous float64 ``(owned, rank)`` blocks.
    The writer side (:meth:`write_slice`) and the reader side
    (:meth:`read_slice`) implement the seqlock protocol described in
    the module docstring; counters are plain slot reads/writes.
    """

    def __init__(self, shm: shared_memory.SharedMemory, *, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self.name = shm.name
        self._header = np.ndarray(
            (HEADER_SLOTS,), dtype=np.int64, buffer=shm.buf
        )
        owned = int(self._header[OWNED])
        rank = int(self._header[RANK])
        base = HEADER_SLOTS * 8
        block = owned * rank * 8
        self._U = np.ndarray(
            (owned, rank), dtype=np.float64, buffer=shm.buf, offset=base
        )
        self._V = np.ndarray(
            (owned, rank),
            dtype=np.float64,
            buffer=shm.buf,
            offset=base + block,
        )

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str,
        *,
        shard: int,
        shards: int,
        n: int,
        rank: int,
        version: int = 1,
        epoch: int = 1,
    ) -> "FactorSegment":
        """Allocate and zero-initialize a segment (creator side)."""
        owned = _owned_rows(shard, shards, n)
        size = HEADER_SLOTS * 8 + 2 * owned * rank * 8
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        header = np.ndarray((HEADER_SLOTS,), dtype=np.int64, buffer=shm.buf)
        header[:] = 0
        header[VERSION] = int(version)
        header[N] = int(n)
        header[SHARDS] = int(shards)
        header[SHARD] = int(shard)
        header[RANK] = int(rank)
        header[OWNED] = owned
        header[EPOCH] = int(epoch)
        header[EVAL_AUC_E6] = -1
        header[EVAL_P50_E6] = -1
        header[EVAL_P90_E6] = -1
        header[EVAL_P99_E6] = -1
        header[STEP_CLIP_E9] = -1
        header[SIGMA_E6] = -1
        header[PUBLISHED_AT_US] = int(time.monotonic() * 1e6)
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "FactorSegment":
        """Attach to an existing segment (worker / restarted gateway)."""
        return cls(_attach_untracked(name), owner=False)

    def close(self) -> None:
        """Drop the mapping (the segment itself survives)."""
        # the ndarray views export the mmap's buffer; they must be
        # released before close() or the memoryview refuses to die
        self._header = self._U = self._V = None  # type: ignore[assignment]
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - defensive
            pass

    def unlink(self) -> None:
        """Remove the segment name (mappings stay valid until closed)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    # -- header accessors ----------------------------------------------

    @property
    def header(self) -> np.ndarray:
        """The int64 header slots (live view)."""
        return self._header

    def slot(self, index: int) -> int:
        """One aligned int64 header slot (atomic single-word read)."""
        return int(self._header[index])

    # -- seqlock protocol ----------------------------------------------

    def write_slice(
        self, U_s: np.ndarray, V_s: np.ndarray, version: int
    ) -> None:
        """Publish a new slice (writer side; single writer per segment)."""
        header = self._header
        header[SEQ] += 1  # odd: readers back off
        self._U[:] = U_s
        self._V[:] = V_s
        header[VERSION] = int(version)
        header[PUBLISHED_AT_US] = int(time.monotonic() * 1e6)
        header[SEQ] += 1  # even again: slice is stable

    def read_slice(self) -> Tuple[int, int, np.ndarray, np.ndarray]:
        """Seqlock-consistent ``(seq, version, U, V)`` copy (reader side)."""
        header = self._header
        spins = 0
        while True:
            seq = int(header[SEQ])
            if seq % 2 == 0:
                version = int(header[VERSION])
                U = np.array(self._U, dtype=float, copy=True)
                V = np.array(self._V, dtype=float, copy=True)
                if int(header[SEQ]) == seq:
                    return seq, version, U, V
            spins += 1
            if spins % 1000 == 0:  # pragma: no cover - contention path
                time.sleep(0.0001)  # writer is mid-publish; yield

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FactorSegment(name={self.name!r}, "
            f"shard={self.slot(SHARD)}/{self.slot(SHARDS)}, "
            f"version={self.slot(VERSION)})"
        )


# ----------------------------------------------------------------------
# worker spec (picklable recipe for a shard worker process)
# ----------------------------------------------------------------------


@dataclass
class WorkerSpec:
    """Everything a shard worker needs to rebuild its pipeline.

    All fields must be picklable: the spec crosses the process boundary
    at spawn (and again at every restart).  Guards are per-shard
    stateful objects, so ``guards`` carries one *fresh* instance per
    shard (or ``None`` for an unguarded deployment); evaluators and
    adaptive tuners contain locks and are rebuilt from their parameters
    inside the worker instead.
    """

    engine: EngineSpec
    classify: Optional[Callable[[np.ndarray], np.ndarray]] = None
    batch_size: int = 256
    refresh_interval: int = 1000
    mode: str = "guarded"
    step_clip: Optional[float] = None
    guards: Optional[Sequence[Optional[AdmissionGuard]]] = None
    eval_mode: Optional[str] = None
    eval_window: int = 2000
    adaptive: bool = False


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------


class _WorkerStoreView:
    """The store protocol a worker's :class:`IngestPipeline` publishes to."""

    def __init__(self, worker: "_ShardWorker") -> None:
        self._worker = worker

    @property
    def n(self) -> int:
        return self._worker.engine.n

    @property
    def version(self) -> int:
        return self._worker.own_segment.slot(VERSION)

    def publish(self, coordinates: CoordinateTable) -> None:
        self._worker.publish_own(coordinates)


class _ShardWorker:
    """Shard-owning pipeline consumer living in a child process.

    Bootstraps its engine from the *segments* (not from pickled
    factors), so a restarted worker resumes from the last published
    state — the shared memory is the durable truth between restarts.
    """

    def __init__(
        self, spec: WorkerSpec, shard: int, names: Sequence[str]
    ) -> None:
        self.spec = spec
        self.shard = int(shard)
        self.segments: List[FactorSegment] = []
        self._attach(names)
        self.own_segment = self.segments[self.shard]
        header = self.own_segment.header
        n = int(header[N])
        self.shards = int(header[SHARDS])
        self.engine = spec.engine.build(n)
        U, V, versions = self._read_dense()
        self.engine.coordinates = CoordinateTable.from_arrays(U, V)
        self._mirror_versions = versions
        guard = spec.guards[self.shard] if spec.guards else None
        evaluator = (
            OnlineEvaluator(spec.eval_mode, window=spec.eval_window)
            if spec.eval_mode
            else None
        )
        adaptive = (
            AdaptiveGuardTuner(evaluator)
            if spec.adaptive and evaluator is not None
            else None
        )
        self.pipeline = IngestPipeline(
            self.engine,
            _WorkerStoreView(self),  # type: ignore[arg-type]
            classify=spec.classify,
            batch_size=spec.batch_size,
            refresh_interval=spec.refresh_interval,
            mode=spec.mode,
            step_clip=spec.step_clip,
            guard=guard,
            evaluator=evaluator,
            adaptive=adaptive,
        )
        # counter bases: a restarted worker's fresh pipeline must not
        # rewind the totals its predecessor accumulated in the header
        self._bases = {
            slot: int(header[slot])
            for slot in (
                RECEIVED,
                APPLIED,
                DEDUPED,
                CLIPPED,
                REJECTED_GUARD,
                DROPPED_NAN,
                BATCHES,
                PUBLISHES,
                REJ_RATE_LIMIT,
                REJ_PAIR_RATE,
                REJ_OUTLIER,
                REJ_NOISE_BAND,
                REJ_OTHER,
                GUARD_RECEIVED,
                GUARD_ADMITTED,
                EVAL_OBSERVED,
                ADAPTIVE_UPDATES,
            )
        }
        # batch count and clock at the last window rescore (AUC or
        # rel-err quantiles): see _sync_counters
        self._eval_batches = -1
        self._eval_at = float("-inf")
        # spans applied but not yet published: flushed into the trace
        # ring by publish_own (lives only in this worker; a crash loses
        # at most the unpublished spans, like the unpublished steps)
        self._pending_spans: List[Tuple[int, int, int, int, int, int]] = []
        header[PID] = os.getpid()

    # -- segment plumbing ----------------------------------------------

    def _attach(self, names: Sequence[str]) -> None:
        self.segments = [FactorSegment.attach(name) for name in names]

    def _reattach(self, names: Sequence[str]) -> None:
        old = self.segments
        self._attach(names)
        self.own_segment = self.segments[self.shard]
        self.own_segment.header[PID] = os.getpid()
        for segment in old:
            segment.close()

    def close_segments(self) -> None:
        for segment in self.segments:
            segment.close()
        self.segments = []

    def _read_dense(self) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """Seqlock-read every shard's slice into dense ``(U, V)``."""
        header = self.segments[0].header
        n, rank, P = int(header[N]), int(header[RANK]), self.shards
        U = np.empty((n, rank), dtype=float)
        V = np.empty_like(U)
        versions: List[int] = []
        for s, segment in enumerate(self.segments):
            _, version, U_s, V_s = segment.read_slice()
            U[s::P] = U_s
            V[s::P] = V_s
            versions.append(version)
        return U, V, versions

    def _refresh_mirrors(self) -> None:
        """Pull other shards' newly published rows into the engine.

        One int read per shard decides staleness; only a moved version
        pays the seqlock copy.  This is the cross-process analogue of
        thread mode's shared engine — staleness bounded by each shard's
        ``refresh_interval`` instead of zero, exactly the paper's
        asynchrony budget.
        """
        P = self.shards
        table = self.engine.coordinates
        for s, segment in enumerate(self.segments):
            if s == self.shard:
                continue
            if segment.slot(VERSION) != self._mirror_versions[s]:
                _, version, U_s, V_s = segment.read_slice()
                table.U[s::P] = U_s
                table.V[s::P] = V_s
                self._mirror_versions[s] = version

    def publish_own(self, coordinates: CoordinateTable) -> None:
        """Seqlock-publish this shard's slice; then refresh mirrors."""
        P = self.shards
        segment = self.own_segment
        self.own_segment.write_slice(
            coordinates.U[self.shard :: P],
            coordinates.V[self.shard :: P],
            segment.slot(VERSION) + 1,
        )
        if self._pending_spans:
            publish_us = int(time.monotonic() * 1e6)
            for entry in self._pending_spans:
                self._ring_write(entry, publish_us)
            self._pending_spans = []
        self._refresh_mirrors()

    # -- telemetry (histogram slots + the span ring) -------------------

    def _observe(self, buckets_at: int, count_at: int, sum_at: int, us: int) -> None:
        """One latency observation into a header histogram triple."""
        header = self.own_segment.header
        # (us - 1).bit_length() == bisect_left over the 2**i µs ladder
        index = (us - 1).bit_length() if us > 0 else 0
        if index < BUCKET_COUNT:
            header[buckets_at + index] += 1
        header[count_at] += 1
        header[sum_at] += us

    def _ring_write(
        self, entry: Tuple[int, int, int, int, int, int], publish_us: int
    ) -> None:
        """Commit one completed span into the segment's trace ring."""
        header = self.own_segment.header
        span_id, accept_us, admit_us, queue_us, apply_us, samples = entry
        slot = TRACE_RING + (
            int(header[TRACE_NEXT]) % TRACE_ENTRIES
        ) * TRACE_FIELDS
        header[slot + 6] = 0  # invalidate while the fields change
        header[slot + 0] = accept_us
        header[slot + 1] = admit_us
        header[slot + 2] = queue_us
        header[slot + 3] = apply_us
        header[slot + 4] = publish_us
        header[slot + 5] = samples
        header[slot + 6] = span_id  # commit: the harvester keys on this
        header[TRACE_NEXT] += 1

    def _apply_traced(self, meta, sources, targets, values) -> None:
        """Apply one instrumented chunk, stamping stages as it goes."""
        span_id, accept_us, admit_us = meta
        dequeue_us = int(time.monotonic() * 1e6)
        self._observe(
            H_QUEUE_BUCKETS,
            H_QUEUE_COUNT,
            H_QUEUE_SUM_US,
            max(0, dequeue_us - admit_us),
        )
        version_before = self.own_segment.slot(VERSION)
        try:
            self.pipeline.submit_valid(sources, targets, values)
        finally:
            done_us = int(time.monotonic() * 1e6)
            self._observe(
                H_APPLY_BUCKETS,
                H_APPLY_COUNT,
                H_APPLY_SUM_US,
                max(0, done_us - dequeue_us),
            )
            if span_id:
                entry = (
                    span_id,
                    accept_us,
                    admit_us,
                    dequeue_us,
                    done_us,
                    int(values.size),
                )
                if self.own_segment.slot(VERSION) != version_before:
                    # this chunk triggered its own publish: publish_own
                    # already flushed earlier pendings, so ring-commit
                    # the entry directly with the post-apply stamp
                    self._ring_write(entry, done_us)
                else:
                    self._pending_spans.append(entry)

    # -- stats sync ----------------------------------------------------

    def _sync_counters(self, *, lazy: bool = False) -> None:
        """Copy pipeline/guard/evaluator state into the header slots.

        Counts are exact on every call.  The window metric (AUC or
        rel-err quantiles) is a rescore of the whole evaluator window,
        so it is recomputed only when batches moved since the last
        rescore, and a ``lazy`` call (the per-chunk one) also waits
        until :data:`HEARTBEAT_S` has passed since then.
        """
        header = self.own_segment.header
        bases = self._bases
        stats = self.pipeline.stats()
        header[RECEIVED] = bases[RECEIVED] + stats.received
        header[APPLIED] = bases[APPLIED] + stats.applied
        header[DEDUPED] = bases[DEDUPED] + stats.deduped
        header[CLIPPED] = bases[CLIPPED] + stats.clipped
        header[REJECTED_GUARD] = bases[REJECTED_GUARD] + stats.rejected_guard
        header[DROPPED_NAN] = bases[DROPPED_NAN] + stats.dropped_nan
        header[BATCHES] = bases[BATCHES] + stats.batches
        header[PUBLISHES] = bases[PUBLISHES] + stats.publishes
        header[SINCE_PUBLISH] = stats.since_publish
        header[BUFFERED] = self.pipeline.buffered
        guard = self.pipeline.guard
        if guard is not None:
            header[GUARD_RECEIVED] = bases[GUARD_RECEIVED] + guard.received
            header[GUARD_ADMITTED] = bases[GUARD_ADMITTED] + guard.admitted
            other = 0
            for reason, count in guard.rejected.items():
                slot = _REASON_SLOTS.get(reason)
                if slot is None:
                    other += count
                else:
                    header[slot] = bases[slot] + count
            header[REJ_OTHER] = bases[REJ_OTHER] + other
        adaptive = self.pipeline.adaptive
        if adaptive is not None:
            header[ADAPTIVE_UPDATES] = (
                bases[ADAPTIVE_UPDATES] + adaptive.updates
            )
            header[STEP_CLIP_E9] = (
                int(adaptive.step_clip * 1e9)
                if adaptive.step_clip is not None
                else -1
            )
            header[SIGMA_E6] = (
                int(adaptive.sigma * 1e6) if adaptive.sigma is not None else -1
            )
        evaluator = self.pipeline.evaluator
        if evaluator is None:
            return
        observed = evaluator.observed
        header[EVAL_SAMPLES] = min(observed, evaluator.window)
        header[EVAL_OBSERVED] = bases[EVAL_OBSERVED] + observed
        if stats.batches != self._eval_batches and (
            not lazy or time.monotonic() - self._eval_at >= HEARTBEAT_S
        ):
            self._eval_batches = stats.batches
            self._eval_at = time.monotonic()
            payload = evaluator.evaluate()
            if evaluator.mode == "class":
                auc = payload.get("auc")
                header[EVAL_AUC_E6] = -1 if auc is None else int(auc * 1e6)
            else:
                for key, slot in (
                    ("rel_err_p50", EVAL_P50_E6),
                    ("rel_err_p90", EVAL_P90_E6),
                    ("rel_err_p99", EVAL_P99_E6),
                ):
                    value = payload.get(key)
                    header[slot] = -1 if value is None else int(value * 1e6)

    def _ack(self, token: int) -> None:
        self._sync_counters()
        self.own_segment.header[LAST_ACK] = int(token)

    # -- the command loop ----------------------------------------------

    def run(self, commands: "multiprocessing.queues.Queue") -> None:
        while True:
            # NOT hoisted out of the loop: a "commit" swaps the epoch's
            # segments underneath us, and a header view cached across
            # that swap would write into an unmapped old segment
            header = self.own_segment.header
            try:
                item = commands.get(timeout=HEARTBEAT_S)
            except stdlib_queue.Empty:
                header[HEARTBEAT] += 1
                self._sync_counters()  # idle: bring the metric up to date
                continue
            header[HEARTBEAT] += 1
            kind = item[0]
            if kind == "chunk":
                sources, targets, values = item[1:4]
                meta = item[4] if len(item) > 4 else None
                self._refresh_mirrors()
                try:
                    if meta is not None:
                        self._apply_traced(meta, sources, targets, values)
                    else:
                        self.pipeline.submit_valid(sources, targets, values)
                finally:
                    header[CONSUMED] += int(values.size)
                    self._sync_counters(lazy=True)
            elif kind == "flush":
                self.pipeline.flush()
                self._ack(item[1])
            elif kind in ("publish", "barrier"):
                # barrier is phase one of an epoch transition: after
                # this ack, shared memory holds the worker's full state
                self.pipeline.publish()
                self._ack(item[1])
            elif kind == "commit":
                _, token, names = item
                self._reattach(names)
                U, V, versions = self._read_dense()
                self.engine.resize_model(U, V)
                self._mirror_versions = versions
                self._ack(token)
            elif kind == "resume":
                self._ack(item[1])  # aborted transition: nothing changed
            elif kind == "stop":
                self.pipeline.publish()  # leave shm == final state
                self._sync_counters()
                return
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown worker command {kind!r}")


# ----------------------------------------------------------------------
# gateway-side store facade
# ----------------------------------------------------------------------


class _EpochState:
    """One epoch's segments + per-shard snapshot cache (swapped atomically)."""

    __slots__ = ("segments", "names", "epoch", "cache")

    def __init__(
        self,
        segments: Tuple[FactorSegment, ...],
        names: Tuple[str, ...],
        epoch: int,
    ) -> None:
        self.segments = segments
        self.names = names
        self.epoch = epoch
        # per-shard (seq, ShardSnapshot); racy rebuilds are idempotent
        self.cache: List[Optional[Tuple[int, ShardSnapshot]]] = [
            None for _ in segments
        ]


class ProcessShardedStore:
    """Seqlock-reading composite store over per-shard shm segments.

    Mirrors the read API of
    :class:`~repro.serving.shard.ShardedCoordinateStore` — readers call
    :meth:`snapshot` and get the same immutable
    :class:`~repro.serving.shard.ShardedSnapshot` composite the thread
    stack serves (same gather, same einsum kernel, bitwise-identical
    estimates for the same model), so
    :class:`~repro.serving.service.PredictionService`,
    :class:`~repro.serving.shard.RequestCoalescer` and
    :class:`~repro.serving.guard.BackgroundCheckpointer` work
    unchanged.  Per-shard snapshots are cached keyed on the seqlock
    counter, so an unchanged shard costs two int reads, not a copy.

    The store owns segment *lifecycle*: :meth:`create` allocates the
    epoch's segments, epoch transitions retire the old set (unlinked
    immediately — the name disappears from ``/dev/shm`` — but kept
    mapped until :meth:`destroy` so concurrent readers never touch
    unmapped memory), and :meth:`destroy` closes and unlinks
    everything.

    Thread-safety: reads are lock-free against one atomically-swapped
    epoch state; writers (epoch swap, tombstones) serialize on an
    internal lock.
    """

    def __init__(
        self,
        state: _EpochState,
        prefix: str,
        *,
        tombstones: Sequence[int] = (),
    ) -> None:
        self._state = state
        self._prefix = prefix
        self._lock = threading.Lock()
        self._retired: List[FactorSegment] = []
        self._tombstones: Tuple[int, ...] = tuple(
            sorted(int(t) for t in tombstones)
        )
        self._destroyed = False
        #: shard count the factors were last re-partitioned *from*
        #: (checkpoint reload mismatch, or a live re-stride); surfaced
        #: in ``/stats`` so a topology change is visible after restart
        self.repartitioned_from: Optional[int] = None
        #: set True by :meth:`load` when the primary checkpoint was bad
        #: and the rotated last-good copy was restored instead
        self.recovered_from_fallback = False
        # wired by WorkerSupervisor: routes replace_model through the
        # two-phase worker commit instead of a gateway-only swap
        self._committer: Optional[Callable] = None

    # -- construction --------------------------------------------------

    @staticmethod
    def _unpack(
        coordinates: Union[CoordinateTable, Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        if isinstance(coordinates, CoordinateTable):
            U, V = coordinates.U, coordinates.V
        else:
            U, V = coordinates
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        if U.shape != V.shape or U.ndim != 2:
            raise ValueError(
                f"U and V must be matching 2-D arrays, got {U.shape} "
                f"and {V.shape}"
            )
        return U, V

    @classmethod
    def create(
        cls,
        coordinates: Union[CoordinateTable, Tuple[np.ndarray, np.ndarray]],
        *,
        shards: int,
        versions: Optional[Sequence[int]] = None,
        tombstones: Sequence[int] = (),
    ) -> "ProcessShardedStore":
        """Allocate epoch-1 segments and write the initial slices."""
        U, V = cls._unpack(coordinates)
        n, rank = U.shape
        shards = int(shards)
        if not 1 <= shards <= n:
            raise ValueError(f"shards must be in [1, n={n}], got {shards}")
        if versions is None:
            versions = [1] * shards
        elif len(versions) != shards:
            raise ValueError(
                f"got {len(versions)} versions for {shards} shards"
            )
        if any(t < 0 or t >= n for t in tombstones):
            raise ValueError(f"tombstones out of range for n={n}")
        # short names: macOS caps POSIX shm names around 31 chars
        prefix = f"rp{os.getpid():x}{secrets.token_hex(3)}"
        segments = []
        names = []
        for s in range(shards):
            name = f"{prefix}e1s{s}"
            segment = FactorSegment.create(
                name,
                shard=s,
                shards=shards,
                n=n,
                rank=rank,
                version=int(versions[s]),
                epoch=1,
            )
            segment.write_slice(U[s::shards], V[s::shards], int(versions[s]))
            segments.append(segment)
            names.append(name)
        state = _EpochState(tuple(segments), tuple(names), 1)
        return cls(state, prefix, tombstones=tombstones)

    @classmethod
    def load(
        cls, path: "str | object", *, shards: Optional[int] = None
    ) -> "ProcessShardedStore":
        """Restore from any sharded / single-store ``.npz`` checkpoint.

        Delegates the format (including the shard-count-mismatch
        re-partitioning warning) to
        :meth:`~repro.serving.shard.ShardedCoordinateStore.load`, so
        thread-mode and process-mode checkpoints are interchangeable.
        """
        loaded = ShardedCoordinateStore.load(path, shards=shards)
        U, V = loaded.as_full_arrays()
        store = cls.create(
            (U, V),
            shards=loaded.shards,
            versions=loaded.versions,
            tombstones=loaded.tombstones,
        )
        store.repartitioned_from = loaded.repartitioned_from
        store.recovered_from_fallback = loaded.recovered_from_fallback
        return store

    # -- reads (lock-free) ---------------------------------------------

    def shard_snapshot(self, shard: int) -> ShardSnapshot:
        """Seqlock-consistent snapshot of one shard (cached by seq)."""
        state = self._state
        segment = state.segments[shard]
        cached = state.cache[shard]
        seq_now = segment.slot(SEQ)
        if cached is not None and cached[0] == seq_now and seq_now % 2 == 0:
            return cached[1]
        seq, version, U_s, V_s = segment.read_slice()
        header = segment.header
        part = ShardSnapshot(
            shard, len(state.segments), int(header[N]), version, U_s, V_s
        )
        state.cache[shard] = (seq, part)
        return part

    def snapshot(self) -> ShardedSnapshot:
        """The composite snapshot (per-shard seqlock reads, cached)."""
        state = self._state
        return ShardedSnapshot(
            tuple(
                self.shard_snapshot(s) for s in range(len(state.segments))
            )
        )

    @property
    def shards(self) -> int:
        """Number of partitions (one segment + worker per shard)."""
        return len(self._state.segments)

    @property
    def n(self) -> int:
        """Number of nodes in the currently served epoch."""
        return self._state.segments[0].slot(N)

    @property
    def rank(self) -> int:
        """Coordinate dimension ``r``."""
        return self._state.segments[0].slot(RANK)

    @property
    def epoch(self) -> int:
        """Current membership epoch (starts at 1, bumps per swap)."""
        return self._state.epoch

    @property
    def version(self) -> int:
        """Sum of per-shard versions (monotone under any publish)."""
        return sum(seg.slot(VERSION) for seg in self._state.segments)

    @property
    def versions(self) -> List[int]:
        """Per-shard publish versions (plain header reads)."""
        return [seg.slot(VERSION) for seg in self._state.segments]

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """The current epoch's segment names (worker attach targets)."""
        return self._state.names

    def as_full_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The reassembled dense ``(U, V)`` of the current snapshots."""
        return self.snapshot()._dense_view()

    # -- tombstones ----------------------------------------------------

    @property
    def tombstones(self) -> Tuple[int, ...]:
        """Node ids marked departed (sorted; lock-free read)."""
        return self._tombstones

    def set_tombstones(self, tombstones: Sequence[int]) -> None:
        """Replace the departed-node set (membership bookkeeping)."""
        marks = tuple(sorted(int(t) for t in tombstones))
        if any(t < 0 or t >= self.n for t in marks):
            raise ValueError(f"tombstones out of range for n={self.n}")
        with self._lock:
            self._tombstones = marks

    # -- checkpointing (same single-npz format as the thread store) ----

    def save(self, path: "str | object") -> None:
        """Checkpoint every shard to one ``.npz`` with per-shard keys.

        Crash-safe via :func:`repro.serving.store.atomic_savez` (temp
        + fsync + atomic rename, keep-last-2 rotation).
        """
        snap = self.snapshot()
        payload: Dict[str, np.ndarray] = {
            "shards": np.asarray(self.shards, dtype=np.int64),
            "n": np.asarray(snap.n, dtype=np.int64),
            "tombstones": np.asarray(self._tombstones, dtype=np.int64),
        }
        for s, part in enumerate(snap.parts):
            payload[f"U{s}"] = part.U
            payload[f"V{s}"] = part.V
            payload[f"version{s}"] = np.asarray(part.version, dtype=np.int64)
        atomic_savez(path, **payload)

    # -- epoch transitions ---------------------------------------------

    def prepare_epoch(
        self,
        coordinates: Union[CoordinateTable, Tuple[np.ndarray, np.ndarray]],
        *,
        tombstones: Optional[Sequence[int]] = None,
        shards: Optional[int] = None,
    ) -> _EpochState:
        """Allocate the next epoch's segments and write the new model.

        Counters are carried over from the live headers (totals never
        rewind across an epoch) and every shard's version is bumped, so
        the global version stays strictly monotone — which is what
        invalidates version-keyed caches after the swap.  The returned
        state is inert until :meth:`activate_epoch`.

        With ``shards`` given the new epoch is **re-strided** to a
        different partition count (a live topology change): versions
        follow :func:`repro.serving.plane.carried_versions` (no shard
        rewinds, the global sum grows), counters are carried per
        position where one exists, and — on a merge — the retired
        segments' additive totals are folded into shard 0 so the
        aggregated stats stay cumulative.
        """
        U, V = self._unpack(coordinates)
        n, rank = U.shape
        old_P = self.shards
        if shards is not None:
            P = int(shards)
            if not 1 <= P <= n:
                raise ValueError(f"shards must be in [1, n={n}], got {P}")
        else:
            P = old_P
        if n < P:
            raise ValueError(
                f"cannot shrink to {n} nodes: the store has {P} shard(s)"
            )
        if tombstones is not None:
            marks = tuple(sorted(int(t) for t in tombstones))
            if any(t < 0 or t >= n for t in marks):
                raise ValueError(f"tombstones out of range for n={n}")
        old = self._state
        epoch = old.epoch + 1
        if P == old_P:
            versions = [
                old.segments[s].slot(VERSION) + 1 for s in range(P)
            ]
        else:
            versions = carried_versions(
                [seg.slot(VERSION) for seg in old.segments], P
            )
        segments = []
        names = []
        for s in range(P):
            name = f"{self._prefix}e{epoch}s{s}"
            segment = FactorSegment.create(
                name,
                shard=s,
                shards=P,
                n=n,
                rank=rank,
                version=versions[s],
                epoch=epoch,
            )
            if s < old_P:
                segment.header[COUNTERS_FROM:] = old.segments[s].header[
                    COUNTERS_FROM:
                ]
            if s == 0 and P < old_P:
                # merge: retired shards' cumulative totals fold into
                # shard 0 (gauges describe a live worker — not carried)
                for retired in old.segments[P:]:
                    for slot in _ADDITIVE_SLOTS:
                        segment.header[slot] += retired.slot(slot)
            segment.write_slice(U[s::P], V[s::P], versions[s])
            segments.append(segment)
            names.append(name)
        return _EpochState(tuple(segments), tuple(names), epoch)

    def activate_epoch(
        self,
        state: _EpochState,
        *,
        tombstones: Optional[Sequence[int]] = None,
    ) -> None:
        """Swap readers onto the new epoch; retire the old segments.

        The swap is one attribute store: a reader either composes the
        complete old epoch or the complete new one, never a mix.  Old
        segments are unlinked now (gone from ``/dev/shm``) but stay
        mapped until :meth:`destroy` — a reader mid-copy must never
        touch unmapped memory.
        """
        with self._lock:
            old = self._state
            if tombstones is not None:
                self._tombstones = tuple(sorted(int(t) for t in tombstones))
            self._state = state  # the one atomic epoch swap
            for segment in old.segments:
                segment.unlink()
                self._retired.append(segment)

    def abort_epoch(self, state: _EpochState) -> None:
        """Destroy a prepared-but-never-activated epoch's segments."""
        for segment in state.segments:
            segment.close()
            segment.unlink()

    def replace_model(
        self,
        coordinates: Union[CoordinateTable, Tuple[np.ndarray, np.ndarray]],
        *,
        tombstones: Optional[Sequence[int]] = None,
    ) -> ShardedSnapshot:
        """Install a model of a different size (membership epoch swap).

        With a supervisor attached this is the **two-phase commit**:
        new segments are prepared, every (quiesced) worker re-attaches
        and resizes, and only then do readers swap — see
        :meth:`WorkerSupervisor.commit_epoch`.  Without workers (store
        used standalone) the swap is gateway-only.
        """
        if self._committer is not None:
            self._committer(coordinates, tombstones)
        else:
            state = self.prepare_epoch(coordinates, tombstones=tombstones)
            self.activate_epoch(state, tombstones=tombstones)
        return self.snapshot()

    # -- teardown ------------------------------------------------------

    def destroy(self) -> None:
        """Close and unlink every segment (idempotent; owner side)."""
        with self._lock:
            if self._destroyed:
                return
            self._destroyed = True
            state = self._state
            retired = self._retired
            self._retired = []
        for segment in state.segments:
            segment.close()
            segment.unlink()
        for segment in retired:
            segment.close()  # already unlinked at retirement

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessShardedStore(shards={self.shards}, n={self.n}, "
            f"epoch={self.epoch}, version={self.version})"
        )


def _worker_main(
    spec: WorkerSpec,
    shard: int,
    names: Sequence[str],
    commands,
    errors,
) -> None:
    """Child-process entry point (module-level: picklable for spawn)."""
    worker = None
    try:
        worker = _ShardWorker(spec, shard, names)
        worker.run(commands)
    except KeyboardInterrupt:  # pragma: no cover - operator interrupt
        pass
    except BaseException as exc:
        try:
            errors.put_nowait(f"shard {shard}: {exc!r}")
        except Exception:  # pragma: no cover - error queue gone
            pass
        raise
    finally:
        if worker is not None:
            worker.close_segments()


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------


class WorkerSupervisor:
    """Spawns, feeds, health-checks and restarts the shard workers.

    One bounded :class:`multiprocessing.Queue` per shard carries both
    measurement chunks and control commands, so a command naturally
    orders behind every chunk submitted before it (``flush`` means
    *everything enqueued so far is applied*).  Acks travel back through
    the ``LAST_ACK`` header slot of the worker's segment — no reply
    queue, no reply-matching state machine.

    Health: a worker is healthy while its process is alive; the monitor
    thread restarts dead workers against the **current** segment names.
    A restarted worker bootstraps its engine from the segments, so it
    resumes from the last published state (losing at most one
    ``refresh_interval`` of unpublished SGD steps) and keeps draining
    the same queue — queued chunks survive the crash.

    Parameters
    ----------
    store:
        The :class:`ProcessShardedStore` owning the segments.
    spec:
        The picklable :class:`WorkerSpec` every worker is built from.
    queue_depth:
        Bounded per-shard queue capacity, in chunks.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (fast spawn, no import replay) and falls back to ``spawn``.
        The spec is fully picklable, so both work.  Trade-off: a
        *restart* under ``fork`` forks this (by then multi-threaded)
        gateway process — POSIX only promises the child the forking
        thread, so a lock held by another thread at fork time (BLAS,
        allocator) can wedge the replacement worker.  Long-lived
        deployments that lean on crash recovery should prefer
        ``"spawn"`` (slower starts, a clean interpreter every time);
        contexts cannot be mixed per queue, so the choice is global.
    command_timeout:
        Seconds to wait for a command ack before declaring the worker
        wedged (commit recovery respawns it; other commands raise).
    health_interval:
        Monitor thread poll period; ``monitor=False`` disables the
        thread (tests drive :meth:`health_check` manually).
    """

    def __init__(
        self,
        store: ProcessShardedStore,
        spec: WorkerSpec,
        *,
        queue_depth: int = 64,
        start_method: Optional[str] = None,
        command_timeout: float = 30.0,
        health_interval: float = 0.5,
        monitor: bool = True,
        guard_factory: Optional[
            Callable[[int], Optional[AdmissionGuard]]
        ] = None,
    ) -> None:
        if queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {queue_depth}")
        if spec.guards is not None and len(spec.guards) != store.shards:
            raise ValueError(
                f"got {len(spec.guards)} guards for {store.shards} shards"
            )
        if store.shards > 1 and not spec.engine.metric.symmetric:
            # the asymmetric (ABW) update writes the *target's* v_j row
            # (eqs. 12-13), which usually lives on another shard: a
            # worker publishes only its own slice, so those deltas would
            # be silently overwritten by the owner's next mirror pull.
            # Thread mode shares one engine and is unaffected; cross-
            # shard update forwarding is a ROADMAP item.  Fail loudly
            # rather than quietly dropping (P-1)/P of target gradients.
            raise ValueError(
                "process mode with multiple shards supports symmetric "
                "(RTT) updates only: the asymmetric ABW update writes "
                "target-side rows owned by other shards' workers; use "
                "--workers threads (or shards=1) for ABW serving"
            )
        self.store = store
        self.spec = spec
        self.shards = store.shards
        #: equips shards born from a live split with fresh guards (the
        #: per-shard guards in ``spec.guards`` are positional; a new
        #: position needs a new stateful guard)
        self.guard_factory = guard_factory
        self.queue_depth = int(queue_depth)
        self.command_timeout = float(command_timeout)
        self.health_interval = float(health_interval)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.queues = [
            self._ctx.Queue(maxsize=self.queue_depth)
            for _ in range(self.shards)
        ]
        self.errors = self._ctx.Queue()
        self.procs: List[Optional[multiprocessing.Process]] = [
            None
        ] * self.shards
        self.restarts = [0] * self.shards
        self._token = 0
        self._token_lock = threading.Lock()
        # serializes spawn/restart/epoch against each other; the
        # monitor trylocks it so health checks skip live transitions
        self._lock = threading.RLock()
        self._monitor_enabled = bool(monitor)
        self._monitor_stop = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None
        self._epoch_committed = False
        self._closed = False
        store._committer = self._commit_epoch_hook

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WorkerSupervisor":
        """Spawn every worker (and the monitor); returns self."""
        with self._lock:
            if self._closed:
                raise RuntimeError("supervisor is shut down")
            for shard in range(self.shards):
                if self.procs[shard] is None:
                    self._spawn(shard, self.store.segment_names)
        if self._monitor_enabled and self._monitor_thread is None:
            self._monitor_stop.clear()
            self._monitor_thread = threading.Thread(
                target=self._monitor_loop,
                name="repro-mp-supervisor",
                daemon=True,
            )
            self._monitor_thread.start()
        return self

    def _spawn(self, shard: int, names: Sequence[str]) -> None:
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                self.spec,
                shard,
                tuple(names),
                self.queues[shard],
                self.errors,
            ),
            name=f"repro-mp-shard-{shard}",
            daemon=True,
        )
        proc.start()
        self.procs[shard] = proc

    def _replace_queue(self, shard: int) -> None:
        """Swap in a fresh queue, salvaging the dead worker's backlog.

        A worker killed hard (SIGKILL, segfault) very likely died
        inside ``Queue.get`` *holding the queue's reader semaphore* —
        a successor could then never read the queue again.  The dead
        worker was the only consumer, so with the supervisor lock held
        we are the sole reader and may bypass the orphaned lock: drain
        the raw pipe and refill a fresh queue.  Chunks buffered in this
        process's feeder thread at swap time can be lost — crash
        recovery sheds at most a few in-flight chunks, never the
        published model.
        """
        from multiprocessing.reduction import ForkingPickler

        old = self.queues[shard]
        fresh = self._ctx.Queue(maxsize=self.queue_depth)
        try:
            time.sleep(0.05)  # let the feeder flush its buffer
            while old._reader.poll(0):
                try:
                    item = ForkingPickler.loads(old._reader.recv_bytes())
                except Exception:  # truncated/corrupt tail: stop here
                    break
                try:
                    fresh.put_nowait(item)
                except stdlib_queue.Full:  # pragma: no cover - shrunk
                    break
        except (OSError, ValueError, AttributeError):  # pragma: no cover
            pass
        self.queues[shard] = fresh
        try:
            old.close()
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass

    def respawn(self, shard: int, names: Optional[Sequence[str]] = None) -> None:
        """Kill (if needed) and relaunch one worker against ``names``."""
        with self._lock:
            proc = self.procs[shard]
            if proc is not None:
                if proc.is_alive():
                    proc.terminate()
                proc.join(timeout=2.0)
                if proc.exitcode != 0:
                    self._replace_queue(shard)
            self._spawn(
                shard, names if names is not None else self.store.segment_names
            )
            self.restarts[shard] += 1

    @property
    def running(self) -> bool:
        """Whether the supervisor has live workers."""
        return not self._closed and any(
            proc is not None and proc.is_alive() for proc in self.procs
        )

    def alive(self, shard: int) -> bool:
        """Whether one shard's worker process is currently alive."""
        proc = self.procs[shard]
        return proc is not None and proc.is_alive()

    def pids(self) -> List[Optional[int]]:
        """Per-shard worker process ids (None before spawn)."""
        return [
            proc.pid if proc is not None else None for proc in self.procs
        ]

    def drain_errors(self) -> List[str]:
        """Pull any worker-reported errors off the error queue."""
        drained: List[str] = []
        while True:
            try:
                drained.append(self.errors.get_nowait())
            except stdlib_queue.Empty:
                return drained
            except (OSError, ValueError):  # pragma: no cover - closed
                return drained

    # -- health --------------------------------------------------------

    def health_check(self) -> List[int]:
        """Restart dead workers; returns the shards restarted."""
        restarted: List[int] = []
        if self._closed:
            return restarted
        if not self._lock.acquire(blocking=False):
            return restarted  # an epoch transition is in flight
        try:
            for shard in range(self.shards):
                proc = self.procs[shard]
                if proc is not None and not proc.is_alive():
                    proc.join(timeout=0.5)
                    if proc.exitcode != 0:
                        self._replace_queue(shard)
                    self._spawn(shard, self.store.segment_names)
                    self.restarts[shard] += 1
                    restarted.append(shard)
        finally:
            self._lock.release()
        return restarted

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self.health_interval):
            try:
                self.health_check()
            except Exception:  # pragma: no cover - defensive
                pass

    # -- commands ------------------------------------------------------

    def _next_token(self) -> int:
        with self._token_lock:
            self._token += 1
            return self._token

    def command(
        self, shard: int, kind: str, *payload, timeout: Optional[float] = None
    ) -> int:
        """Enqueue one control command; returns its ack token."""
        token = self._next_token()
        self.queues[shard].put(
            (kind, token, *payload),
            timeout=timeout if timeout is not None else self.command_timeout,
        )
        return token

    def wait_ack(
        self,
        shard: int,
        token: int,
        *,
        timeout: Optional[float] = None,
        segment: Optional[FactorSegment] = None,
    ) -> None:
        """Spin-wait (with sleeps) for ``LAST_ACK`` to reach ``token``."""
        if segment is None:
            segment = self.store._state.segments[shard]
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.command_timeout
        )
        while segment.slot(LAST_ACK) < token:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"shard {shard} did not ack command {token} "
                    f"(alive={self.alive(shard)})"
                )
            time.sleep(0.0005)

    def command_all(self, kind: str, *payload) -> None:
        """Send one command to every worker and wait for all acks."""
        tokens = [
            self.command(shard, kind, *payload)
            for shard in range(self.shards)
        ]
        for shard, token in enumerate(tokens):
            self.wait_ack(shard, token)

    # -- the two-phase epoch protocol ----------------------------------

    def begin_epoch(self) -> None:
        """Phase one: quiesce every worker (drain + flush + publish).

        Takes the supervisor lock (held until :meth:`end_epoch`), so
        restarts cannot race the transition.  After this returns, the
        segments hold every worker's complete state and the workers sit
        idle waiting for ``commit`` or ``resume``.
        """
        self._lock.acquire()
        self._epoch_committed = False
        try:
            tokens = [
                self.command(shard, "barrier")
                for shard in range(self.shards)
            ]
            for shard, token in enumerate(tokens):
                try:
                    self.wait_ack(shard, token)
                except TimeoutError:
                    # dead worker: revive it from its last published
                    # state and re-quiesce (roll forward, never abort)
                    self.respawn(shard)
                    token = self.command(shard, "barrier")
                    self.wait_ack(shard, token)
        except BaseException:
            self._lock.release()
            raise

    def _commit_epoch_hook(self, coordinates, tombstones) -> None:
        """Phase two (store ``replace_model`` hook): commit to workers.

        Prepares the new epoch's segments, tells every worker to
        re-attach and resize, then atomically swaps the gateway's read
        tuple.  A worker dying mid-commit is respawned against the new
        epoch — the commit is one-way once the first worker has taken
        it, so recovery always rolls *forward*.
        """
        state = self.store.prepare_epoch(coordinates, tombstones=tombstones)
        try:
            tokens = [
                self.command(shard, "commit", state.names)
                for shard in range(self.shards)
            ]
        except BaseException:
            self.store.abort_epoch(state)
            raise
        for shard, token in enumerate(tokens):
            try:
                self.wait_ack(shard, token, segment=state.segments[shard])
            except TimeoutError:
                # roll forward: restart the worker on the new epoch
                self.respawn(shard, state.names)
                self.wait_ack(shard, token, segment=state.segments[shard])
        self.store.activate_epoch(state, tombstones=tombstones)
        self._epoch_committed = True

    def end_epoch(self) -> None:
        """Release the transition: resume workers if nothing committed."""
        try:
            if not self._epoch_committed:
                self.command_all("resume")
        finally:
            self._lock.release()

    # -- live topology -------------------------------------------------

    def set_shard_count(self, shards: int) -> None:
        """Re-partition the plane to ``shards`` worker processes.

        Reuses the two-phase epoch machinery with a twist: the worker
        *set itself* changes, so after phase one (barrier: every worker
        drains, flushes and publishes — shared memory **is** the model)
        all workers are stopped, the re-strided epoch's segments are
        prepared (:meth:`ProcessShardedStore.prepare_epoch` with
        ``shards=`` — counters folded on merge, versions carried),
        readers atomically swap, and a fresh worker set is spawned
        against the new epoch.  Queries never block: a reader keeps
        composing whichever epoch tuple it loaded, and the retired
        segments stay mapped until the store is destroyed.
        """
        shards = int(shards)
        if not 1 <= shards <= self.store.n:
            raise ValueError(
                f"shards must be in [1, n={self.store.n}], got {shards}"
            )
        if shards > 1 and not self.spec.engine.metric.symmetric:
            # same restriction as the constructor: the asymmetric ABW
            # update writes target-side rows owned by other workers
            raise ValueError(
                "process mode with multiple shards supports symmetric "
                "(RTT) updates only; cannot split an ABW plane"
            )
        with self._lock:
            if self._closed:
                raise RuntimeError("supervisor is shut down")
            old = self.shards
            if shards == old:
                return
            # phase one: quiesce every worker (respawn-and-retry like
            # begin_epoch — roll forward, never abort)
            tokens = [
                self.command(shard, "barrier") for shard in range(old)
            ]
            for shard, token in enumerate(tokens):
                try:
                    self.wait_ack(shard, token)
                except TimeoutError:
                    self.respawn(shard)
                    token = self.command(shard, "barrier")
                    self.wait_ack(shard, token)
            # the worker set is being replaced wholesale: stop everyone
            # (their complete state now lives in the segments)
            for shard in range(old):
                proc = self.procs[shard]
                if proc is None or not proc.is_alive():
                    continue
                try:
                    self.queues[shard].put(("stop",), timeout=1.0)
                except (stdlib_queue.Full, OSError, ValueError):
                    proc.terminate()
            for shard in range(old):
                proc = self.procs[shard]
                if proc is None:
                    continue
                proc.join(timeout=self.command_timeout)
                if proc.is_alive():  # pragma: no cover - wedged worker
                    proc.terminate()
                    proc.join(timeout=2.0)
                self.procs[shard] = None
            # re-stride: one copy-on-write epoch swap
            U, V = self.store.as_full_arrays()
            state = self.store.prepare_epoch((U, V), shards=shards)
            self.store.activate_epoch(state)
            self.store.repartitioned_from = old
            self.shards = shards
            # resize the per-shard resources (queues are empty: the
            # barrier drained them and the gateway gate blocks refills)
            if shards < old:
                for q in self.queues[shards:]:
                    try:
                        q.close()
                        q.join_thread()
                    except (OSError, ValueError):  # pragma: no cover
                        pass
                del self.queues[shards:]
                del self.procs[shards:]
                del self.restarts[shards:]
            else:
                self.queues.extend(
                    self._ctx.Queue(maxsize=self.queue_depth)
                    for _ in range(old, shards)
                )
                self.procs.extend([None] * (shards - old))
                self.restarts.extend([0] * (shards - old))
            if self.spec.guards is not None:
                if self.guard_factory is not None:
                    # guards are positional *and* stateful: a re-stride
                    # reassigns every node id, so every shard gets a
                    # fresh guard rather than inheriting mismatched
                    # per-source state
                    self.spec.guards = [
                        self.guard_factory(s) for s in range(shards)
                    ]
                elif shards < old:
                    self.spec.guards = list(self.spec.guards[:shards])
                else:
                    # no recipe for new guards: new shards run
                    # unguarded (visible in /stats guard section)
                    self.spec.guards = list(self.spec.guards) + [None] * (
                        shards - old
                    )
            for shard in range(shards):
                self._spawn(shard, state.names)

    # -- shutdown ------------------------------------------------------

    def shutdown(self, *, timeout: float = 5.0) -> None:
        """Stop workers, close queues, unlink every segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._monitor_stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=2.0)
            self._monitor_thread = None
        for shard in range(self.shards):
            proc = self.procs[shard]
            if proc is None or not proc.is_alive():
                continue
            try:
                self.queues[shard].put(("stop",), timeout=1.0)
            except (stdlib_queue.Full, OSError, ValueError):
                proc.terminate()
        for shard, proc in enumerate(self.procs):
            if proc is None:
                continue
            proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=2.0)
            self.procs[shard] = None
        for q in self.queues + [self.errors]:
            try:
                q.close()
                q.join_thread()
            except (OSError, ValueError):  # pragma: no cover
                pass
        self.store.destroy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerSupervisor(shards={self.shards}, "
            f"start_method={self.start_method!r}, running={self.running})"
        )


# ----------------------------------------------------------------------
# gateway-side ingest facade
# ----------------------------------------------------------------------


class _GatewayEngineProxy:
    """The engine-shaped facade the membership layer manipulates.

    In process mode the real engines live in the workers; membership
    transitions read the quiesced model out of shared memory and write
    the resized model back through the two-phase commit.  This proxy
    satisfies exactly the surface
    :class:`~repro.serving.membership.MembershipManager` touches:
    ``n``/``config``/``coordinates`` reads, and a ``resize_model`` that
    is deliberately a no-op — the authoritative resize is the workers',
    performed by the commit that ``store.replace_model`` triggers.
    """

    def __init__(self, store: ProcessShardedStore, spec: WorkerSpec) -> None:
        self._store = store
        self._spec = spec

    @property
    def n(self) -> int:
        return self._store.n

    @property
    def config(self):
        return self._spec.engine.config

    @property
    def coordinates(self) -> CoordinateTable:
        """The current dense model (seqlock-consistent copy).

        Inside a membership barrier the workers have flushed and
        published, so this *is* the complete quiesced model.
        """
        U, V = self._store.as_full_arrays()
        return CoordinateTable.from_arrays(U, V)

    def resize_model(self, U: np.ndarray, V: np.ndarray) -> None:
        """Validated no-op: the worker-side resize rides the commit."""
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        if U.shape != V.shape or U.ndim != 2:
            raise ValueError(
                f"U and V must be matching 2-D arrays, got {U.shape} "
                f"and {V.shape}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_GatewayEngineProxy(n={self.n})"


class _EvalFacade:
    """Merged cross-process view of the workers' online evaluators.

    Each worker runs its own test-then-train
    :class:`~repro.serving.guard.OnlineEvaluator` and publishes scalar
    window metrics into its segment header; this facade recomposes them
    into the ``online_eval`` stats section.  Quantile/AUC merging uses
    a sample-weighted mean of the per-shard window metrics — an
    approximation of the pooled-window value, exact when shards see
    exchangeable traffic.
    """

    def __init__(self, ingest: "ProcessShardedIngest") -> None:
        self._ingest = ingest
        self.mode = ingest.supervisor.spec.eval_mode
        self.window = ingest.supervisor.spec.eval_window

    def evaluate(self) -> Dict[str, object]:
        segments = self._ingest.store._state.segments
        samples = [seg.slot(EVAL_SAMPLES) for seg in segments]
        payload: Dict[str, object] = {
            "mode": self.mode,
            "window": self.window,
            "samples": int(sum(samples)),
            "observed": int(sum(seg.slot(EVAL_OBSERVED) for seg in segments)),
            "per_process": True,
        }
        if self.mode == "class":
            keys = (("auc", EVAL_AUC_E6),)
        else:
            keys = (
                ("rel_err_p50", EVAL_P50_E6),
                ("rel_err_p90", EVAL_P90_E6),
                ("rel_err_p99", EVAL_P99_E6),
            )
        for key, slot in keys:
            weighted = 0.0
            weight = 0
            for seg, count in zip(segments, samples):
                value = seg.slot(slot)
                if value >= 0 and count > 0:
                    weighted += (value / 1e6) * count
                    weight += count
            payload[key] = (weighted / weight) if weight else None
        return payload


class ProcessShardedIngest(RoutedIngestBase):
    """P admission pipelines in P worker *processes*, behind bounded queues.

    Mirrors the surface of :class:`~repro.serving.shard.ShardedIngest`
    (``submit`` / ``submit_many`` / ``flush`` / ``publish`` /
    ``buffered`` / ``stats_payload`` / ``membership_barrier`` / ...),
    so the gateway, the CLI and the membership manager run unchanged —
    but every SGD apply executes on its shard's own core, outside this
    process's GIL.  Together with :class:`ProcessShardedStore` this is
    the process-mode :class:`~repro.serving.plane.ShardPlane` —
    routing, validation and **live topology** (``set_shard_count`` /
    ``split_shard`` / ``merge_shards``) come from
    :class:`~repro.serving.plane.RoutedIngestBase`; this class supplies
    the process transport (multiprocessing queues into the worker set).

    Routing, validation and tombstone shedding happen gateway-side
    (identical to thread mode); admitted chunks cross the process
    boundary once, and admission/dedup/clip/apply run in the worker.
    Backpressure is bounded-then-shed exactly like thread mode: a full
    shard queue blocks the submitter for up to ``put_timeout`` seconds,
    then the chunk is shed and counted in ``dropped_backpressure``.
    """

    def __init__(
        self,
        store: ProcessShardedStore,
        supervisor: WorkerSupervisor,
        *,
        put_timeout: Optional[float] = 0.5,
    ) -> None:
        self.store = store
        self.supervisor = supervisor
        self.shards = store.shards
        self.spec = supervisor.spec
        self.mode = self.spec.mode
        self.queue_depth = supervisor.queue_depth
        self.put_timeout = None if put_timeout is None else float(put_timeout)
        self._gate = threading.Lock()
        self._counter_lock = threading.Lock()
        self._received = 0
        self._dropped_invalid = 0
        self._dropped_membership = 0
        self._elastic = False
        self.dropped_backpressure = 0
        self._submitted_samples = [0] * self.shards
        self.worker_errors: List[str] = []
        self._init_plane()
        self.evaluator = _EvalFacade(self) if self.spec.eval_mode else None
        self.engine = _GatewayEngineProxy(store, self.spec)
        # per-shard (monotonic time, applied) for the /shards pps gauge
        self._pps_state: Dict[int, Tuple[float, int]] = {}

    # -- helpers -------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether worker processes are draining the shard queues."""
        return self.supervisor.running

    def _drain_worker_errors(self) -> None:
        self.worker_errors.extend(self.supervisor.drain_errors())

    def _segment(self, shard: int) -> FactorSegment:
        return self.store._state.segments[shard]

    # -- submission (routing/validation live in RoutedIngestBase) ------

    def _put_chunk(self, shard: int, item) -> int:
        """Ship one chunk to a shard worker (gate held by the base)."""
        src, dst, vals = item[:3]
        samples = int(vals.size)
        if not self.supervisor.running:
            # workers are gone (shutdown race): shed, never wedge
            with self._counter_lock:
                self.dropped_backpressure += samples
            return 0
        command = (
            ("chunk", src, dst, vals, item[3])
            if len(item) > 3
            else ("chunk", src, dst, vals)
        )
        try:
            self.supervisor.queues[shard].put(
                command, timeout=self.put_timeout
            )
        except stdlib_queue.Full:
            with self._counter_lock:
                self.dropped_backpressure += samples
            return 0
        with self._counter_lock:
            self._submitted_samples[shard] += samples
        return samples

    # -- telemetry -----------------------------------------------------

    def bind_obs(self, registry) -> None:
        """Arm chunk metadata and expose the workers' shm histograms.

        Unlike thread mode, the latency histograms are not registry
        instruments: the observations happen in the worker processes,
        which write the shared bucket-ladder slots of their segment
        headers.  A scrape-time collector merges those slots into the
        *same* family names thread mode emits, so all planes report
        identically-shaped telemetry.
        """
        super().bind_obs(registry)
        registry.register_collector(self._collect_worker_latency)

    def _collect_worker_latency(self) -> List[tuple]:
        families: List[tuple] = []
        for buckets_at, count_at, sum_at, name, help in (
            (
                H_QUEUE_BUCKETS,
                H_QUEUE_COUNT,
                H_QUEUE_SUM_US,
                "repro_ingest_queue_wait_seconds",
                "Admit-to-dequeue wait of routed ingest chunks.",
            ),
            (
                H_APPLY_BUCKETS,
                H_APPLY_COUNT,
                H_APPLY_SUM_US,
                "repro_ingest_apply_seconds",
                "Dequeue-to-applied latency of drained ingest batches.",
            ),
        ):
            counts = [0] * BUCKET_COUNT
            total_us = 0
            count = 0
            for s in range(self.shards):
                header = self._segment(s).header
                for i in range(BUCKET_COUNT):
                    counts[i] += int(header[buckets_at + i])
                count += int(header[count_at])
                total_us += int(header[sum_at])
            families.append(
                (
                    name,
                    "histogram",
                    help,
                    [({}, (tuple(counts), total_us / 1e6, count))],
                )
            )
        return families

    def harvest_traces(self) -> List[Dict[str, int]]:
        """Drain every worker's span ring into merge-ready stage dicts.

        Reads are torn-entry-safe: the span id is read, then the
        fields, then the span id again — a writer re-using the entry
        mid-read changes the id, and the entry is skipped.  Entries
        stay in the ring (they survive worker restarts with the rest of
        the segment); :meth:`repro.obs.tracing.Tracer.merge` dedupes
        re-harvested spans by completeness.
        """
        out: List[Dict[str, int]] = []
        for s in range(self.shards):
            header = self._segment(s).header
            for e in range(TRACE_ENTRIES):
                slot = TRACE_RING + e * TRACE_FIELDS
                span_id = int(header[slot + 6])
                if not span_id:
                    continue
                fields = [int(header[slot + i]) for i in range(6)]
                if int(header[slot + 6]) != span_id:
                    continue  # torn: the writer lapped this entry
                out.append(
                    {
                        "span_id": span_id,
                        "accept_us": fields[0],
                        "admit_us": fields[1],
                        "queue_us": fields[2],
                        "apply_us": fields[3],
                        "publish_us": fields[4],
                        "samples": fields[5],
                    }
                )
        return out

    # -- live topology -------------------------------------------------

    def _apply_topology(self, shards: int, reason: str) -> None:
        """Re-stride the worker plane (gate held by the base).

        Delegates the heavy lifting to
        :meth:`WorkerSupervisor.set_shard_count` (barrier, worker-set
        replacement, copy-on-write epoch swap), then re-bases the
        gateway-side drain accounting: the new epoch's segments carry
        the consumed totals forward, so each shard's lag restarts at
        zero against its new ``CONSUMED`` baseline.
        """
        self.supervisor.set_shard_count(shards)
        self.shards = shards
        with self._counter_lock:
            self._submitted_samples = [
                self._segment(s).slot(CONSUMED) for s in range(shards)
            ]
        self._pps_state = {}

    # -- flushing / publishing -----------------------------------------

    def drain(self) -> None:
        """Block until every enqueued chunk has been consumed."""
        deadline = time.monotonic() + self.supervisor.command_timeout
        while True:
            with self._counter_lock:
                submitted = list(self._submitted_samples)
            lag = sum(
                max(0, submitted[s] - self._segment(s).slot(CONSUMED))
                for s in range(self.shards)
            )
            if lag == 0:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(f"{lag} samples still queued after drain")
            time.sleep(0.001)

    def flush(self) -> int:
        """Drain the queues, then apply every buffered measurement."""
        before = sum(
            self._segment(s).slot(APPLIED) for s in range(self.shards)
        )
        self.supervisor.command_all("flush")
        after = sum(
            self._segment(s).slot(APPLIED) for s in range(self.shards)
        )
        return after - before

    def publish(self) -> int:
        """Drain, flush and publish every shard; returns the version."""
        self.supervisor.command_all("publish")
        return self.store.version

    @contextmanager
    def membership_barrier(self):
        """Quiesce the workers for a membership epoch transition.

        The two-phase protocol of the module docstring: under the
        submission gate, phase one (``barrier``) drains and flushes
        every worker and parks them; the caller mutates the model
        inside the ``with`` block (``store.replace_model`` performs the
        phase-two commit); on exit, workers that never saw a commit are
        resumed.  Queries keep flowing throughout — readers never touch
        the gate, the queues, or the workers.
        """
        with self._gate:
            self._elastic = True
            self.supervisor.begin_epoch()
            try:
                yield
            finally:
                self.supervisor.end_epoch()

    def close(self) -> None:
        """Stop the workers and release every segment (idempotent)."""
        self.supervisor.shutdown()

    def __enter__(self) -> "ProcessShardedIngest":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -------------------------------------------------

    @property
    def buffered(self) -> int:
        """Samples accepted but not yet applied (queues + worker buffers)."""
        with self._counter_lock:
            submitted = list(self._submitted_samples)
        queued = sum(
            max(0, submitted[s] - self._segment(s).slot(CONSUMED))
            for s in range(self.shards)
        )
        return queued + sum(
            self._segment(s).slot(BUFFERED) for s in range(self.shards)
        )

    @property
    def staleness(self) -> int:
        """Applied-but-unpublished measurements across all shards."""
        return sum(
            self._segment(s).slot(SINCE_PUBLISH) for s in range(self.shards)
        )

    def stats(self) -> IngestStats:
        """Aggregated ingest counters (worker headers + gateway drops)."""
        total = IngestStats()
        for s in range(self.shards):
            header = self._segment(s).header
            total.applied += int(header[APPLIED])
            total.deduped += int(header[DEDUPED])
            total.clipped += int(header[CLIPPED])
            total.rejected_guard += int(header[REJECTED_GUARD])
            total.dropped_nan += int(header[DROPPED_NAN])
            total.batches += int(header[BATCHES])
            total.publishes += int(header[PUBLISHES])
            total.since_publish += int(header[SINCE_PUBLISH])
        with self._counter_lock:
            total.received = self._received
            total.dropped_invalid += self._dropped_invalid
        return total

    def queue_load(self) -> List[Tuple[int, int]]:
        """Lock-free per-shard ``(queue_depth, queue_capacity)`` pairs.

        The cheap overload signal the
        :class:`~repro.serving.faults.LoadShedder` samples on the
        request path — raw command-queue sizes, no shared-memory header
        reads, no counter locks.  Platforms without ``qsize`` (macOS)
        report depth 0, degrading to never-shed rather than erroring.
        """
        out: List[Tuple[int, int]] = []
        for s in range(self.shards):
            try:
                depth = self.supervisor.queues[s].qsize()
            except NotImplementedError:  # pragma: no cover - macOS
                depth = 0
            out.append((depth, self.queue_depth))
        return out

    def shard_info(self) -> List[Dict[str, object]]:
        """Per-process vitals: pps, queue depth, snapshot age, health."""
        now = time.monotonic()
        info: List[Dict[str, object]] = []
        with self._counter_lock:
            submitted = list(self._submitted_samples)
        for s in range(self.shards):
            segment = self._segment(s)
            header = segment.header
            applied = int(header[APPLIED])
            last = self._pps_state.get(s)
            pps = 0.0
            if last is not None and now > last[0]:
                pps = max(0.0, (applied - last[1]) / (now - last[0]))
            self._pps_state[s] = (now, applied)
            try:
                depth = self.supervisor.queues[s].qsize()
            except NotImplementedError:  # pragma: no cover - macOS
                depth = -1
            age_us = now * 1e6 - int(header[PUBLISHED_AT_US])
            info.append(
                {
                    "shard": s,
                    "owned_nodes": int(header[OWNED]),
                    "queue_depth": depth,
                    "queue_capacity": self.queue_depth,
                    "queue_samples": max(
                        0, submitted[s] - int(header[CONSUMED])
                    ),
                    "buffered": int(header[BUFFERED]),
                    "version": int(header[VERSION]),
                    "snapshot_age_s": round(max(0.0, age_us / 1e6), 6),
                    "applied": applied,
                    "rejected_guard": int(header[REJECTED_GUARD]),
                    "publishes": int(header[PUBLISHES]),
                    "pps": round(pps, 3),
                    "pid": int(header[PID]) or None,
                    "alive": self.supervisor.alive(s),
                    "restarts": self.supervisor.restarts[s],
                    "heartbeat": int(header[HEARTBEAT]),
                }
            )
        return info

    def guard_info(self) -> Dict[str, object]:
        """Aggregated guard state recomposed from the worker headers."""
        segments = [self._segment(s) for s in range(self.shards)]
        step_clips = [seg.slot(STEP_CLIP_E9) for seg in segments]
        live_clips = [c / 1e9 for c in step_clips if c >= 0]
        info: Dict[str, object] = {
            "mode": self.mode,
            "step_clip": (
                round(sum(live_clips) / len(live_clips), 9)
                if live_clips
                else self.spec.step_clip
            ),
            "deduped": sum(seg.slot(DEDUPED) for seg in segments),
            "clipped": sum(seg.slot(CLIPPED) for seg in segments),
            "rejected_total": sum(
                seg.slot(REJECTED_GUARD) for seg in segments
            ),
        }
        if self.spec.guards is not None:
            rejected = {
                reason: sum(seg.slot(slot) for seg in segments)
                for reason, slot in _REASON_SLOTS.items()
            }
            other = sum(seg.slot(REJ_OTHER) for seg in segments)
            if other:
                rejected["other"] = other
            info["admission"] = {
                "received": sum(seg.slot(GUARD_RECEIVED) for seg in segments),
                "admitted": sum(seg.slot(GUARD_ADMITTED) for seg in segments),
                "rejected_total": sum(rejected.values()),
                "rejected": rejected,
            }
        if self.spec.adaptive:
            sigmas = [seg.slot(SIGMA_E6) for seg in segments]
            live_sigmas = [v / 1e6 for v in sigmas if v >= 0]
            info["adaptive"] = {
                "updates": sum(
                    seg.slot(ADAPTIVE_UPDATES) for seg in segments
                ),
                "step_clip": (
                    round(sum(live_clips) / len(live_clips), 9)
                    if live_clips
                    else None
                ),
                "sigma": (
                    round(sum(live_sigmas) / len(live_sigmas), 6)
                    if live_sigmas
                    else None
                ),
            }
        return info

    def stats_payload(self) -> Dict[str, object]:
        """The ``ingest`` + ``guard`` + ``shards`` sections of ``/stats``."""
        self._drain_worker_errors()
        ingest = self.stats().as_dict()
        ingest["buffered"] = self.buffered
        self._unify_shard_keys(ingest)
        ingest["workers"] = "processes"
        ingest["dropped_backpressure"] = self.dropped_backpressure
        with self._counter_lock:
            ingest["dropped_membership"] = self._dropped_membership
        if self.worker_errors:
            ingest["worker_errors"] = list(self.worker_errors)
        return {
            "ingest": ingest,
            "guard": self.guard_info(),
            "shards": self.shard_info(),
            "topology": self.topology(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessShardedIngest(shards={self.shards}, n={self.store.n}, "
            f"mode={self.mode!r}, running={self.running})"
        )
