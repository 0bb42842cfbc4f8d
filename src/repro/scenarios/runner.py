"""Tick-deterministic scenario execution against any ShardPlane.

The runner interprets a :class:`~repro.scenarios.engine.Scenario` on a
shared clock: each global tick it (1) fires the tick's materialized
events, (2) offers the phase's load-curve sample count through the
phase's traffic driver, (3) flushes the plane so every admitted sample
is applied, and (4) reads a standing query batch off a live snapshot,
checking the standing invariants (availability, torn reads, version
monotonicity).

Per-tick flushing is what makes the run *deterministic*, not just
seeded: at most one submission wave is in flight per tick, so the
chunk sequence each shard's admission pipeline sees — and therefore
the dedup/guard/validation counters — is identical run over run and
identical between the thread and the process plane.  The counters
returned under ``"counters"`` are exactly the ones with that property;
engine-state-dependent numbers (``clipped``, publish counts, wall
times) live under ``"extra"`` and are informational.

Three worker modes share one read path: every plane exposes
``store.snapshot()`` (``ShardedCoordinateStore``,
``ProcessShardedStore``, ``MirrorStore``), so availability is measured
the same way the serving layer reads.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import DMFSGDConfig
from repro.core.engine import DMFSGDEngine, EngineSpec
from repro.datasets import load_harvard, load_meridian, trace_from_matrix
from repro.scenarios.engine import (
    MIN_AVAILABILITY,
    Phase,
    Scenario,
    Schedule,
    ScheduledEvent,
    query_stream,
    state_stream,
    traffic_stream,
)
from repro.scenarios.library import get_scenario
from repro.serving.cluster import build_cluster
from repro.serving.guard import (
    AdmissionGuard,
    OnlineEvaluator,
    RobustSigmaFilter,
    TokenBucketRateLimiter,
)
from repro.serving.membership import MembershipManager
from repro.serving.procs import (
    ProcessShardedIngest,
    ProcessShardedStore,
    WorkerSpec,
    WorkerSupervisor,
)
from repro.serving.shard import ShardedCoordinateStore, ShardedIngest
from repro.simnet.livefeed import (
    ByzantineDriver,
    ChurnDriver,
    HotPairDriver,
    LiveFeedDriver,
)

__all__ = ["DEFAULT_SEED", "WORKER_MODES", "run_scenario"]

#: the repo-wide bench seed (the paper's publication date)
DEFAULT_SEED = 20111206

#: worker modes the runner can drive a scenario through
WORKER_MODES = ("threads", "processes", "cluster")

#: reference-set size of the uniform/drift feeders
_NEIGHBORS = 8

#: evaluator window of the adaptive guard posture
_EVAL_WINDOW = 512


def _static_guard() -> AdmissionGuard:
    """One fresh admission guard (guards are stateful, never shared).

    The huge token bucket keeps the rate limiter out of the way —
    wall-clock admission would break determinism — so the robust sigma
    filter is the active defense, exactly what the poison scenario
    prices.
    """
    return AdmissionGuard(
        rate_limiter=TokenBucketRateLimiter(1e9, 1e9),
        filters=[RobustSigmaFilter(sigma=5.0, min_samples=30, window=500)],
    )


def _engine(nodes: int, seed: int) -> DMFSGDEngine:
    config = DMFSGDConfig(neighbors=_NEIGHBORS)
    return DMFSGDEngine(nodes, lambda r, c: np.ones(len(r)), config, rng=seed)


# ----------------------------------------------------------------------
# planes
# ----------------------------------------------------------------------


@dataclass
class _PlaneHandle:
    """A built plane plus the uniform read/write surface over it."""

    kind: str
    plane: object  # ShardedIngest | ProcessShardedIngest | RoutingGateway
    reader: object  # has .snapshot()
    manager: Optional[MembershipManager]
    _closer: object

    def close(self) -> None:
        self._closer()


def _build_threads(scenario: Scenario, seed: int) -> _PlaneHandle:
    engine = _engine(scenario.nodes, seed)
    store = ShardedCoordinateStore(engine.coordinates, shards=scenario.shards)
    kwargs: Dict[str, object] = {}
    if scenario.guard != "none":
        kwargs["guard_factory"] = lambda shard: _static_guard()
    if scenario.guard == "adaptive":
        kwargs["evaluator"] = OnlineEvaluator(mode="l2", window=_EVAL_WINDOW)
        kwargs["adaptive"] = True
    ingest = ShardedIngest(
        engine,
        store,
        batch_size=scenario.batch_size,
        refresh_interval=scenario.refresh_interval,
        step_clip=0.1,
        queue_depth=scenario.queue_depth,
        put_timeout=5.0,
        workers=True,
        **kwargs,
    )
    manager = None
    if scenario.membership:
        manager = MembershipManager(
            engine, store, ingest, rng=state_stream(seed, 9)
        )
    return _PlaneHandle(
        kind="threads",
        plane=ingest,
        reader=store,
        manager=manager,
        _closer=ingest.close,
    )


def _build_processes(scenario: Scenario, seed: int) -> _PlaneHandle:
    engine = _engine(scenario.nodes, seed)
    store = ProcessShardedStore.create(
        engine.coordinates, shards=scenario.shards
    )
    guards = None
    if scenario.guard != "none":
        guards = [_static_guard() for _ in range(scenario.shards)]
    spec = WorkerSpec(
        engine=EngineSpec.from_engine(engine, seed=seed),
        batch_size=scenario.batch_size,
        refresh_interval=scenario.refresh_interval,
        step_clip=0.1,
        guards=guards,
        eval_mode="l2" if scenario.guard == "adaptive" else None,
        eval_window=_EVAL_WINDOW,
        adaptive=scenario.guard == "adaptive",
    )
    supervisor = WorkerSupervisor(
        store,
        spec,
        queue_depth=scenario.queue_depth,
        monitor=False,
        command_timeout=60.0,
    ).start()
    ingest = ProcessShardedIngest(store, supervisor)
    manager = None
    if scenario.membership:
        manager = MembershipManager(
            ingest.engine, store, ingest, rng=state_stream(seed, 9)
        )
    return _PlaneHandle(
        kind="processes",
        plane=ingest,
        reader=store,
        manager=manager,
        _closer=ingest.close,
    )


def _build_cluster(
    scenario: Scenario, seed: int, groups: int
) -> _PlaneHandle:
    engine = _engine(scenario.nodes, seed)
    supervisor = build_cluster(
        engine.coordinates,
        groups=groups,
        shards=1,
        workers="threads",
        config=engine.config,
        batch_size=scenario.batch_size,
        refresh_interval=scenario.refresh_interval,
        step_clip=0.1,
        # adaptive tuning has no cluster-wide evaluator yet; any
        # guarded posture maps to the static guard here
        guard_factory=_static_guard if scenario.guard != "none" else None,
        queue_depth=scenario.queue_depth,
        monitor=False,
        seed=seed,
    ).start()
    return _PlaneHandle(
        kind="cluster",
        plane=supervisor.router,
        reader=supervisor.mirror,
        manager=None,
        _closer=supervisor.close,
    )


def _build_plane(
    scenario: Scenario, workers: str, seed: int, cluster_groups: int
) -> _PlaneHandle:
    if workers == "threads":
        return _build_threads(scenario, seed)
    if workers == "processes":
        return _build_processes(scenario, seed)
    if workers == "cluster":
        if not scenario.supports_cluster:
            raise ValueError(
                f"scenario {scenario.name!r} does not support the "
                "cluster plane (membership / live topology events)"
            )
        return _build_cluster(scenario, seed, cluster_groups)
    raise ValueError(
        f"workers must be one of {WORKER_MODES}, got {workers!r}"
    )


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------


class _WorldState:
    """Scenario-global mutable state the event handlers act on.

    Everything here derives from the seed through *named*
    ``state_stream`` slots, so any handler's draw is independent of
    every traffic stream — adding a phase never perturbs another
    phase's randomness.
    """

    def __init__(self, scenario: Scenario, seed: int) -> None:
        self.scenario = scenario
        self.seed = seed
        base = state_stream(seed, 0).uniform(
            10.0, 200.0, size=(scenario.nodes, scenario.nodes)
        )
        np.fill_diagonal(base, np.nan)
        self.base_quantities = base
        #: the drifted view the feeders probe (starts undrifted)
        self.quantities = base
        self.regions = state_stream(seed, 2).integers(
            0, 4, size=scenario.nodes
        )
        self.hot_pair: Tuple[int, int] = (3, 7)
        self._traces: Dict[str, object] = {}

    def drift_to(self, draw: int) -> float:
        """Re-derive the drifted matrix from one schedule sub-seed.

        Geo-correlated drift: one lognormal factor per *region pair*
        (symmetrized), broadcast to every node pair in those regions —
        latency between two areas of the network shifts together.
        Returns the maximum factor for the run log.
        """
        rng = np.random.default_rng(int(draw))
        blocks = int(self.regions.max()) + 1
        factors = rng.lognormal(mean=0.0, sigma=0.25, size=(blocks, blocks))
        factors = (factors + factors.T) / 2.0
        field = factors[self.regions[:, None], self.regions[None, :]]
        self.quantities = self.base_quantities * field
        return float(factors.max())

    def liars_for(self, phase_index: int, fraction: float) -> List[int]:
        """The phase's Byzantine set: non-protected ids, seeded draw."""
        scenario = self.scenario
        pool = np.arange(scenario.protect, scenario.nodes)
        count = int(round(float(fraction) * pool.size))
        if count <= 0:
            return []
        picks = state_stream(self.seed, 16 + phase_index).choice(
            pool, size=count, replace=False
        )
        return sorted(int(p) for p in picks)

    def trace_for(self, source: str, n_samples: int):
        """The named replay trace, built once per run (seeded slots)."""
        if source not in self._traces:
            nodes = self.scenario.nodes
            if source == "meridian":
                dataset = load_meridian(
                    n_hosts=nodes, rng=state_stream(self.seed, 4)
                )
                trace = trace_from_matrix(
                    dataset.quantities,
                    n_samples=max(n_samples, 1),
                    rng=state_stream(self.seed, 6),
                )
            elif source == "harvard":
                trace = load_harvard(
                    n_hosts=nodes,
                    n_samples=max(n_samples, 1),
                    rng=state_stream(self.seed, 5),
                ).trace
            else:
                raise ValueError(
                    f"unknown trace source {source!r}; "
                    "expected meridian/harvard"
                )
            self._traces[source] = trace
        return self._traces[source]


class _PhaseFeeder:
    """One phase's traffic driver behind a uniform ``feed(count)``."""

    def __init__(
        self,
        scenario: Scenario,
        phase: Phase,
        phase_index: int,
        state: _WorldState,
        plane,
    ) -> None:
        self.kind = phase.traffic
        self.driver = None
        params = dict(phase.traffic_params)
        rng = traffic_stream(state.seed, phase_index)
        if self.kind == "uniform":
            self.driver = LiveFeedDriver(
                state.quantities,
                plane,
                neighbors=_NEIGHBORS,
                jitter=float(params.get("jitter", 0.0)),
                rng=rng,
            )
            self._feed = self.driver.step_samples
        elif self.kind == "drift":
            self.driver = LiveFeedDriver(
                state.quantities,
                plane,
                neighbors=_NEIGHBORS,
                jitter=float(params.get("jitter", 0.05)),
                rng=rng,
            )
            self._feed = self.driver.step_samples
        elif self.kind == "hot_pair":
            self.driver = HotPairDriver(
                state.quantities,
                plane,
                state.hot_pair,
                background=float(params.get("background", 0.5)),
                rng=rng,
            )
            self._feed = lambda count: self.driver.run(count, burst=128)
        elif self.kind == "poison":
            liars = state.liars_for(
                phase_index, float(params.get("liar_fraction", 0.0))
            )
            self.driver = ByzantineDriver(
                state.quantities,
                plane,
                liars,
                scale=float(params.get("scale", 40.0)),
                garbage_rate=float(params.get("garbage_rate", 0.0)),
                rng=rng,
            )
            self._feed = self.driver.feed
        elif self.kind == "trace":
            total = sum(
                phase.load.samples_at(t) for t in range(phase.ticks)
            )
            trace = state.trace_for(str(params["source"]), total)
            cursor = [0]
            length = len(trace)

            def _replay(count: int) -> int:
                idx = (cursor[0] + np.arange(count)) % length
                cursor[0] += count
                plane.submit_many(
                    trace.sources[idx], trace.targets[idx], trace.values[idx]
                )
                return int(count)

            self._feed = _replay
        else:  # pragma: no cover - Phase validates traffic kinds
            raise ValueError(f"unknown traffic kind {self.kind!r}")

    def feed(self, count: int) -> int:
        return self._feed(count)

    def tallies(self) -> Dict[str, int]:
        """The driver's deterministic cumulative counters."""
        out: Dict[str, int] = {}
        for key in (
            "samples_fed",
            "outliers_fed",
            "hot_fed",
            "honest_fed",
            "poisoned_fed",
            "garbage_fed",
        ):
            value = getattr(self.driver, key, None)
            if value is not None:
                out[key] = int(value)
        return out


# ----------------------------------------------------------------------
# the run loop
# ----------------------------------------------------------------------


def _fired_digest(fired: List[ScheduledEvent]) -> str:
    """Same canonical hash as :meth:`Schedule.digest`, over fired events."""
    canonical = json.dumps(
        [event.as_dict() for event in fired],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _membership_ops(schedule: Schedule) -> List[Tuple[str, Optional[int]]]:
    """The schedule's join/leave events as a ChurnDriver op list."""
    ops: List[Tuple[str, Optional[int]]] = []
    for event in schedule.events:
        if event.action == "leave":
            ops.append(("leave", int(event.param("nodes")[0])))
        elif event.action == "join":
            ops.append(("join", None))
    return ops


def _transition_counts(plane) -> Dict[str, int]:
    topology = getattr(plane, "topology", None)
    if topology is None:
        return {"splits": 0, "merges": 0}
    transitions = topology().get("transitions", [])
    return {
        "splits": sum(1 for t in transitions if t.get("action") == "split"),
        "merges": sum(1 for t in transitions if t.get("action") == "merge"),
    }


def run_scenario(
    scenario,
    *,
    workers: str = "threads",
    seed: int = DEFAULT_SEED,
    cluster_groups: int = 2,
    guard_override: Optional[str] = None,
) -> Dict[str, object]:
    """Drive one scenario through one worker mode; return the payload.

    ``scenario`` is a name (looked up in the library) or a
    :class:`Scenario` (e.g. a :meth:`Scenario.subset` smoke slice).
    ``guard_override`` swaps the scenario's admission posture (the
    poison tests price the static *and* the adaptive path this way).

    The payload's ``"counters"`` section is bitwise-reproducible for a
    given ``(scenario, seed)`` — across runs *and* across the thread
    and process planes; ``compare.py --check`` gates exactly that,
    plus the standing invariants under ``"invariants"``.  Wall-clock
    numbers (``run_s``, ``fed_pps``) sit apart under ``"timing"``.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if guard_override is not None:
        scenario = replace(scenario, guard=guard_override)
    schedule = scenario.build_schedule(seed)
    state = _WorldState(scenario, seed)

    qrng = query_stream(seed)
    protect = scenario.protect
    qs = qrng.integers(0, protect, size=scenario.query_batch)
    qt = (
        qs + 1 + qrng.integers(0, protect - 1, size=scenario.query_batch)
    ) % protect

    handle = _build_plane(scenario, workers, seed, cluster_groups)
    plane = handle.plane
    churn: Optional[ChurnDriver] = None
    ops = _membership_ops(schedule)
    if ops:
        if handle.manager is None:
            raise ValueError(
                f"scenario {scenario.name!r} schedules membership events "
                f"but the {workers} plane has no membership manager"
            )
        churn = ChurnDriver(handle.manager, schedule=ops)

    fired: List[ScheduledEvent] = []
    event_counts = {
        "rotations": 0,
        "drift_steps": 0,
        "reshards": 0,
        "leaves": 0,
        "joins": 0,
    }
    offered_total = 0
    fed_total = 0
    queries_answered = 0
    torn_reads = 0
    version_rewinds = 0
    last_version = -1
    tallies: Dict[str, int] = {}
    feeder: Optional[_PhaseFeeder] = None
    current_phase = -1

    started = time.perf_counter()
    try:
        total_ticks = scenario.total_ticks
        for tick in range(total_ticks):
            phase_index, phase, local = scenario.phase_at(tick)
            if phase_index != current_phase:
                if feeder is not None:
                    for key, value in feeder.tallies().items():
                        tallies[key] = tallies.get(key, 0) + value
                feeder = _PhaseFeeder(
                    scenario, phase, phase_index, state, plane
                )
                current_phase = phase_index

            for event in schedule.at(tick):
                if event.action == "rotate_hot_pair":
                    pair = tuple(int(i) for i in event.param("nodes"))
                    state.hot_pair = pair
                    if feeder.kind == "hot_pair":
                        feeder.driver.retarget(pair)
                    event_counts["rotations"] += 1
                elif event.action == "drift_step":
                    state.drift_to(int(event.param("draw")[0]))
                    if feeder.kind in ("drift", "uniform"):
                        feeder.driver.set_quantities(state.quantities)
                    event_counts["drift_steps"] += 1
                elif event.action == "set_shards":
                    plane.set_shard_count(
                        int(event.param("target")), reason="scenario"
                    )
                    event_counts["reshards"] += 1
                elif event.action == "leave":
                    churn.step()
                    event_counts["leaves"] += 1
                elif event.action == "join":
                    churn.step()
                    event_counts["joins"] += 1
                fired.append(event)

            offered = phase.load.samples_at(local)
            offered_total += offered
            if offered > 0:
                fed_total += feeder.feed(offered)

            drain = getattr(plane, "drain", None)
            if drain is not None:
                drain()
            plane.flush()
            if (tick + 1) % scenario.publish_every == 0 or (
                tick + 1 == total_ticks
            ):
                plane.publish()

            try:
                snapshot = handle.reader.snapshot()
                estimates = snapshot.estimate_pairs(qs, qt)
                version = int(snapshot.version)
                if version < last_version:
                    version_rewinds += 1
                last_version = max(last_version, version)
                if np.all(np.isfinite(estimates)):
                    queries_answered += 1
                else:
                    torn_reads += 1
            except Exception:
                torn_reads += 1

        if feeder is not None:
            for key, value in feeder.tallies().items():
                tallies[key] = tallies.get(key, 0) + value
        elapsed = time.perf_counter() - started
        payload_stats = plane.stats_payload()
        transitions = _transition_counts(plane)
    finally:
        handle.close()

    ingest = payload_stats["ingest"]
    executed_digest = _fired_digest(fired)
    availability = (
        queries_answered / total_ticks if total_ticks else 0.0
    )

    counters: Dict[str, object] = {
        "offered": int(offered_total),
        "fed": int(fed_total),
        "received": int(ingest["received"]),
        "applied": int(ingest["applied"]),
        "deduped": int(ingest["deduped"]),
        "rejected_guard": int(ingest["rejected_guard"]),
        "dropped_invalid": int(ingest["dropped_invalid"]),
        "dropped_nan": int(ingest["dropped_nan"]),
        "dropped_membership": int(ingest.get("dropped_membership", 0)),
        "events_fired": len(fired),
        "queries_total": int(scenario.total_ticks),
        "queries_answered": int(queries_answered),
    }
    counters.update(
        {key: int(value) for key, value in sorted(event_counts.items())}
    )
    counters.update({key: int(value) for key, value in sorted(tallies.items())})
    if churn is not None:
        counters["churn_applied"] = churn.joins_done + churn.leaves_done
        counters["churn_failures"] = int(churn.failures)

    guard_section = None
    if scenario.guard != "none":
        guard = payload_stats.get("guard", {})
        admission = guard.get("admission") or {}
        guard_section = {
            "mode": scenario.guard,
            "deduped": int(guard.get("deduped", 0)),
            "rejected_total": int(guard.get("rejected_total", 0)),
            "admission_received": int(admission.get("received", 0)),
            "admission_admitted": int(admission.get("admitted", 0)),
            "admission_rejected": {
                str(k): int(v)
                for k, v in sorted((admission.get("rejected") or {}).items())
            },
        }

    return {
        "scenario": scenario.name,
        "workers": workers,
        "seed": int(seed),
        "nodes": int(scenario.nodes),
        "shards_initial": int(scenario.shards),
        "guard": scenario.guard,
        "ticks": int(scenario.total_ticks),
        "phases": [
            {"name": p.name, "ticks": p.ticks, "traffic": p.traffic}
            for p in scenario.phases
        ],
        "schedule": schedule.as_dict(),
        "executed_digest": executed_digest,
        "digest_match": executed_digest == schedule.digest(),
        "counters": counters,
        "guard_breakdown": guard_section,
        "invariants": {
            "availability": float(availability),
            "min_availability": MIN_AVAILABILITY,
            "torn_reads": int(torn_reads),
            "version_rewinds": int(version_rewinds),
            "ok": bool(
                availability >= MIN_AVAILABILITY
                and torn_reads == 0
                and version_rewinds == 0
            ),
        },
        "topology": transitions,
        "extra": {
            "clipped": int(ingest.get("clipped", 0)),
            "publishes": int(ingest.get("publishes", 0)),
            "dropped_backpressure": int(
                ingest.get("dropped_backpressure", 0)
            ),
            "final_version": int(last_version),
        },
        "timing": {
            "run_s": float(elapsed),
            "fed_pps": float(fed_total / elapsed) if elapsed else 0.0,
        },
    }
