"""Online serving subsystem: a queryable, incrementally-updated service.

The offline pipeline ends with a trained factor pair ``(U, V)``; this
package turns that into the long-lived system the paper envisions —
every node's performance class towards every other node, predictable on
demand while fresh measurements keep improving the model:

* :mod:`repro.serving.store` — :class:`CoordinateStore`, versioned
  copy-on-write snapshots of the factors with save/load checkpointing;
* :mod:`repro.serving.service` — :class:`PredictionService`,
  single-pair / one-to-many / many-pair / full-batch prediction with a
  bounded, version-keyed LRU cache;
* :mod:`repro.serving.ingest` — :class:`IngestPipeline`, streaming
  measurements applied as incremental mini-batch SGD with a
  staleness-bounded refresh policy and a guarded (dedup + step-clip)
  default mode that keeps hot pairs from diverging the model;
* :mod:`repro.serving.guard` — the admission-control layer:
  :class:`AdmissionGuard` (per-source rate limiting + outlier
  rejection), :class:`OnlineEvaluator` (sliding-window drift metrics
  in ``/stats``) and :class:`BackgroundCheckpointer`;
* :mod:`repro.serving.shard` — the scale-out layer:
  :class:`ShardedCoordinateStore` (per-node-id partitions with
  lock-free RCU snapshot reads), :class:`ShardedIngest` (one guarded
  admission pipeline per shard behind a bounded queue on a dedicated
  worker thread) and :class:`RequestCoalescer` (concurrent single
  queries answered by one vectorized batch gather);
* :mod:`repro.serving.procs` — the process-per-shard layer:
  :class:`ProcessShardedStore` (per-shard factor slices in
  ``multiprocessing.shared_memory`` segments read through seqlocks),
  :class:`WorkerSupervisor` (spawn / health-check / restart-with-
  reattach / clean unlink) and :class:`ProcessShardedIngest` (the
  ``ShardedIngest`` surface over worker *processes* — true CPU
  parallelism for the SGD apply, selected by
  ``repro serve --workers processes``);
* :mod:`repro.serving.cluster` — the cluster plane:
  :class:`PartitionBook` (versioned ``src % P`` → named worker-group
  routing), :class:`MirrorStore` (each gateway's bounded-staleness
  read replica, pulled per group as plain :class:`ShardSnapshot`
  parts), :class:`RoutingGateway` (any gateway takes any traffic;
  ingest forwards to the owning group, reads never leave the mirror)
  and :class:`ClusterSupervisor` (heartbeat death detection,
  re-route-around with a distinct ``rejected_group_down`` reason, and
  restart-with-reattach), selected by ``repro serve --cluster G``;
* :mod:`repro.serving.membership` — :class:`MembershipManager`, the
  elastic-membership layer: live node join/leave applied as
  copy-on-write epoch transitions over the sharded store (warm-started
  joins, tombstone-then-compact leaves) without stopping ingest or
  queries;
* :mod:`repro.serving.plane` — :class:`ShardPlane`, the one protocol
  every sharding stack satisfies (snapshot reads, routed ingest,
  barrier, topology, health), :class:`RoutedIngestBase` (the shared
  routing/validation/**live-topology** half of both ingest stacks:
  ``set_shard_count`` / ``split_shard`` / ``merge_shards`` as atomic
  copy-on-write epoch transitions) and :func:`carried_versions`;
* :mod:`repro.serving.autopilot` — :class:`Autopilot`, the reconfig
  control loop (queue/throughput/heartbeat signals through an
  :class:`AutopilotPolicy` hysteresis, selected by ``repro serve
  --autopilot``) and :class:`PeriodicController`, the controller base
  it shares with :class:`AdaptiveGuardTuner`;
* :mod:`repro.serving.faults` — the fault plane:
  :class:`FaultInjector` / :class:`FaultPlan` (seeded, deterministic
  chaos injection at named fault points threaded through the stack —
  armed only by an explicit ``repro serve --chaos-plan`` or a direct
  ``faults.install``), :class:`CircuitBreaker` (closed/open/half-open
  isolation of flapping group transports) and :class:`LoadShedder`
  (watermark-driven overload shedding on the queue-fill signal);
* :mod:`repro.serving.gateway` — :class:`ServingGateway`, a
  stdlib-only JSON/HTTP frontend (``repro serve``) with two
  transports: ``threading`` (persistent acceptor threads, HTTP/1.1
  keep-alive) and a single-threaded non-blocking ``selectors`` event
  loop, plus
  per-request deadlines and 503 + Retry-After overload answers;
* :mod:`repro.serving.client` — :class:`ServingClient`, the matching
  :mod:`urllib` client;
* :mod:`repro.serving.app` — :func:`build_gateway`, the one-stop
  dataset-to-gateway assembler.

Quick start::

    from repro.serving import build_gateway, ServingClient

    with build_gateway("meridian", nodes=120, port=0) as gateway:
        client = ServingClient(gateway.url)
        print(client.predict(3, 17))         # {'estimate': ..., 'label': 1, ...}
        print(client.estimate_batch([(3, 17), (4, 9)]))  # one gather
        client.ingest([(3, 17, 250.0)] * 64) # stream new measurements
        client.refresh()                     # publish -> new version
        print(client.stats()["guard"])       # admission-control activity
"""

from repro.serving.app import build_gateway
from repro.serving.autopilot import Autopilot, AutopilotPolicy, PeriodicController
from repro.serving.client import GatewayError, ServingClient
from repro.serving.cluster import (
    BreakerTransport,
    ClusterSupervisor,
    GroupTransport,
    LocalGroupTransport,
    MirrorStore,
    PartitionBook,
    RoutingGateway,
    WorkerGroup,
    build_cluster,
)
from repro.serving.faults import (
    BreakerOpenError,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
    LoadShedder,
)
from repro.serving.gateway import ServingGateway
from repro.serving.guard import (
    AdaptiveGuardTuner,
    AdmissionGuard,
    BackgroundCheckpointer,
    NoiseBandFilter,
    OnlineEvaluator,
    PairTokenBucketRateLimiter,
    RobustSigmaFilter,
    TokenBucketRateLimiter,
)
from repro.serving.ingest import IngestPipeline, IngestStats
from repro.serving.membership import MembershipManager
from repro.serving.procs import (
    FactorSegment,
    ProcessShardedIngest,
    ProcessShardedStore,
    WorkerSpec,
    WorkerSupervisor,
)
from repro.serving.plane import RoutedIngestBase, ShardPlane, carried_versions
from repro.serving.shard import (
    RequestCoalescer,
    ShardedCoordinateStore,
    ShardedIngest,
    ShardedSnapshot,
    ShardSnapshot,
    shard_of,
)
from repro.serving.service import (
    BatchPrediction,
    PairPrediction,
    PredictionService,
    RowPrediction,
    ServiceStats,
)
from repro.serving.store import (
    CheckpointError,
    CoordinateSnapshot,
    CoordinateStore,
    atomic_savez,
    open_checkpoint,
)

__all__ = [
    "build_gateway",
    "GatewayError",
    "ServingClient",
    "ServingGateway",
    "Autopilot",
    "AutopilotPolicy",
    "PeriodicController",
    "ShardPlane",
    "RoutedIngestBase",
    "carried_versions",
    "build_cluster",
    "BreakerOpenError",
    "BreakerTransport",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "LoadShedder",
    "ClusterSupervisor",
    "GroupTransport",
    "LocalGroupTransport",
    "MirrorStore",
    "PartitionBook",
    "RoutingGateway",
    "WorkerGroup",
    "AdaptiveGuardTuner",
    "AdmissionGuard",
    "BackgroundCheckpointer",
    "NoiseBandFilter",
    "OnlineEvaluator",
    "PairTokenBucketRateLimiter",
    "RobustSigmaFilter",
    "TokenBucketRateLimiter",
    "IngestPipeline",
    "IngestStats",
    "MembershipManager",
    "FactorSegment",
    "ProcessShardedIngest",
    "ProcessShardedStore",
    "WorkerSpec",
    "WorkerSupervisor",
    "RequestCoalescer",
    "ShardedCoordinateStore",
    "ShardedIngest",
    "ShardedSnapshot",
    "ShardSnapshot",
    "shard_of",
    "BatchPrediction",
    "PairPrediction",
    "PredictionService",
    "RowPrediction",
    "ServiceStats",
    "CheckpointError",
    "CoordinateSnapshot",
    "CoordinateStore",
    "atomic_savez",
    "open_checkpoint",
]
