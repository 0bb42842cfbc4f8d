"""Assembly of a complete serving stack from a dataset name.

``repro serve`` (and the examples) need the whole chain — dataset,
pre-trained engine, store, service, ingest + admission guard, gateway —
wired consistently; :func:`build_gateway` is that one-stop constructor.
The returned gateway is not yet started, so callers choose between
:meth:`~repro.serving.gateway.ServingGateway.start` (background thread,
tests/examples) and
:meth:`~repro.serving.gateway.ServingGateway.serve_forever` (blocking,
CLI).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import DMFSGDConfig
from repro.core.engine import DMFSGDEngine, EngineSpec, matrix_label_fn
from repro.measurement.classifier import ThresholdClassifier
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
from repro.serving.cluster import build_cluster
from repro.serving.ingest import IngestPipeline
from repro.serving.procs import (
    ProcessShardedIngest,
    ProcessShardedStore,
    WorkerSpec,
    WorkerSupervisor,
)
from repro.serving.service import PredictionService
from repro.serving.shard import ShardedCoordinateStore, ShardedIngest
from repro.serving.store import CoordinateStore

__all__ = ["build_gateway", "WORKER_MODES"]

#: ingest execution models selectable via ``repro serve --workers``
WORKER_MODES = ("threads", "processes")


def build_gateway(
    dataset: str = "meridian",
    *,
    nodes: Optional[int] = None,
    rounds: Optional[int] = None,
    good_fraction: Optional[float] = None,
    seed: int = 20111206,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_size: int = 4096,
    batch_size: int = 256,
    refresh_interval: int = 1000,
    checkpoint: Optional[str] = None,
    mode: str = "guarded",
    step_clip: Optional[float] = None,
    rate_limit: Optional[float] = None,
    rate_burst: Optional[float] = None,
    pair_rate_limit: Optional[float] = None,
    pair_rate_burst: Optional[float] = None,
    outlier_sigma: Optional[float] = None,
    reject_band: Optional[float] = None,
    guard_adaptive: bool = False,
    eval_window: int = 2000,
    save_checkpoint: Optional[str] = None,
    checkpoint_every: float = 60.0,
    shards: int = 1,
    queue_depth: int = 64,
    workers: str = "threads",
    mp_start_method: Optional[str] = None,
    coalesce_window: Optional[float] = None,
    backend: str = "threading",
    allow_membership: bool = False,
    autopilot: bool = False,
    autopilot_policy: Optional[str] = None,
    cluster_groups: int = 0,
    staleness_budget: float = 0.5,
    deadline_s: Optional[float] = None,
    shed_watermark: Optional[float] = None,
    chaos_plan: Optional[str] = None,
    trace: bool = False,
    verbose: bool = False,
) -> ServingGateway:
    """Pre-train a model on a synthetic dataset and wrap it for serving.

    Parameters
    ----------
    dataset:
        ``"harvard"``, ``"meridian"`` or ``"hps3"``.
    nodes:
        Node count (the experiments' sweep size when omitted).
    rounds:
        Pre-training rounds (``20 * k``, the paper's convergence
        point, when omitted; 0 skips pre-training and serves the
        random initialization — useful to watch ingest learn live).
    good_fraction:
        Sets ``tau`` so this fraction of paths is good (median when
        omitted).
    checkpoint:
        Optional path to a :meth:`~repro.serving.store.CoordinateStore.save`
        checkpoint; when given, the factors are loaded instead of
        pre-trained (the dataset still provides the classifier's
        ``tau`` and the ingest dimensions).
    mode:
        Ingest mode: ``"guarded"`` (default; within-batch dedup + the
        admission layer below) or ``"raw"`` (seed-faithful, disables
        guard options).
    step_clip:
        Per-pair coordinate-step L2 bound for guarded ingest.
    rate_limit, rate_burst:
        Per-source token-bucket admission (tokens/second and bucket
        capacity); omitted = no rate limiting.
    pair_rate_limit, pair_rate_burst:
        Per-``(source, target)`` token buckets (hash-indexed dense
        table) catching distributed hammering of one pair that the
        per-source buckets cannot see; omitted = no pair limiting.
    guard_adaptive:
        Derive ``step_clip`` and the sigma filter's multiplier from
        the online evaluator's sliding window
        (:class:`~repro.serving.guard.AdaptiveGuardTuner`) instead of
        keeping them static; requires a non-zero ``eval_window``.
    outlier_sigma:
        Sigma-rule streaming outlier rejection on measured quantities;
        omitted = no outlier filter.
    reject_band:
        Half-width of the ambiguity band around the classifier's
        ``tau`` to shed at admission (the Section 6.3
        :class:`~repro.measurement.errors.FlipNearThreshold` model as
        a rejection filter: quantities within ``tau +- reject_band``
        are where measurement tools misclassify); omitted = no band
        filter.
    eval_window:
        Sliding window of the online (class-mode) evaluator surfaced
        in ``/stats``; 0 disables online evaluation.
    save_checkpoint:
        Optional ``.npz`` path for periodic background checkpointing
        of the store (every ``checkpoint_every`` seconds while the
        gateway runs).  With ``shards > 1`` the checkpoint is
        shard-aware: one file, per-shard keys and versions.
    shards:
        Partition the serving state into this many node-id shards,
        each with its own admission pipeline on a dedicated worker
        thread behind a bounded queue (``repro.serving.shard``); 1
        keeps the single-store stack.
    queue_depth:
        Bounded per-shard ingest queue capacity (backpressure bound),
        sharded mode only.
    workers:
        Ingest execution model: ``"threads"`` (one worker thread per
        shard, the PR 3 stack — all SGD applies share this process's
        GIL) or ``"processes"`` (one worker *process* per shard with
        its factor slice in shared memory — true CPU parallelism; see
        :mod:`repro.serving.procs`).  ``"processes"`` implies the
        sharded stack even at ``shards=1``.
    mp_start_method:
        Process-mode start method (``"fork"``/``"spawn"``/
        ``"forkserver"``); default prefers ``fork``.  Prefer
        ``"spawn"`` for long-lived deployments relying on crash
        recovery — restarting a worker by forking a multi-threaded
        gateway risks inheriting a mid-held lock.
    coalesce_window:
        Seconds concurrent single ``GET /predict`` requests wait to
        share one vectorized batch gather; ``None`` disables.
    backend:
        Gateway transport: ``"threading"`` (persistent acceptor
        threads, keep-alive) or ``"selectors"`` (single-threaded
        non-blocking event loop).
    allow_membership:
        Enable the live join/leave endpoints
        (:mod:`repro.serving.membership`).  Membership runs on the
        sharded stack, so this forces it even at ``shards=1``; epoch
        transitions then grow/shrink the model without stopping ingest
        or queries.
    autopilot:
        Attach the :mod:`repro.serving.autopilot` control loop: sample
        the plane's queue fill / throughput / heartbeat signals and
        split or merge shards on sustained watermark crossings.  Runs
        on the mutable-topology sharded stack, so this forces it even
        at ``shards=1``; incompatible with ``cluster_groups`` (the
        cluster plane re-partitions via its partition book).  Without
        a policy file the default policy is anchored at the configured
        ``shards`` (``min_shards = shards``) so an idle deployment
        never merges below what the operator asked for.
    autopilot_policy:
        Optional JSON policy file for the autopilot
        (:meth:`~repro.serving.autopilot.AutopilotPolicy.from_file`);
        requires ``autopilot``.
    cluster_groups:
        Non-zero selects the cluster plane
        (:mod:`repro.serving.cluster`): this many worker groups behind
        a partition-book router, each an independent ``shards``-wide
        ingest stack of the chosen ``workers`` kind.  Queries are
        answered from the gateway's bounded-staleness mirror, ingest
        is forwarded to the owning group, and a SIGKILLed group is
        detected, routed around and restarted.  Incompatible with
        ``allow_membership``, ``guard_adaptive`` and ``eval_window``
        online evaluation (each group's admission runs locally).
    staleness_budget:
        Cluster mode only: seconds of mirror staleness the deployment
        accepts; the supervisor refreshes mirrors at half this budget.
    deadline_s:
        Per-request budget in seconds; a handled request exceeding it
        answers ``503 + Retry-After`` instead of a late success.
    shed_watermark:
        Queue-fill fraction in ``(0, 1]`` arming watermark-driven load
        shedding (ingest sheds at the watermark, batch estimates 0.1
        above it, single reads never); omitted = no shedding.
    chaos_plan:
        Path to a :class:`~repro.serving.faults.FaultPlan` JSON file.
        **The only way ``repro serve`` arms fault injection** — without
        this flag every fault hook stays the no-op fast path.
    trace:
        Arm per-request tracing (:mod:`repro.obs.tracing`): ``POST
        /ingest`` mints a span whose per-stage timestamps (accept,
        admit, queue-wait, apply, publish) surface under ``/stats``'s
        ``traces`` section.  Off by default — the untraced hot path
        pays a single branch.
    """
    from repro.experiments.common import PAPER_NEIGHBORS, get_dataset

    if mode == "raw":
        # surface the pipeline's raw-mode contract here instead of
        # silently serving without the protections the flags promised
        conflicting = {
            "step_clip": step_clip,
            "rate_limit": rate_limit,
            "rate_burst": rate_burst,
            "pair_rate_limit": pair_rate_limit,
            "pair_rate_burst": pair_rate_burst,
            "outlier_sigma": outlier_sigma,
            "reject_band": reject_band,
            "guard_adaptive": guard_adaptive or None,
        }
        given = [name for name, value in conflicting.items() if value is not None]
        if given:
            raise ValueError(
                f"mode='raw' is the unguarded fidelity mode: {', '.join(given)} "
                "would be ignored; drop the flag(s) or use mode='guarded'"
            )
    if rate_burst is not None and rate_limit is None:
        raise ValueError(
            "rate_burst sizes the token bucket that rate_limit creates; "
            "it would be ignored without rate_limit"
        )
    if pair_rate_burst is not None and pair_rate_limit is None:
        raise ValueError(
            "pair_rate_burst sizes the bucket that pair_rate_limit "
            "creates; it would be ignored without pair_rate_limit"
        )
    if guard_adaptive and not eval_window:
        raise ValueError(
            "guard_adaptive derives thresholds from the online "
            "evaluator's window; it needs eval_window > 0"
        )
    if workers not in WORKER_MODES:
        raise ValueError(
            f"workers must be one of {WORKER_MODES}, got {workers!r}"
        )
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if cluster_groups < 0:
        raise ValueError(
            f"cluster_groups must be >= 0, got {cluster_groups}"
        )
    if autopilot_policy is not None and not autopilot:
        raise ValueError(
            "autopilot_policy configures the autopilot control loop; "
            "it would be ignored without autopilot"
        )
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError(f"deadline_s must be positive, got {deadline_s}")
    if shed_watermark is not None and not 0.0 < shed_watermark <= 1.0:
        raise ValueError(
            f"shed_watermark must be in (0, 1], got {shed_watermark}"
        )
    if chaos_plan is not None:
        # the explicit opt-in: fault injection cannot arm any other way
        from repro.serving import faults

        faults.install(faults.FaultPlan.from_file(chaos_plan))
    if cluster_groups:
        if allow_membership:
            raise ValueError(
                "cluster mode re-partitions via the partition book; "
                "live membership is a single-group feature"
            )
        if guard_adaptive:
            raise ValueError(
                "guard_adaptive needs the shared online evaluator, "
                "which cluster mode does not run"
            )
        if autopilot:
            raise ValueError(
                "autopilot drives split/merge on a mutable-topology "
                "plane; cluster mode re-partitions via the partition "
                "book"
            )

    data = get_dataset(dataset, n_hosts=nodes, seed=seed)
    tau = (
        data.tau_for_good_fraction(good_fraction)
        if good_fraction is not None
        else data.median()
    )
    labels = data.class_matrix(tau)
    config = DMFSGDConfig.paper_defaults(dataset)
    engine = DMFSGDEngine(
        data.n,
        matrix_label_fn(labels),
        config,
        metric=data.metric,
        rng=seed,
    )
    def make_guard() -> Optional[AdmissionGuard]:
        """A fresh guard per consumer: guards are stateful, never shared."""
        if (
            rate_limit is None
            and pair_rate_limit is None
            and outlier_sigma is None
            and reject_band is None
        ):
            return None
        limiter = None
        if rate_limit is not None:
            limiter = TokenBucketRateLimiter(
                rate_limit,
                rate_burst if rate_burst is not None else max(32.0, rate_limit),
            )
        pair_limiter = None
        if pair_rate_limit is not None:
            pair_limiter = PairTokenBucketRateLimiter(
                pair_rate_limit,
                pair_rate_burst
                if pair_rate_burst is not None
                else max(8.0, pair_rate_limit),
            )
        filters = []
        if outlier_sigma is not None:
            filters.append(RobustSigmaFilter(outlier_sigma))
        if reject_band is not None:
            from repro.measurement.errors import FlipNearThreshold

            filters.append(NoiseBandFilter(FlipNearThreshold(tau, reject_band)))
        return AdmissionGuard(
            rate_limiter=limiter, pair_limiter=pair_limiter, filters=filters
        )

    if cluster_groups:
        # the cluster plane owns its stores/engines per group; the one
        # engine above only provides the pre-trained initial factors
        if checkpoint is None:
            if rounds is None:
                rounds = 20 * PAPER_NEIGHBORS.get(dataset, config.neighbors)
            if rounds > 0:
                engine.run(rounds=rounds)
        supervisor = build_cluster(
            None if checkpoint is not None else engine.coordinates,
            groups=cluster_groups,
            shards=shards,
            workers=workers,
            config=config,
            metric=data.metric,
            classify=ThresholdClassifier(data.metric, tau),
            batch_size=batch_size,
            refresh_interval=refresh_interval,
            mode=mode,
            step_clip=step_clip,
            guard_factory=make_guard,
            queue_depth=queue_depth,
            mp_start_method=mp_start_method,
            staleness_budget=staleness_budget,
            checkpoint=checkpoint,
            seed=seed,
        ).start()
        if supervisor.mirror.n != engine.n:
            supervisor.close()
            raise ValueError(
                f"checkpoint has {supervisor.mirror.n} nodes, "
                f"dataset has {engine.n}"
            )
        return ServingGateway(
            PredictionService(supervisor.mirror, cache_size=cache_size),
            supervisor.router,
            checkpointer=(
                BackgroundCheckpointer(
                    supervisor, save_checkpoint, interval=checkpoint_every
                )
                if save_checkpoint is not None
                else None
            ),
            host=host,
            port=port,
            backend=backend,
            coalesce_window=coalesce_window,
            deadline_s=deadline_s,
            shed_watermark=shed_watermark,
            trace=trace,
            verbose=verbose,
        )

    # membership and topology transitions ride the sharded stack's
    # epoch machinery, so --allow-membership/--autopilot promote a
    # single-shard deployment to it; process mode is sharded by
    # construction (one process per shard)
    processes = workers == "processes"
    sharded = shards > 1 or allow_membership or processes or autopilot
    if checkpoint is not None:
        if processes:
            # shm-backed restore; same single-npz shard format, same
            # re-partitioning warning on a shard-count change
            store = ProcessShardedStore.load(checkpoint, shards=shards)
        elif sharded:
            # shard-aware restore: accepts both sharded checkpoints
            # (re-partitioning with a warning on a shard-count change)
            # and plain single-store ones
            store = ShardedCoordinateStore.load(checkpoint, shards=shards)
        else:
            store = CoordinateStore.load(checkpoint)
        if store.n != engine.n:
            if not allow_membership:
                raise ValueError(
                    f"checkpoint has {store.n} nodes, dataset has {engine.n}"
                )
            # a membership deployment legitimately grows/shrinks away
            # from the dataset's size; adopt the checkpoint's universe
            table = store.snapshot().as_table()
            engine.resize_model(table.U, table.V)
        else:
            engine.coordinates = store.snapshot().as_table()
    else:
        if rounds is None:
            rounds = 20 * PAPER_NEIGHBORS.get(dataset, config.neighbors)
        if rounds > 0:
            engine.run(rounds=rounds)
        if processes:
            store = ProcessShardedStore.create(engine.coordinates, shards=shards)
        elif sharded:
            store = ShardedCoordinateStore(engine.coordinates, shards=shards)
        else:
            store = CoordinateStore(engine.coordinates)

    evaluator = (
        OnlineEvaluator("class", window=eval_window)
        if eval_window and not processes
        else None
    )
    checkpointer = (
        BackgroundCheckpointer(store, save_checkpoint, interval=checkpoint_every)
        if save_checkpoint is not None
        else None
    )

    service = PredictionService(store, cache_size=cache_size)
    classify = ThresholdClassifier(data.metric, tau)
    if processes:
        guards = [make_guard() for _ in range(store.shards)]
        spec = WorkerSpec(
            engine=EngineSpec.from_engine(engine, seed=seed),
            classify=classify,
            batch_size=batch_size,
            refresh_interval=refresh_interval,
            mode=mode,
            step_clip=step_clip,
            guards=None if guards[0] is None else guards,
            eval_mode="class" if eval_window else None,
            eval_window=eval_window,
            adaptive=guard_adaptive,
        )
        supervisor = WorkerSupervisor(
            store,
            spec,
            queue_depth=queue_depth,
            start_method=mp_start_method,
            # topology changes re-stride node ownership, so every
            # shard gets a freshly built guard after a split/merge
            guard_factory=lambda _shard: make_guard(),
        )
        supervisor.start()
        ingest = ProcessShardedIngest(store, supervisor)
    elif sharded:
        guards = [make_guard() for _ in range(store.shards)]
        ingest = ShardedIngest(
            engine,
            store,
            classify=classify,
            batch_size=batch_size,
            refresh_interval=refresh_interval,
            mode=mode,
            step_clip=step_clip,
            guards=None if guards[0] is None else guards,
            guard_factory=lambda _shard: make_guard(),
            evaluator=evaluator,
            adaptive=guard_adaptive,
            queue_depth=queue_depth,
        )
    else:
        ingest = IngestPipeline(
            engine,
            store,
            classify=classify,
            batch_size=batch_size,
            refresh_interval=refresh_interval,
            mode=mode,
            step_clip=step_clip,
            guard=make_guard(),
            evaluator=evaluator,
            adaptive=(
                AdaptiveGuardTuner(evaluator)
                if guard_adaptive and evaluator is not None
                else None
            ),
        )
    membership = None
    if allow_membership:
        from repro.serving.membership import MembershipManager

        membership = MembershipManager(
            ingest.engine if processes else engine, store, ingest, rng=seed
        )
    pilot = None
    if autopilot:
        from repro.serving.autopilot import Autopilot, AutopilotPolicy

        if autopilot_policy is not None:
            policy = AutopilotPolicy.from_file(autopilot_policy)
        else:
            # anchor the default policy at the configured shard count:
            # idle deployments never merge below the operator's ask
            policy = AutopilotPolicy(
                min_shards=shards, max_shards=max(8, shards)
            )
        pilot = Autopilot(ingest, policy)
    return ServingGateway(
        service,
        ingest,
        checkpointer=checkpointer,
        host=host,
        port=port,
        backend=backend,
        coalesce_window=coalesce_window,
        membership=membership,
        autopilot=pilot,
        deadline_s=deadline_s,
        shed_watermark=shed_watermark,
        trace=trace,
        verbose=verbose,
    )
