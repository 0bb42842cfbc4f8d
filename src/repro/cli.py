"""Command-line interface: ``python -m repro <command>``.

The commands cover the everyday workflows:

* ``datasets`` — generate the synthetic datasets and print their vitals;
* ``train`` — train one DMFSGD model and report AUC / accuracy /
  confusion matrix;
* ``experiment`` — run a paper table/figure reproduction by id and
  print the same rows the paper reports;
* ``serve`` — pre-train a model and run the online prediction gateway
  (:mod:`repro.serving`), optionally as a multi-group cluster plane
  (``--cluster G``);
* ``cluster-status`` — query a running cluster gateway's per-group
  health, heartbeat age, breaker state, mirror lag and routing
  counters;
* ``top`` — live terminal view of a running gateway's telemetry
  (ingest rates, shard table, latency quantiles, slowest traces);
* ``bench`` — drive a named workload scenario
  (:mod:`repro.scenarios`) through the serving planes and write its
  ``BENCH_scenario_<name>.json``.

Examples::

    python -m repro datasets --nodes 200
    python -m repro train --dataset hps3 --rounds 300
    python -m repro experiment table2
    python -m repro experiment list
    python -m repro serve --dataset meridian --nodes 200 --port 8787
    python -m repro serve --cluster 2 --workers processes --shards 2
    python -m repro cluster-status --url http://127.0.0.1:8787
    python -m repro top --url http://127.0.0.1:8787
    python -m repro bench --list
    python -m repro bench --scenario diurnal --workers both
    python -m repro bench --scenario poison --workers threads --cluster 2
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro import __version__

__all__ = ["main", "build_parser", "EXPERIMENTS"]


def _experiment_registry() -> Dict[str, Tuple[Callable, Callable]]:
    """Lazy registry: experiment id -> (run, format_result)."""
    from repro.experiments import (
        ablations,
        ext_applications,
        ext_dynamics,
        ext_multiclass,
        ext_robustness,
        fig1_rank,
        fig3_learning,
        fig4_parameters,
        fig5_accuracy,
        fig6_robustness,
        fig7_peer_selection,
        table1_thresholds,
        table2_confusion,
        table3_deltas,
    )

    return {
        "fig1": (fig1_rank.run, fig1_rank.format_result),
        "table1": (table1_thresholds.run, table1_thresholds.format_result),
        "fig3": (fig3_learning.run, fig3_learning.format_result),
        "fig4": (fig4_parameters.run, fig4_parameters.format_result),
        "fig5": (fig5_accuracy.run, fig5_accuracy.format_result),
        "table2": (table2_confusion.run, table2_confusion.format_result),
        "table3": (table3_deltas.run, table3_deltas.format_result),
        "fig6": (fig6_robustness.run, fig6_robustness.format_result),
        "fig7": (fig7_peer_selection.run, fig7_peer_selection.format_result),
        "ablation-engines": (
            ablations.run_engine_vs_protocol,
            ablations.format_result,
        ),
        "ablation-baselines": (ablations.run_baselines, ablations.format_result),
        "ablation-landmarks": (
            ext_applications.run_landmarks,
            ext_applications.format_result,
        ),
        "ablation-schedules": (
            ext_robustness.run_schedules,
            ext_robustness.format_result,
        ),
        "ablation-probing": (
            ablations.run_probe_strategies,
            ablations.format_result,
        ),
        "multiclass": (ext_multiclass.run, ext_multiclass.format_result),
        "consensus": (ext_robustness.run_consensus, ext_robustness.format_result),
        "churn": (ext_robustness.run_churn, ext_robustness.format_result),
        "overlay": (ext_applications.run_overlay, ext_applications.format_result),
        "dynamics": (ext_dynamics.run, ext_dynamics.format_result),
    }


#: Public experiment ids (kept in the paper's presentation order).
EXPERIMENTS = (
    "fig1",
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "table2",
    "table3",
    "fig6",
    "fig7",
    "ablation-engines",
    "ablation-baselines",
    "ablation-landmarks",
    "ablation-schedules",
    "ablation-probing",
    "multiclass",
    "consensus",
    "churn",
    "overlay",
    "dynamics",
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "DMFSGD — decentralized prediction of end-to-end network "
            "performance classes (CoNEXT 2011 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    datasets = commands.add_parser(
        "datasets", help="generate the synthetic datasets and show vitals"
    )
    datasets.add_argument(
        "--nodes", type=int, default=None, help="override node count"
    )
    datasets.add_argument("--seed", type=int, default=20111206)

    train = commands.add_parser("train", help="train one DMFSGD model")
    train.add_argument(
        "--dataset",
        choices=["harvard", "meridian", "hps3"],
        default="meridian",
    )
    train.add_argument("--nodes", type=int, default=None)
    train.add_argument("--rank", type=int, default=10)
    train.add_argument("--eta", type=float, default=0.1)
    train.add_argument("--reg", type=float, default=0.1, metavar="LAMBDA")
    train.add_argument(
        "--loss", choices=["logistic", "hinge", "l2"], default="logistic"
    )
    train.add_argument("--neighbors", type=int, default=None, metavar="K")
    train.add_argument("--rounds", type=int, default=None)
    train.add_argument(
        "--good-fraction",
        type=float,
        default=None,
        help="set tau so this fraction of paths is good (default median)",
    )
    train.add_argument(
        "--trace",
        action="store_true",
        help="Harvard only: replay the dynamic trace",
    )
    train.add_argument("--seed", type=int, default=20111206)

    experiment = commands.add_parser(
        "experiment", help="reproduce a paper table/figure by id"
    )
    experiment.add_argument(
        "id", help="experiment id, or 'list' to enumerate them"
    )
    experiment.add_argument("--seed", type=int, default=20111206)

    serve = commands.add_parser(
        "serve", help="run the online prediction gateway (repro.serving)"
    )
    serve.add_argument(
        "--dataset",
        choices=["harvard", "meridian", "hps3"],
        default="meridian",
    )
    serve.add_argument("--nodes", type=int, default=None)
    serve.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="pre-training rounds (default 20*k; 0 serves untrained)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787, help="0 picks a free port"
    )
    serve.add_argument("--cache-size", type=int, default=4096)
    serve.add_argument("--batch-size", type=int, default=256)
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="P",
        help="partition the serving state into P node-id shards, each "
        "with its own admission pipeline on a dedicated worker thread "
        "(1 = single-store stack)",
    )
    serve.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="G",
        help="run the cluster plane: G worker groups (each a full "
        "--shards-wide ingest stack of the chosen --workers kind) "
        "behind a partition-book router; queries are answered from a "
        "bounded-staleness mirror, dead groups are detected, routed "
        "around and restarted (0 = single-group stack)",
    )
    serve.add_argument(
        "--staleness-budget",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="cluster mode: seconds of mirror staleness the deployment "
        "accepts (mirrors refresh at half this budget)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="bounded per-shard ingest queue capacity (backpressure)",
    )
    serve.add_argument(
        "--workers",
        choices=["threads", "processes"],
        default="threads",
        help="shard worker execution model: threads (GIL-shared, the "
        "default) or processes (one worker process per shard with its "
        "factor slice in shared memory — true CPU parallelism)",
    )
    serve.add_argument(
        "--mp-start-method",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help="process-mode start method (default fork; prefer spawn "
        "for long-lived deployments relying on crash recovery)",
    )
    serve.add_argument(
        "--coalesce-window",
        type=float,
        default=None,
        metavar="MS",
        help="batch concurrent single GET /predict requests arriving "
        "within this many milliseconds into one vectorized gather",
    )
    serve.add_argument(
        "--backend",
        choices=["threading", "selectors"],
        default="threading",
        help="gateway transport: persistent acceptor threads with "
        "HTTP/1.1 keep-alive (threading) or a single-threaded "
        "non-blocking event loop (selectors)",
    )
    serve.add_argument(
        "--allow-membership",
        action="store_true",
        help="enable live node join/leave (POST /membership/join|leave): "
        "epoch transitions grow/shrink the model without stopping "
        "ingest or queries",
    )
    serve.add_argument(
        "--autopilot",
        action="store_true",
        help="run the reconfig control loop: sample queue fill / "
        "throughput / heartbeat signals and split or merge shards on "
        "sustained watermark crossings (repro.serving.autopilot)",
    )
    serve.add_argument(
        "--autopilot-policy",
        default=None,
        metavar="PATH",
        help="JSON policy file for --autopilot (watermarks, patience, "
        "cooldown, shard bounds; unknown keys rejected)",
    )
    serve.add_argument(
        "--refresh-every",
        type=int,
        default=1000,
        metavar="N",
        help="publish a new snapshot every N ingested measurements",
    )
    serve.add_argument(
        "--checkpoint",
        default=None,
        help="load factors from a CoordinateStore .npz instead of training",
    )
    serve.add_argument(
        "--raw-ingest",
        action="store_true",
        help="disable the admission guard (seed-faithful ingest: every "
        "duplicate counted, no clip/rate-limit/outlier rejection)",
    )
    serve.add_argument(
        "--step-clip",
        type=float,
        default=None,
        metavar="NORM",
        help="per-pair L2 bound on each SGD coordinate step",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="PER_SEC",
        help="per-source token-bucket rate limit (measurements/second)",
    )
    serve.add_argument(
        "--rate-burst",
        type=float,
        default=None,
        metavar="N",
        help="token-bucket capacity (default max(32, rate))",
    )
    serve.add_argument(
        "--pair-rate-limit",
        type=float,
        default=None,
        metavar="PER_SEC",
        help="per-(source,target)-pair token-bucket rate limit "
        "(catches distributed hammering of one pair)",
    )
    serve.add_argument(
        "--pair-rate-burst",
        type=float,
        default=None,
        metavar="N",
        help="pair token-bucket capacity (default max(8, rate))",
    )
    serve.add_argument(
        "--guard-adaptive",
        action="store_true",
        help="derive step-clip and sigma thresholds from the online "
        "evaluator's sliding window instead of static values",
    )
    serve.add_argument(
        "--outlier-sigma",
        type=float,
        default=None,
        metavar="SIGMA",
        help="reject measured quantities beyond SIGMA robust stddevs",
    )
    serve.add_argument(
        "--reject-band",
        type=float,
        default=None,
        metavar="DELTA",
        help="shed quantities within tau +- DELTA (the Section 6.3 "
        "near-threshold ambiguity band) at admission",
    )
    serve.add_argument(
        "--eval-window",
        type=int,
        default=2000,
        metavar="N",
        help="sliding-window size of the online AUC evaluator in /stats "
        "(0 disables)",
    )
    serve.add_argument(
        "--save-checkpoint",
        default=None,
        metavar="PATH",
        help="periodically checkpoint the store to this .npz while serving",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="background checkpoint interval (with --save-checkpoint)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="MS",
        help="per-request budget in milliseconds: a handled request "
        "exceeding it answers 503 + Retry-After instead of a late "
        "success",
    )
    serve.add_argument(
        "--shed-watermark",
        type=float,
        default=None,
        metavar="FILL",
        help="queue-fill fraction (0, 1] arming load shedding: ingest "
        "sheds at FILL, batch estimates at FILL+0.1, single reads "
        "never (503 + Retry-After)",
    )
    serve.add_argument(
        "--chaos-plan",
        default=None,
        metavar="PATH",
        help="arm deterministic fault injection from a FaultPlan JSON "
        "file (seeded rules firing at named fault points); the ONLY "
        "way to enable injection — without it every hook is a no-op",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="arm per-request tracing: POST /ingest mints a span whose "
        "per-stage timestamps (accept/admit/queue/apply/publish) "
        "surface in /stats under 'traces'; off = one-branch fast path",
    )
    serve.add_argument("--seed", type=int, default=20111206)

    cluster_status = commands.add_parser(
        "cluster-status",
        help="print a running cluster gateway's per-group health",
    )
    cluster_status.add_argument(
        "--url",
        default="http://127.0.0.1:8787",
        help="gateway base URL (default http://127.0.0.1:8787)",
    )
    cluster_status.add_argument(
        "--json",
        action="store_true",
        help="print the raw cluster section as JSON",
    )

    top = commands.add_parser(
        "top",
        help="live terminal view of a running gateway's telemetry",
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8787",
        help="gateway base URL (default http://127.0.0.1:8787)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval (default 2s)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (no screen clearing)",
    )

    report = commands.add_parser(
        "report", help="run experiments and write a markdown report"
    )
    report.add_argument(
        "--output", default="report.md", help="output markdown file"
    )
    report.add_argument(
        "--only",
        default=None,
        help="comma-separated experiment ids (default: all)",
    )
    report.add_argument("--seed", type=int, default=20111206)

    bench = commands.add_parser(
        "bench",
        help=(
            "drive a named workload scenario through the serving planes "
            "and write BENCH_scenario_<name>.json"
        ),
    )
    bench.add_argument(
        "--scenario",
        default=None,
        help="scenario name (see --list)",
    )
    bench.add_argument(
        "--list",
        action="store_true",
        help="list the named scenarios and exit",
    )
    bench.add_argument(
        "--workers",
        default="both",
        choices=["threads", "processes", "both"],
        help="worker mode(s) to run (default: both)",
    )
    bench.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="G",
        help=(
            "also run on a G-group cluster plane "
            "(scenarios that support it)"
        ),
    )
    bench.add_argument("--seed", type=int, default=20111206)
    bench.add_argument(
        "--output",
        default=None,
        help=(
            "output JSON path "
            "(default: .bench_out/BENCH_scenario_<name>.json)"
        ),
    )
    bench.add_argument(
        "--autopilot",
        action="store_true",
        help=(
            "flash_crowd only: also run the realtime autopilot "
            "split/merge gate"
        ),
    )
    return parser


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.experiments.common import DATASET_NAMES, get_dataset
    from repro.utils.tables import format_table

    rows: List[List[object]] = []
    for name in DATASET_NAMES:
        dataset = get_dataset(name, n_hosts=args.nodes, seed=args.seed)
        rows.append(
            [
                name,
                dataset.metric.value,
                dataset.n,
                f"{dataset.median():.1f} {dataset.metric.unit}",
                f"{dataset.density():.1%}",
                f"{dataset.good_fraction():.0%}",
            ]
        )
    print(
        format_table(
            rows,
            headers=["dataset", "metric", "nodes", "median", "density", "good@median"],
        )
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.evaluation import confusion_matrix
    from repro.experiments.common import get_dataset, train_classifier

    if args.loss == "l2":
        print("note: --loss l2 trains the quantity-based variant", file=sys.stderr)

    tau = None
    if args.good_fraction is not None:
        dataset = get_dataset(args.dataset, n_hosts=args.nodes, seed=args.seed)
        tau = dataset.tau_for_good_fraction(args.good_fraction)

    run = train_classifier(
        args.dataset,
        tau=tau,
        rounds=args.rounds,
        use_trace=args.trace,
        n_hosts=args.nodes,
        seed=args.seed,
        rank=args.rank,
        learning_rate=args.eta,
        regularization=args.reg,
        loss=args.loss,
        **({"neighbors": args.neighbors} if args.neighbors else {}),
    )
    print(f"dataset : {run.dataset}")
    print(f"tau     : {run.tau:.1f} {run.dataset.metric.unit}")
    print(f"AUC     : {run.auc:.3f}")
    print(confusion_matrix(run.truth_labels, run.result.predicted_classes()).as_text())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    if args.id == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.id not in registry:
        available = "\n  ".join(EXPERIMENTS)
        print(
            f"unknown experiment {args.id!r}; available ids:\n  {available}",
            file=sys.stderr,
        )
        return 2
    run, format_result = registry[args.id]
    result = run(seed=args.seed)
    print(format_result(result))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    print(
        f"building {args.dataset} model "
        f"(nodes={args.nodes or 'default'}, rounds={args.rounds if args.rounds is not None else 'default'}) ...",
        file=sys.stderr,
    )
    try:
        gateway = _build_serve_gateway(args)
    except ValueError as error:
        # flag incompatibilities surface as one clear line, not a trace
        print(f"serve: {error}", file=sys.stderr)
        return 2
    print(f"serving on {gateway.url}", file=sys.stderr)
    print(
        f"try: curl '{gateway.url}/predict?src=0&dst=1'",
        file=sys.stderr,
    )
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        gateway.stop()
    return 0


def _build_serve_gateway(args: argparse.Namespace):
    from repro.serving import build_gateway

    return build_gateway(
        args.dataset,
        nodes=args.nodes,
        rounds=args.rounds,
        seed=args.seed,
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        batch_size=args.batch_size,
        refresh_interval=args.refresh_every,
        checkpoint=args.checkpoint,
        mode="raw" if args.raw_ingest else "guarded",
        step_clip=args.step_clip,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        pair_rate_limit=args.pair_rate_limit,
        pair_rate_burst=args.pair_rate_burst,
        guard_adaptive=args.guard_adaptive,
        outlier_sigma=args.outlier_sigma,
        reject_band=args.reject_band,
        eval_window=args.eval_window,
        save_checkpoint=args.save_checkpoint,
        checkpoint_every=args.checkpoint_every,
        shards=args.shards,
        queue_depth=args.queue_depth,
        workers=args.workers,
        mp_start_method=args.mp_start_method,
        coalesce_window=(
            args.coalesce_window / 1000.0
            if args.coalesce_window is not None
            else None
        ),
        backend=args.backend,
        allow_membership=args.allow_membership,
        autopilot=args.autopilot,
        autopilot_policy=args.autopilot_policy,
        cluster_groups=args.cluster,
        staleness_budget=args.staleness_budget,
        deadline_s=(
            args.deadline / 1000.0 if args.deadline is not None else None
        ),
        shed_watermark=args.shed_watermark,
        chaos_plan=args.chaos_plan,
        trace=args.trace,
    )


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    import json

    from repro.serving import GatewayError, ServingClient
    from repro.utils.tables import format_table

    client = ServingClient(args.url)
    try:
        cluster = client.cluster_status()
    except GatewayError as error:
        print(f"{args.url}: {error}", file=sys.stderr)
        return 2
    except KeyError:
        print(f"{args.url}: gateway is sharded but not clustered", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"{args.url}: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(cluster, indent=2))
        return 0
    book = cluster["partition_book"]
    mirror = cluster["mirror"]
    print(
        f"partition book v{book['version']}: {book['partitions']} group(s); "
        f"mirror v{mirror['version']} "
        f"(budget {mirror['staleness_budget_s']}s, "
        f"{mirror['pulls']} pulls, {mirror['pull_failures']} failures)"
    )
    rows: List[List[object]] = []
    for group in cluster["groups"]:
        breaker = group.get("breaker") or {}
        rows.append(
            [
                group.get("group"),
                "up" if group.get("alive") else "DOWN",
                ",".join(str(pid) for pid in group.get("pids", [])) or "-",
                group.get("version"),
                f"{group.get('heartbeat_age_s', 0):.3f}",
                breaker.get("state", "-"),
                group.get("mirror_version_lag"),
                f"{group.get('mirror_age_s', 0):.3f}",
                group.get("forwarded"),
                group.get("rejected_group_down"),
                group.get("restarts"),
            ]
        )
    print(
        format_table(
            rows,
            headers=[
                "group",
                "state",
                "pids",
                "version",
                "hb age s",
                "breaker",
                "mirror lag",
                "mirror age s",
                "forwarded",
                "rejected down",
                "restarts",
            ],
        )
    )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    try:
        return run_top(args.url, interval=args.interval, once=args.once)
    except KeyboardInterrupt:
        return 0


def _cmd_report(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    if args.only:
        wanted = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = [name for name in wanted if name not in registry]
        if unknown:
            print(f"unknown experiment ids: {unknown}", file=sys.stderr)
            return 2
    else:
        wanted = list(EXPERIMENTS)

    sections = [
        "# DMFSGD reproduction report",
        "",
        f"Seed: {args.seed}.  One section per experiment; see",
        "EXPERIMENTS.md for the paper-vs-measured discussion.",
        "",
    ]
    for name in wanted:
        run, format_result = registry[name]
        print(f"running {name} ...", file=sys.stderr)
        result = run(seed=args.seed)
        sections.append(f"## {name}")
        sections.append("")
        sections.append("```")
        sections.append(format_result(result))
        sections.append("```")
        sections.append("")
    with open(args.output, "w") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {args.output} ({len(wanted)} experiments)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.scenarios import scenario_names
    from repro.scenarios.benchio import bench_scenario, format_scenario_rows
    from repro.scenarios.library import SCENARIOS

    if args.list or not args.scenario:
        for name in scenario_names():
            print(f"{name:<12} {SCENARIOS[name].description}")
        if not args.list and not args.scenario:
            print("\npass --scenario NAME to run one", file=sys.stderr)
            return 2
        return 0
    modes = (
        ["threads", "processes"]
        if args.workers == "both"
        else [args.workers]
    )
    if args.cluster > 0:
        modes.append("cluster")
    timing: dict = {}
    try:
        payload = bench_scenario(
            args.scenario,
            seed=args.seed,
            modes=modes,
            cluster_groups=max(args.cluster, 2),
            flash_extras=args.autopilot,
            timing=timing,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(format_scenario_rows(payload, timing))
    output = args.output
    if output is None:
        # not the CWD: at the repo root BENCH_*.json are gate baselines
        os.makedirs(".bench_out", exist_ok=True)
        output = os.path.join(
            ".bench_out", f"BENCH_scenario_{args.scenario}.json"
        )
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "train": _cmd_train,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "cluster-status": _cmd_cluster_status,
        "top": _cmd_top,
        "report": _cmd_report,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    sys.exit(main())
