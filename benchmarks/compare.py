"""Run every in-process benchmark and gate it.

::

    python benchmarks/compare.py           # measure into .bench_out/
    python benchmarks/compare.py --check   # ... gate against baselines
    python benchmarks/compare.py --bless   # ... rewrite the baselines

Each benchmark's payload is evaluated against its gate table
(``benchkit.GATES``; see ``benchkit.py`` for the five gate kinds):
counts, booleans, availability floors and same-run ratios, which hold
on any machine.  Every run exits 1 when a gate fails.

``--check`` also loads each committed ``BENCH_<name>.json`` at the
repo root.  A missing or unreadable baseline is a failure naming the
file.  The scenario documents must match their baseline's seed,
schedule digest and counters exactly: scenario runs are
seed-deterministic, so any drift is a behaviour change.  Single-shot
throughput and latency numbers are printed as report lines, committed
vs fresh, and never gated: runs of identical code moved
``route_routed_mps`` 595k -> 420k -> 532k and ``mp_shards4_mps``
484k -> 358k -> 457k.  The committed baselines' ``notices`` (gates
their machine skipped) are echoed.

Fresh payloads always go to the gitignored ``.bench_out/``.
``--bless`` is the only path that writes the repo-root baselines, and
only when every gate passes.  Each is stamped with perfbench's
``machine_stamp`` under ``"machine"``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchkit  # noqa: E402  (puts src/ on sys.path)
import chaos_bench  # noqa: E402
import churn_bench  # noqa: E402
import cluster_bench  # noqa: E402
import mp_bench  # noqa: E402
import obs_bench  # noqa: E402
import reconfig_bench  # noqa: E402
import scaleout_bench  # noqa: E402
import scenario_bench  # noqa: E402
import test_ingest_guard  # noqa: E402
import test_serving_throughput  # noqa: E402

from repro.scenarios.benchio import format_scenario_rows  # noqa: E402
from repro.utils.tables import format_table  # noqa: E402

#: bench name -> module with ``run()`` and ``format_rows(result)``
BENCHES = {
    "scaleout": scaleout_bench,
    "churn": churn_bench,
    "mp": mp_bench,
    "cluster": cluster_bench,
    "reconfig": reconfig_bench,
    "chaos": chaos_bench,
    "obs": obs_bench,
    "serving": test_serving_throughput,
    "ingest": test_ingest_guard,
}

#: single-shot throughput/latency keys: --check reports them, ungated
REPORT_KEYS = {
    "scaleout": tuple(
        f"{kind}_shards{s}_{unit}"
        for kind, unit in (
            ("ingest", "mps"),
            ("query_pairs", "pps"),
            ("query_rows", "pps"),
        )
        for s in scaleout_bench.SHARD_COUNTS
    )
    + (
        "single_query_uncoalesced_pps",
        "single_query_coalesced_pps",
        "coalesced_answer_pps",
    ),
    "churn": (
        "queries_during_churn_pps",
        "join_transition_ms",
        "leave_transition_ms",
    ),
    "mp": ("guarded_admission_single_mps", "mp_shards4_mps"),
    "cluster": (
        "queries_during_outage_pps",
        "route_direct_mps",
        "route_routed_mps",
    ),
    "reconfig": ("queries_during_reconfig_pps",),
}


def measure() -> dict:
    """Run every bench; returns ``{name: payload}``, printing tables."""
    fresh = {}
    for name, module in BENCHES.items():
        fresh[name] = module.run()
        rows = module.format_rows(fresh[name])
        print(format_table(rows, headers=[name, "value"]))
    timing: dict = {}
    for scenario, payload in scenario_bench.run(timing=timing).items():
        fresh[f"scenario_{scenario}"] = payload
        print(format_scenario_rows(payload, timing[scenario]))
    return fresh


def report(name: str, fresh: dict, committed: dict) -> None:
    """Print committed vs fresh for the bench's ungated numbers."""
    cores = ""
    if committed.get("cpu_count") != fresh.get("cpu_count"):
        cores = f" (committed on {committed.get('cpu_count')} core(s))"
    for key in REPORT_KEYS.get(name, ()):
        now = float(fresh[key])
        if key not in committed:
            print(f"report {name}.{key}: {now:,.1f} (not in baseline)")
            continue
        then = float(committed[key])
        change = f"{now / then - 1.0:+.0%}" if then else "n/a"
        print(
            f"report {name}.{key}: committed {then:,.1f} -> "
            f"fresh {now:,.1f} ({change}){cores}"
        )


def check(fresh: dict) -> list:
    """Failures of every fresh payload against its gates and baseline."""
    failures = []
    for name, payload in fresh.items():
        path = benchkit.out_path(name, bless=True)
        try:
            committed = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            failures.append(
                f"{path.name}: committed baseline missing or unreadable "
                f"({exc}); re-run with --bless"
            )
            committed = None
        else:
            report(name, payload, committed)
            for notice in committed.get("notices", ()):
                print(f"notice ({path.name}): {notice}")
        failures += [
            f"BENCH_{name}: {failure}"
            for failure in benchkit.evaluate(name, payload, committed)
        ]
    return failures


def bless(fresh: dict) -> None:
    """Stamp and write every payload as the committed baseline."""
    sys.path.insert(0, str(benchkit.REPO_ROOT / "perfbench"))
    # imported here only: importing perfbench/run.py pins the process's
    # OPENBLAS_NUM_THREADS, which must not touch the measurements
    from run import machine_stamp

    for name, payload in fresh.items():
        payload["machine"] = machine_stamp(payload.get("seed"))
        print(f"blessed {benchkit.write(name, payload, bless=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check",
        action="store_true",
        help="also gate against the committed BENCH_*.json baselines",
    )
    mode.add_argument(
        "--bless",
        action="store_true",
        help="write the repo-root BENCH_*.json baselines if every gate "
        "passes",
    )
    args = parser.parse_args(argv)

    fresh = measure()
    if args.check:
        failures = check(fresh)
    else:
        failures = [
            f"BENCH_{name}: {failure}"
            for name, payload in fresh.items()
            for failure in benchkit.evaluate(name, payload)
        ]
    for name, payload in fresh.items():
        for notice in payload.get("notices", ()):
            print(f"notice (fresh BENCH_{name}): {notice}")
        benchkit.write(name, payload)
    print(f"wrote {len(fresh)} fresh payloads under .bench_out/")
    if failures:
        print("GATE CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    if args.bless:
        bless(fresh)
    print("gate check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
