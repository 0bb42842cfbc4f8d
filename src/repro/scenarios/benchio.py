"""The scenario bench payload: one JSON document per scenario.

Shared by ``repro bench`` (CLI) and ``benchmarks/scenario_bench.py``
so both entry points emit the *same* ``BENCH_scenario_<name>.json``
shape, and ``compare.py --check`` gates one schema:

* every requested worker mode's run payload, keyed by mode;
* ``schedule_match`` — every mode materialized the identical event
  schedule (digest equality) and fired all of it;
* ``counters_match`` — the thread and the process plane produced
  bitwise-identical deterministic counters (the cross-plane
  determinism contract);
* optionally the flash-crowd realtime autopilot gate
  (:func:`repro.scenarios.flashcrowd.autopilot_flash_crowd`) merged
  under ``"autopilot"``.

A run's wall-clock ``"timing"`` (``run_s``, ``fed_pps``) stays out of
the document: it changes on every run and no gate reads it, so a
document that carried it would differ from its baseline each time.
Callers that want it in their report pass a ``timing`` dict.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

from repro.scenarios.library import get_scenario
from repro.scenarios.runner import DEFAULT_SEED, run_scenario

__all__ = ["MODE_KEYS", "bench_scenario", "format_scenario_rows"]

#: payload keys a worker mode's run is stored under
MODE_KEYS = ("threads", "processes", "cluster")

#: per-mode payload sections copied into the bench document
_RUN_SECTIONS = (
    "counters",
    "invariants",
    "guard_breakdown",
    "topology",
    "extra",
    "executed_digest",
    "digest_match",
)


def bench_scenario(
    name: str,
    *,
    seed: int = DEFAULT_SEED,
    modes: Sequence[str] = ("threads", "processes"),
    cluster_groups: int = 2,
    flash_extras: bool = False,
    timing: Optional[Dict[str, Dict[str, float]]] = None,
) -> Dict[str, object]:
    """Run ``name`` under every requested mode; return the document.

    ``timing``, when given, receives each mode's wall-clock section.
    """
    scenario = get_scenario(name)
    modes = list(dict.fromkeys(modes))  # stable de-dup
    unknown = [m for m in modes if m not in MODE_KEYS]
    if unknown:
        raise ValueError(
            f"unknown worker mode(s) {unknown}; expected {MODE_KEYS}"
        )
    if "cluster" in modes and not scenario.supports_cluster:
        modes = [m for m in modes if m != "cluster"]

    payload: Dict[str, object] = {
        "scenario": scenario.name,
        "description": scenario.description,
        "seed": int(seed),
        "nodes": scenario.nodes,
        "ticks": scenario.total_ticks,
        "guard": scenario.guard,
        "modes": list(modes),
        "cpu_count": os.cpu_count(),
    }
    digests = set()
    runs: Dict[str, Dict[str, object]] = {}
    for mode in modes:
        run = run_scenario(
            scenario.name,
            workers=mode,
            seed=seed,
            cluster_groups=cluster_groups,
        )
        runs[mode] = run
        if timing is not None:
            timing[mode] = run["timing"]
        digests.add(run["schedule"]["digest"])
        payload[mode] = {key: run[key] for key in _RUN_SECTIONS}
    payload["schedule"] = next(iter(runs.values()))["schedule"]
    payload["schedule_match"] = len(digests) == 1 and all(
        run["digest_match"] for run in runs.values()
    )
    if "threads" in runs and "processes" in runs:
        payload["counters_match"] = (
            runs["threads"]["counters"] == runs["processes"]["counters"]
        )
    if flash_extras and scenario.name == "flash_crowd":
        from repro.scenarios.flashcrowd import autopilot_flash_crowd

        payload["autopilot"] = autopilot_flash_crowd(seed=seed)
    return payload


def format_scenario_rows(
    payload: Dict[str, object],
    timing: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Human-readable summary of one scenario document (plus timing)."""
    rows = [
        f"scenario {payload['scenario']}: seed={payload['seed']} "
        f"ticks={payload['ticks']} guard={payload['guard']} "
        f"schedule_match={payload.get('schedule_match')}"
        + (
            f" counters_match={payload['counters_match']}"
            if "counters_match" in payload
            else ""
        )
    ]
    for mode in MODE_KEYS:
        run = payload.get(mode)
        if not run:
            continue
        counters = run["counters"]
        invariants = run["invariants"]
        rows.append(
            f"  {mode:<9} applied={counters['applied']:>6} "
            f"deduped={counters['deduped']:>5} "
            f"rejected_guard={counters['rejected_guard']:>5} "
            f"dropped_invalid={counters['dropped_invalid']:>4} "
            f"avail={invariants['availability']:.4f} "
            f"torn={invariants['torn_reads']} "
            f"rewinds={invariants['version_rewinds']}"
        )
        if timing and mode in timing:
            rows[-1] += (
                f" run_s={timing[mode]['run_s']:.2f}"
                f" fed_pps={timing[mode]['fed_pps']:,.0f}"
            )
    autopilot: Optional[Dict[str, object]] = payload.get("autopilot")
    if autopilot:
        rows.append(
            f"  autopilot splits={autopilot['autopilot_splits']} "
            f"merges={autopilot['autopilot_merges']} "
            f"peak_shards={autopilot['peak_shards']} "
            f"avail={autopilot['query_availability_during_reconfig']:.4f}"
        )
    return "\n".join(rows)
