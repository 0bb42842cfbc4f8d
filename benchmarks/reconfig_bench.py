"""Live-topology benchmark (shared measurement module).

Used by ``benchmarks/test_reconfig_smoke.py`` (tier-1) and by
``benchmarks/compare.py`` (``BENCH_reconfig.json``).  The
measurements themselves live in :mod:`repro.scenarios.flashcrowd` —
the flash-crowd workload is part of the scenario matrix
(``repro bench --scenario flash_crowd``) and this module is the thin
wrapper that keeps the historical ``BENCH_reconfig.json`` keys stable:

* **flash crowd under autopilot**
  (:func:`repro.scenarios.flashcrowd.autopilot_flash_crowd`) — the
  autopilot must split under a HotPairDriver burst and merge back once
  it ends, with query availability >= 99.9% throughout and versions
  never rewinding;
* **transition latency, both worker modes**
  (:func:`repro.scenarios.flashcrowd.transition_latency`) — direct
  split/merge timings with bitwise parity checks; latency is
  informational, parity and version monotonicity are the acceptance
  bits.
"""

from __future__ import annotations

import os
import sys

import benchkit  # puts src/ on sys.path

from repro.scenarios.flashcrowd import (  # noqa: E402
    FLASH_POLICY,
    autopilot_flash_crowd,
    transition_latency,
)

SEED = 20111206
NODES = 240
RANK = 10
HOT_PAIR = (3, 7)
FEEDERS = 3
QUERY_BATCH = 256
BURST = 512
QUEUE_DEPTH = 16
BURST_DEADLINE_S = 10.0
SETTLE_DEADLINE_S = 10.0


def bench_flash_crowd() -> dict:
    """The autopilot flash-crowd measurement (scenario-engine core)."""
    return autopilot_flash_crowd(
        nodes=NODES,
        seed=SEED,
        policy=FLASH_POLICY,
        hot_pair=HOT_PAIR,
        feeders=FEEDERS,
        query_batch=QUERY_BATCH,
        burst=BURST,
        queue_depth=QUEUE_DEPTH,
        burst_deadline_s=BURST_DEADLINE_S,
        settle_deadline_s=SETTLE_DEADLINE_S,
    )


def bench_transition_latency() -> dict:
    """Direct split/merge latency + parity, thread and process modes."""
    return transition_latency(nodes=NODES, seed=SEED + 1)


def run() -> dict:
    result = {
        "nodes": NODES,
        "rank": RANK,
        "seed": SEED,
        "cpu_count": os.cpu_count() or 1,
        "notices": [],
        "policy": FLASH_POLICY.as_dict(),
    }
    result.update(bench_flash_crowd())
    result.update(bench_transition_latency())
    return result


def format_rows(result: dict) -> list:
    return [
        ["cores", str(result["cpu_count"])],
        [
            "autopilot splits / merges under burst",
            f"{result['autopilot_splits']} / {result['autopilot_merges']}",
        ],
        [
            "shards (start -> peak -> settled)",
            f"1 -> {result['peak_shards']} -> {result['final_shards']}",
        ],
        ["first split after", f"{result['first_split_after_s']:.2f} s"],
        [
            "query availability through reconfig",
            f"{result['query_availability_during_reconfig']:.4%}",
        ],
        [
            "reads during reconfig",
            f"{result['queries_during_reconfig_pps']:,.0f} pps",
        ],
        ["thread split / merge", (
            f"{result['thread_split_ms']:.1f} / "
            f"{result['thread_merge_ms']:.1f} ms"
        )],
        ["process split / merge", (
            f"{result['process_split_ms']:.0f} / "
            f"{result['process_merge_ms']:.0f} ms"
        )],
        [
            "parity bitwise (thread / process)",
            f"{result['thread_parity_bitwise']} / "
            f"{result['process_parity_bitwise']}",
        ],
        [
            "versions monotone everywhere",
            "yes"
            if (
                result["thread_version_monotone"]
                and result["process_version_monotone"]
                and result["version_rewinds_observed"] == 0
            )
            else "NO",
        ],
    ]


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(benchkit.main("reconfig", run, format_rows))
