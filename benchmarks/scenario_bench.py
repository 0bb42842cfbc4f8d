"""Scenario-matrix benchmark: one ``BENCH_scenario_<name>.json`` each.

Runs every named scenario (:mod:`repro.scenarios.library`) through the
thread plane *and* the process plane with the shared bench seed, and
returns one JSON document per scenario via
:mod:`repro.scenarios.benchio`.  The documents are gated by
``benchkit.GATES["scenario_<name>"]``:

* ``schedule_match`` — both planes materialized (and fully fired) the
  identical seeded event schedule (digest equality);
* ``counters_match`` — the deterministic counters are bitwise-equal
  across the planes;
* per-mode standing invariants — availability >= 99.9%, zero torn
  reads, zero version rewinds;
* per-scenario workload assertions (the hot pair rotated, the drift
  stepped, the guard shed the poison, the churn applied, ...);
* against the committed baseline: the seed, the schedule digest and
  every mode's counters match exactly.

``repro bench --scenario NAME`` writes the same document shape for a
single scenario (plus ``--autopilot`` / ``--cluster`` extras).
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Sequence

import benchkit  # puts src/ on sys.path

from repro.scenarios import scenario_names  # noqa: E402
from repro.scenarios.benchio import (  # noqa: E402
    bench_scenario,
    format_scenario_rows,
)

SEED = 20111206


def run(
    names: Optional[Sequence[str]] = None, timing: Optional[dict] = None
) -> Dict[str, dict]:
    """Run the matrix; returns ``{scenario_name: payload}`` in order.

    ``timing``, when given, receives ``{scenario_name: {mode: timing}}``
    (the wall-clock numbers the payloads leave out).
    """
    results: Dict[str, dict] = {}
    for name in names if names is not None else scenario_names():
        results[name] = bench_scenario(
            name,
            seed=SEED,
            modes=benchkit.SCENARIO_MODES,
            timing=None if timing is None else timing.setdefault(name, {}),
        )
    return results


def main() -> int:  # pragma: no cover - manual invocation
    failures = []
    timing: dict = {}
    for name, payload in run(timing=timing).items():
        print(format_scenario_rows(payload, timing[name]))
        bench = f"scenario_{name}"
        failures += [
            f"{bench}: {f}" for f in benchkit.evaluate(bench, payload)
        ]
        print(f"wrote {benchkit.write(bench, payload)}")
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
