"""Shared bench plumbing: the gate table, its evaluator, the writer.

Every invariant a ``BENCH_<name>.json`` payload must hold is declared
once, in :data:`GATES`, and checked by one function,
:func:`evaluate`.  The smoke tests call it on their fresh payload
(``assert not evaluate(...)``) and ``compare.py --check`` calls it on
every payload it measures, passing the committed baseline as well.

A gate is one of five kinds:

* ``floor`` / ``ceiling`` -- the value is ``>=`` / ``<=`` a constant;
* ``equal`` -- the value equals a constant (``of``: ``bound`` times
  another key of the same payload);
* ``ratio`` -- the value is ``>= bound`` times another key of the same
  payload (a same-run comparison, so it holds on any machine);
* ``committed`` -- the value equals the committed baseline's (the
  seed-deterministic scenario digests and counters).  Skipped when
  there is no baseline to compare against.

Gates only hold what transfers between machines: counts, booleans,
availability fractions and same-run ratios.  Single-shot throughput
and latency numbers move by a quarter between runs of identical code,
so ``compare.py --check`` prints them as ungated report lines instead.

Payloads are written by :func:`write` under the gitignored
``.bench_out/``; only ``compare.py --bless`` writes the committed
baselines at the repository root.

Also holds the ingest benches' shared fixtures: the duplicate-heavy
admission stream, the online engine and the admission guard.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import DMFSGDConfig  # noqa: E402
from repro.core.engine import DMFSGDEngine, null_label_fn  # noqa: E402
from repro.serving.guard import (  # noqa: E402
    AdmissionGuard,
    RobustSigmaFilter,
    TokenBucketRateLimiter,
)


# ----------------------------------------------------------------------
# the gate table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """One invariant on a payload; ``key`` is a ``/``-separated path."""

    kind: str
    key: str
    bound: object = None
    of: Optional[str] = None
    #: below this ``cpu_count`` the gate is skipped with a notice
    min_cores: int = 0

    def under(self, prefix: str) -> "Gate":
        """The same gate on a sub-document (a scenario's worker mode)."""
        return replace(
            self,
            key=f"{prefix}/{self.key}",
            of=f"{prefix}/{self.of}" if self.of else None,
        )


#: read availability every plane must hold through its disruption.
#: Reads are in-process snapshot gathers, so the floor is the same on
#: any machine.
AVAILABILITY = 0.999

#: histogram families whose quantiles the telemetry plane must surface
QUANTILE_FAMILIES = (
    "repro_ingest_queue_wait_seconds",
    "repro_ingest_apply_seconds",
)

#: the worker modes every scenario document is measured under
SCENARIO_MODES = ("threads", "processes")

#: invariants of one scenario run on any plane
_SCENARIO_RUN = (
    Gate("floor", "invariants/availability", AVAILABILITY),
    Gate("equal", "invariants/torn_reads", 0),
    Gate("equal", "invariants/version_rewinds", 0),
    Gate("equal", "invariants/ok", True),
    # the fired events equal the materialized schedule
    Gate("equal", "digest_match", True),
    Gate("committed", "executed_digest"),
    Gate("committed", "counters"),
)

#: each scenario demonstrably exercised the workload it is named for
_SCENARIO_WORKLOAD = {
    "diurnal": (
        Gate("floor", "counters/rotations", 1),
        Gate("floor", "counters/hot_fed", 1),
        Gate("floor", "counters/applied", 1),
    ),
    "flash_crowd": (Gate("floor", "counters/reshards", 4),),
    "drift": (Gate("floor", "counters/drift_steps", 1),),
    "poison": (
        Gate("floor", "counters/rejected_guard", 1),
        Gate("floor", "counters/dropped_invalid", 1),
        Gate("floor", "counters/poisoned_fed", 1),
    ),
    "churn_storm": (
        # every scheduled leave and join applied
        Gate("equal", "counters/leaves", 8),
        Gate("equal", "counters/joins", 8),
        Gate("equal", "counters/churn_applied", 16),
        Gate("equal", "counters/churn_failures", 0),
        # ingest kept routing around the tombstones
        Gate("floor", "counters/applied", 1),
        Gate("floor", "counters/dropped_membership", 1),
    ),
    "replay": (Gate("floor", "counters/applied", 1),),
}

GATES: Dict[str, Tuple[Gate, ...]] = {
    "scaleout": (
        Gate("floor", "coalesced_answer_speedup", 5.0),
        # 2x the pre-sharding guarded admission, scaled by this
        # machine's single-pipeline speed (see scaleout_bench.run)
        Gate("ratio", "ingest_shards4_mps", 1.0, of="admission_floor_mps"),
    ),
    "churn": (
        Gate("floor", "query_availability_during_churn", AVAILABILITY),
        Gate("equal", "queries_failed_during_churn", 0),
        # an epoch swap is a barrier + a copy + one atomic store
        Gate("ceiling", "join_transition_ms", 250.0),
        Gate("ceiling", "leave_transition_ms", 250.0),
        Gate("equal", "worker_errors", 0),
        # the starting epoch plus one per join and per leave (80 ops)
        Gate("equal", "final_epoch", 81),
    ),
    "mp": (
        Gate("equal", "read_parity_bitwise", True),
        Gate("floor", "guarded_admission_single_mps", 1),
        Gate("floor", "mp_shards4_mps", 1),
        # fewer cores cannot parallelize anything, only pay the IPC tax
        Gate("floor", "mp_speedup", 1.5, min_cores=4),
    ),
    "cluster": (
        Gate("floor", "query_availability_during_outage", AVAILABILITY),
        Gate("floor", "queries_answered_during_outage", 1),
        # group 1 is the one SIGKILLed: detected, restarted, back
        Gate("floor", "deaths_detected/1", 1),
        Gate("floor", "group_restarts/1", 1),
        Gate("floor", "group_recovery_ms", 0),  # NaN: never recovered
        Gate("equal", "version_monotone", True),
        Gate("floor", "forwarded", 1),
        Gate("ceiling", "route_overhead_x", 4.0),
    ),
    "reconfig": (
        Gate("floor", "autopilot_splits", 1),
        Gate("floor", "autopilot_merges", 1),
        Gate("floor", "peak_shards", 2),
        Gate("equal", "final_shards", 1, of="policy/min_shards"),
        Gate("equal", "autopilot_errors", 0),
        Gate("floor", "query_availability_during_reconfig", AVAILABILITY),
        Gate("floor", "queries_answered_during_reconfig", 1),
        Gate("equal", "version_rewinds_observed", 0),
        # re-striding is a copy, not a recompute
        Gate("equal", "thread_parity_bitwise", True),
        Gate("equal", "process_parity_bitwise", True),
        Gate("equal", "thread_version_monotone", True),
        Gate("equal", "process_version_monotone", True),
    ),
    "chaos": (
        Gate("floor", "chaos_availability", AVAILABILITY),
        Gate("floor", "chaos_reads_answered", 1),
        Gate("equal", "chaos_torn_reads", 0),
        # every planned fault fired
        Gate("floor", "injected/transport.pull:delay", 1),
        Gate("floor", "injected/heartbeat:drop", 1),
        Gate("equal", "injected/checkpoint.write:corrupt", 1),
        Gate("floor", "outage_kills", 1),
        Gate("floor", "outage_restarts", 1),
        Gate("floor", "outage_detections", 1),
        Gate("floor", "breaker_opens", 1),
        Gate("floor", "breaker_closes", 1),
        Gate("floor", "breaker_open_ms", 0),  # NaN: never opened
        Gate("floor", "breaker_close_ms", 0),  # NaN: never closed
        Gate("equal", "checkpoint_recovered", True),
        Gate("equal", "checkpoint_version_held", True),
        # overload turns into clean 503 sheds, never hard failures
        Gate("equal", "overload_accepted_healthy", 1, of="overload_rounds"),
        Gate("floor", "overload_shed_ingest", 1),
        Gate("floor", "overload_shed_batch", 1),
        Gate("equal", "overload_hard_failures", 0),
        # single reads are never shed: one per round in both phases
        Gate("equal", "overload_single_reads_ok", 2, of="overload_rounds"),
    ),
    "obs": (
        # median of batch-interleaved paired ratios: same-run relative
        Gate("ceiling", "overhead_ratio", 1.05),
        *(
            gate
            for family in QUANTILE_FAMILIES
            for gate in (
                Gate("floor", f"quantiles/{family}/count", 1),
                Gate("ratio", f"quantiles/{family}/p95", 1.0,
                     of=f"quantiles/{family}/p50"),
                Gate("ratio", f"quantiles/{family}/p99", 1.0,
                     of=f"quantiles/{family}/p95"),
                Gate("ratio", f"quantiles/{family}/p999", 1.0,
                     of=f"quantiles/{family}/p99"),
            )
        ),
        # every minted span completed all five stage stamps
        Gate("floor", "trace_spans_started", 1),
        Gate("equal", "trace_spans_completed", 1, of="trace_spans_started"),
    ),
    "serving": (
        # the vectorized paths dominate the per-pair loop
        Gate("ratio", "batch_row_pps", 5.0, of="single_uncached_pps"),
        Gate("ratio", "batch_matrix_pps", 5.0, of="single_uncached_pps"),
        # both Python-bound: a sanity bound, not a speedup
        Gate("ratio", "single_cached_pps", 0.5, of="single_uncached_pps"),
    ),
    "ingest": (
        # the guard's price stays bounded on the batch hot path
        Gate("ratio", "guarded_batch_mps", 0.2, of="raw_batch_mps"),
        Gate("ratio", "guarded_admission_mps", 0.1, of="raw_batch_mps"),
        Gate("floor", "guarded_deduped", 1),
    ),
}

for _name, _workload in _SCENARIO_WORKLOAD.items():
    # one run (the smoke tests' single plane) ...
    GATES[f"scenario_{_name}_run"] = _SCENARIO_RUN + _workload
    # ... and the matrix document: every mode's run plus the cross-plane
    # determinism bits and the committed seed and schedule
    GATES[f"scenario_{_name}"] = (
        Gate("equal", "schedule_match", True),
        Gate("equal", "counters_match", True),
        Gate("committed", "seed"),
        Gate("committed", "schedule/digest"),
        *(
            gate.under(mode)
            for mode in SCENARIO_MODES
            for gate in _SCENARIO_RUN + _workload
        ),
    )

#: kind -> (holds, how a failure reads)
_KINDS = {
    "floor": (operator.ge, "below the floor"),
    "ceiling": (operator.le, "above the ceiling"),
    "equal": (operator.eq, "not equal to"),
    "ratio": (operator.ge, "below"),
    "committed": (operator.eq, "differs from the committed"),
}
_MISSING = object()


def _lookup(doc, key: str):
    value = doc
    for part in key.split("/"):
        if isinstance(value, list) and part.isdigit():
            value = value[int(part)] if int(part) < len(value) else _MISSING
        elif isinstance(value, dict):
            value = value.get(part, _MISSING)
        else:
            return _MISSING
    return value


def _show(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        return f"{{{len(value)} keys}}"
    return repr(value)


def _failure(gate: Gate, payload: dict, committed) -> Optional[str]:
    """Why ``gate`` fails on ``payload``, or None when it holds."""
    value = _lookup(payload, gate.key)
    if value is _MISSING:
        return f"{gate.key}: missing from the payload"
    detail = ""
    if gate.kind == "committed":
        target = _lookup(committed, gate.key)
        if target is _MISSING:
            return f"{gate.key}: missing from the committed baseline"
    elif gate.of is not None:
        other = _lookup(payload, gate.of)
        if other is _MISSING:
            return f"{gate.key}: {gate.of} missing from the payload"
        target = gate.bound * other
        detail = f" ({gate.bound} x {gate.of})"
    else:
        target = gate.bound
    holds, fails_as = _KINDS[gate.kind]
    if holds(value, target):
        return None
    if isinstance(value, dict) and isinstance(target, dict):
        drifted = [k for k in sorted({**value, **target})
                   if value.get(k) != target.get(k)]
        detail = f"; drifted: {', '.join(drifted)}"
    return f"{gate.key} = {_show(value)}, {fails_as} {_show(target)}{detail}"


def evaluate(
    name: str, payload: dict, committed: Optional[dict] = None
) -> List[str]:
    """Failures of ``payload`` against ``GATES[name]``; each names its key.

    A gate key absent from ``payload`` (or, for ``committed`` gates,
    from ``committed``) is a failure.  ``committed`` gates are skipped
    when ``committed`` is None.  A gate skipped for ``min_cores`` adds
    a notice to ``payload["notices"]``, so the written payload says
    what its machine did not enforce.
    """
    failures = []
    cores = payload.get("cpu_count") or 0
    for gate in GATES[name]:
        if gate.kind == "committed" and committed is None:
            continue
        if cores < gate.min_cores:
            notice = (
                f"{gate.key} {gate.kind} {gate.bound} not enforced: "
                f"{cores} core(s) < {gate.min_cores}"
            )
            notices = payload.setdefault("notices", [])
            if notice not in notices:
                notices.append(notice)
            continue
        failure = _failure(gate, payload, committed)
        if failure is not None:
            failures.append(failure)
    return failures


# ----------------------------------------------------------------------
# the writer
# ----------------------------------------------------------------------


def out_path(name: str, bless: bool = False) -> Path:
    """Where ``BENCH_<name>.json`` goes: ``.bench_out/``, or the
    committed baseline at the repo root when blessing."""
    root = REPO_ROOT if bless else REPO_ROOT / ".bench_out"
    return root / f"BENCH_{name}.json"


def write(name: str, payload: dict, bless: bool = False) -> Path:
    """Write one payload as JSON; returns the path written."""
    path = out_path(name, bless)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main(name: str, run, format_rows) -> int:
    """A bench module's manual entry point: measure, print, write."""
    from repro.utils.tables import format_table

    result = run()
    print(format_table(format_rows(result), headers=[name, "value"]))
    failures = evaluate(name, result)
    print(f"wrote {write(name, result)}")
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# the ingest benches' shared fixtures
# ----------------------------------------------------------------------

NODES = 500
SAMPLES = 40_000
HOT_FRACTION = 0.3


def stream(rng, samples: int = SAMPLES):
    """Duplicate-heavy admission traffic: background pairs + one
    hammered pair (3, 7) carrying ``HOT_FRACTION`` of the samples."""
    sources = rng.integers(0, NODES, size=samples)
    targets = (sources + 1 + rng.integers(0, NODES - 1, size=samples)) % NODES
    hot = rng.random(samples) < HOT_FRACTION
    sources[hot], targets[hot] = 3, 7
    values = rng.choice([-1.0, 1.0], size=samples)
    return sources, targets, values


def engine(seed: int = 1) -> DMFSGDEngine:
    """An online engine: the apply path never probes ``label_fn``."""
    config = DMFSGDConfig(neighbors=8)
    return DMFSGDEngine(NODES, null_label_fn, config, rng=seed)


def guard() -> AdmissionGuard:
    """Token buckets too wide to throttle plus the sigma outlier filter."""
    return AdmissionGuard(
        rate_limiter=TokenBucketRateLimiter(1e9, 1e9),
        filters=[RobustSigmaFilter(sigma=6.0)],
    )
