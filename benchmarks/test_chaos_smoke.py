"""Fault-plane chaos benchmark -> ``BENCH_chaos.json``.

Prices the fault plane's acceptance claims: a live 2-group cluster
under routed ingest + mirror-read load takes the standard fault soup
(delayed pulls, a scripted whole-group flap, dropped heartbeats, one
corrupted checkpoint write) and read availability stays >= 99.9% with
zero torn reads, the circuit breaker opens and closes around the flap,
and the torn checkpoint is detected at load with fallback to the
rotated last-good file.  The overload half stalls the ingest workers
and requires every rejected ingest/batch request to be a clean 503
shed — never a hard failure — while single reads keep answering.

Every gate (``benchkit.GATES["chaos"]``) is machine-independent
(counts and booleans, not rates), so it holds on every machine.

Runs in tier-1 (``chaos_smoke``): one ~4 s soup window plus one
deterministic two-phase shed count.
"""

import pytest

import chaos_bench
from benchkit import evaluate, write

pytestmark = pytest.mark.chaos_smoke


def test_chaos_benchmark(report, run_once):
    result = run_once(chaos_bench.run)

    from repro.utils.tables import format_table

    report(
        "fault plane: standard soup + overload shedding",
        format_table(
            chaos_bench.format_rows(result), headers=["chaos", "value"]
        ),
    )

    failures = evaluate("chaos", result)
    write("chaos", result)
    assert not failures, failures
