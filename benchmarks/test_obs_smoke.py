"""Telemetry-overhead benchmark -> ``BENCH_obs.json``.

Prices the observability plane's acceptance claims: binding a metrics
registry onto the sharded ingest hot path (queue-wait + apply latency
histograms recorded per chunk, tracing off) must stay within 5% of
the uninstrumented path — measured batch-interleaved and paired, so
the ratio is machine-independent — the latency families must surface
p99 quantiles in the ``/stats`` summary, and arming the tracer must
complete every minted span through all five stage stamps.

Runs in tier-1 (``obs_smoke``): a few interleaved passes of the
standard admission stream, well under a minute.
"""

import pytest

import obs_bench
from benchkit import evaluate, write

pytestmark = pytest.mark.obs_smoke


def test_obs_benchmark(report, run_once):
    result = run_once(obs_bench.run)

    from repro.utils.tables import format_table

    report(
        "telemetry plane: instrumentation overhead",
        format_table(
            obs_bench.format_rows(result), headers=["obs", "value"]
        ),
    )

    failures = evaluate("obs", result)
    write("obs", result)
    assert not failures, failures
