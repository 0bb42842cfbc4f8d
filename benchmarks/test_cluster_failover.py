"""Cluster failover benchmark -> ``BENCH_cluster.json``.

Prices the cluster plane's acceptance claim: SIGKILL one whole worker
group (every pid) under routed ingest + mirror-read load, and query
availability stays >= 99.9% while the monitor detects the death,
fences the group's ingest with the distinct ``rejected_group_down``
reason, and restarts it with reattach.  Also prices the routing tier's
end-to-end ingest tax (routed vs direct, thread mode).

Every gate (``benchkit.GATES["cluster"]``) holds on any machine —
mirror reads are in-process snapshot gathers and must never observe
the outage, cores or no cores.

Runs in tier-1 (``cluster_smoke``): one ~3 s failover window plus one
20k-sample routing sweep per path.
"""

import pytest

import cluster_bench
from benchkit import evaluate, write

pytestmark = pytest.mark.cluster_smoke


def test_cluster_failover_benchmark(report, run_once):
    result = run_once(cluster_bench.run)

    from repro.utils.tables import format_table

    report(
        "cluster plane: kill one group under load",
        format_table(
            cluster_bench.format_rows(result), headers=["cluster", "value"]
        ),
    )

    failures = evaluate("cluster", result)
    write("cluster", result)
    assert not failures, failures
