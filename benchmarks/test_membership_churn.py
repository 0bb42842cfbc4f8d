"""Live-churn serving benchmark: epoch latency + availability.

Prices the elastic-membership layer (``repro.serving.membership``): a
sharded stack under sustained query and ingest load absorbs a storm of
join/leave epoch transitions.  The measurement itself lives in
``benchmarks/churn_bench.py`` (shared with ``compare.py``); this bench
prints the table, writes ``BENCH_churn.json`` under ``.bench_out/``
and holds the paper-facing invariants of ``benchkit.GATES["churn"]``:

* churn never takes queries down — availability stays ≥ 99.9% while
  epochs swap;
* an epoch transition is cheap — well under 250 ms even with queues to
  drain (it is a barrier + a copy + one atomic reference store);
* the shard workers survive the storm without a single error.
"""

from benchkit import evaluate, write
from churn_bench import format_rows, run
from repro.utils.tables import format_table


def test_membership_churn_latency_and_availability(run_once, report):
    result = run_once(run)

    report(
        f"Live churn — {result['nodes']}-node model, {result['shards']} "
        f"shards, {result['churn_ops']} membership ops under load",
        format_table(format_rows(result), headers=["quantity", "value"]),
    )

    failures = evaluate("churn", result)
    report("Summary", f"wrote {write('churn', result)}")
    assert not failures, failures
