"""Process-per-shard scale-out benchmark -> ``BENCH_mp.json``.

Prices the tentpole of the process-mode work: the guarded-admission
stream through 4 worker processes vs the single-process (GIL-bound)
pipeline, plus the read-parity acceptance bit, gated by
``benchkit.GATES["mp"]`` (mp throughput >= 1.5x single on >= 4 cores,
skip-with-notice on fewer — a 1-core container cannot parallelize
anything and only pays the IPC tax).

Runs in tier-1 (``mp_smoke``): one 40k-sample sweep per mode, a few
seconds end to end.
"""

import pytest

import mp_bench
from benchkit import evaluate, write

pytestmark = pytest.mark.mp_smoke


def test_mp_scaleout_benchmark(report, run_once):
    result = run_once(mp_bench.run)

    from repro.utils.tables import format_table

    report(
        "process-per-shard guarded admission",
        format_table(mp_bench.format_rows(result), headers=["mp", "value"]),
    )

    failures = evaluate("mp", result)
    write("mp", result)
    assert not failures, failures
