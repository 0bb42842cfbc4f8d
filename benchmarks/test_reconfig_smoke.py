"""Live-topology benchmark -> ``BENCH_reconfig.json``.

Prices the dynamic-topology acceptance claim: a flash-crowd
:class:`~repro.simnet.livefeed.HotPairDriver` burst against a one-shard
thread-mode plane must drive the autopilot to **split** at least one
shard while the burst runs and **merge** back down once it stops, with
query availability >= 99.9% through every transition (snapshot reads
are epoch-atomic and must never observe a reconfig), versions never
rewinding, and bitwise factor parity across direct split/merge round
trips in both worker modes.

Every gate (``benchkit.GATES["reconfig"]``) holds on any machine.

Runs in tier-1 (``reconfig_smoke``): one ~3 s flash-crowd window plus
eight timed direct transitions (four thread, four process).
"""

import pytest

import reconfig_bench
from benchkit import evaluate, write

pytestmark = pytest.mark.reconfig_smoke


def test_reconfig_benchmark(report, run_once):
    result = run_once(reconfig_bench.run)

    from repro.utils.tables import format_table

    report(
        "dynamic topology: flash crowd under autopilot",
        format_table(
            reconfig_bench.format_rows(result), headers=["reconfig", "value"]
        ),
    )

    failures = evaluate("reconfig", result)
    write("reconfig", result)
    assert not failures, failures
