"""Scenario-matrix smoke -> the tier-1 ``scenario_smoke`` marker.

A ~5 s slice of the scenario matrix on the thread plane: the shortest
phase of ``diurnal`` (sine load + hot-pair rotations) plus the full
``churn_storm`` (membership leave/join storms under load).  Asserts
the engine's standing contract on every machine:

* the seeded event schedule is materialized up front and *fully
  fired* (``digest_match`` — the executed digest equals the schedule
  digest);
* two in-process runs under the same seed produce bitwise-identical
  deterministic counters and executed digests (the property
  ``compare.py --check`` extends across the thread and process planes
  and to the committed baselines);
* the standing invariants hold — availability >= 99.9%, zero torn
  reads, versions never rewind;
* the workload demonstrably happened (rotations fired, churn applied
  with zero failures).

Both tests evaluate the run gates of ``benchkit.GATES`` — the same
table ``compare.py --check`` applies to every worker mode of the full
matrix (all six scenarios, thread *and* process planes).
"""

import pytest

from benchkit import evaluate
from repro.scenarios import get_scenario, run_scenario

import scenario_bench

pytestmark = pytest.mark.scenario_smoke

SEED = scenario_bench.SEED


def test_diurnal_shortest_phase(report, run_once):
    scenario = get_scenario("diurnal")
    slice_ = scenario.subset((scenario.shortest_phase(),))

    payload = run_once(
        lambda: run_scenario(slice_, workers="threads", seed=SEED)
    )
    report(
        "scenario smoke: diurnal (shortest phase, thread plane)",
        f"phase={scenario.shortest_phase()} ticks={payload['ticks']} "
        f"applied={payload['counters']['applied']} "
        f"rotations={payload['counters']['rotations']} "
        f"avail={payload['invariants']['availability']:.4f}",
    )

    # the dawn traffic really drove the hot pair and rotated it
    failures = evaluate("scenario_diurnal_run", payload)
    assert not failures, failures

    # determinism: a second in-process run is bitwise-identical
    again = run_scenario(slice_, workers="threads", seed=SEED)
    failures = evaluate("scenario_diurnal_run", again, committed=payload)
    assert not failures, failures


def test_churn_storm_thread_plane(report, run_once):
    payload = run_once(
        lambda: run_scenario("churn_storm", workers="threads", seed=SEED)
    )
    counters = payload["counters"]
    report(
        "scenario smoke: churn_storm (thread plane)",
        f"ticks={payload['ticks']} applied={counters['applied']} "
        f"leaves={counters['leaves']} joins={counters['joins']} "
        f"churn_failures={counters['churn_failures']} "
        f"avail={payload['invariants']['availability']:.4f}",
    )

    # every scheduled leave and join applied; ingest kept routing
    failures = evaluate("scenario_churn_storm_run", payload)
    assert not failures, failures
