"""The gate table and its evaluator, on synthetic and committed payloads.

Runs no measurement: every payload is either built here or read from a
committed ``BENCH_*.json`` baseline, so this stays fast in tier-1.
"""

import copy
import json

import pytest

import benchkit
from benchkit import GATES, Gate, evaluate

import compare
from repro.scenarios import scenario_names

BASELINES = sorted(benchkit.REPO_ROOT.glob("BENCH_*.json"))


def _committed(name: str) -> dict:
    path = benchkit.out_path(name, bless=True)
    return json.loads(path.read_text())


@pytest.fixture
def table(monkeypatch):
    """Install a synthetic gate table under the name ``"synthetic"``."""

    def _install(*gates):
        monkeypatch.setitem(GATES, "synthetic", gates)

    return _install


@pytest.mark.parametrize(
    "gate, passing, failing",
    [
        (Gate("floor", "a", 1), {"a": 1}, {"a": 0}),
        (Gate("floor", "a", 0), {"a": 0.0}, {"a": float("nan")}),
        (Gate("ceiling", "a", 1.05), {"a": 1.05}, {"a": 1.06}),
        (Gate("equal", "a", True), {"a": True}, {"a": False}),
        (Gate("equal", "a", 2, of="b"), {"a": 4, "b": 2}, {"a": 3, "b": 2}),
        (Gate("ratio", "a", 5, of="b"), {"a": 10, "b": 2}, {"a": 9, "b": 2}),
        (Gate("floor", "l/1", 1), {"l": [0, 1]}, {"l": [1, 0]}),
        (Gate("floor", "i/a:b", 1), {"i": {"a:b": 1}}, {"i": {"a:b": 0}}),
    ],
)
def test_each_kind_passes_and_fails(table, gate, passing, failing):
    table(gate)
    assert evaluate("synthetic", passing) == []
    failures = evaluate("synthetic", failing)
    assert len(failures) == 1
    assert failures[0].startswith(f"{gate.key} = ")


def test_committed_gate_matches_exactly(table):
    table(Gate("committed", "run/counters"), Gate("committed", "digest"))
    payload = {"run": {"counters": {"applied": 5, "joins": 8}}}
    payload["digest"] = "d1"
    # no baseline (the smoke tests): exact-match gates are skipped
    assert evaluate("synthetic", payload) == []
    assert evaluate("synthetic", payload, copy.deepcopy(payload)) == []
    drifted = {"run": {"counters": {"applied": 6, "joins": 8}}}
    drifted["digest"] = "d2"
    failures = evaluate("synthetic", payload, drifted)
    assert len(failures) == 2
    assert failures[0].startswith("run/counters = ")
    assert failures[0].endswith("drifted: applied")
    assert failures[1].startswith("digest = 'd1'")


def test_missing_key_is_a_failure(table):
    table(
        Gate("floor", "a", 1),
        Gate("ratio", "b", 1.0, of="c"),
        Gate("committed", "d"),
    )
    failures = evaluate("synthetic", {"b": 1, "d": 0}, committed={})
    assert failures == [
        "a: missing from the payload",
        "b: c missing from the payload",
        "d: missing from the committed baseline",
    ]


def test_min_cores_skip_lands_in_notices():
    payload = {
        "cpu_count": 2,
        "notices": [],
        "read_parity_bitwise": True,
        "guarded_admission_single_mps": 600_000.0,
        "mp_shards4_mps": 300_000.0,
        "mp_speedup": 0.5,
    }
    assert evaluate("mp", payload) == []
    assert len(payload["notices"]) == 1
    assert "mp_speedup" in payload["notices"][0]
    assert "2 core(s) < 4" in payload["notices"][0]
    # evaluating again does not repeat the notice
    evaluate("mp", payload)
    assert len(payload["notices"]) == 1
    # with the cores to parallelize over, the floor is enforced
    payload["cpu_count"] = 4
    (failure,) = evaluate("mp", payload)
    assert failure.startswith("mp_speedup = 0.5, below the floor 1.5")


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("chaos", "chaos_torn_reads", 1),
        ("chaos", "overload_hard_failures", 1),
        ("chaos", "injected/checkpoint.write:corrupt", 2),
        ("mp", "read_parity_bitwise", False),
        ("cluster", "route_overhead_x", 4.5),
        ("obs", "trace_spans_completed", 117),
        ("scenario_churn_storm", "processes/invariants/torn_reads", 1),
        ("scenario_poison", "threads/digest_match", False),
    ],
)
def test_invariants_fire(name, key, value):
    payload = _committed(name)
    *parents, leaf = key.split("/")
    target = payload
    for part in parents:
        target = target[part]
    target[leaf] = value
    failures = evaluate(name, payload)
    assert len(failures) == 1
    assert failures[0].startswith(f"{key} = {value!r}")


def test_scenario_counter_drift_fails_against_committed():
    committed = _committed("scenario_diurnal")
    payload = copy.deepcopy(committed)
    payload["threads"]["counters"]["applied"] += 1
    payload["processes"]["counters"]["applied"] += 1
    failures = evaluate("scenario_diurnal", payload, committed)
    assert [f.split(" = ")[0] for f in failures] == [
        "threads/counters",
        "processes/counters",
    ]


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.name)
def test_committed_baselines_pass_their_gates(path):
    name = path.name[len("BENCH_"):-len(".json")]
    payload = json.loads(path.read_text())
    assert evaluate(name, payload, committed=copy.deepcopy(payload)) == []
    assert "machine" in payload, "baselines are written by --bless"


def test_every_bench_has_a_table_and_a_baseline():
    measured = set(compare.BENCHES) | {
        f"scenario_{name}" for name in scenario_names()
    }
    committed = {p.name[len("BENCH_"):-len(".json")] for p in BASELINES}
    assert committed == measured
    assert measured <= set(GATES)


def test_writer_resolves_under_bench_out(tmp_path, monkeypatch):
    root = benchkit.REPO_ROOT
    assert benchkit.out_path("mp") == root / ".bench_out" / "BENCH_mp.json"
    assert benchkit.out_path("mp", bless=True) == root / "BENCH_mp.json"
    monkeypatch.setattr(benchkit, "REPO_ROOT", tmp_path)
    written = benchkit.write("mp", {"b": 1, "a": [1.5]})
    assert written == tmp_path / ".bench_out" / "BENCH_mp.json"
    assert json.loads(written.read_text()) == {"a": [1.5], "b": 1}
    assert not (tmp_path / "BENCH_mp.json").exists()


def test_check_fails_on_truncated_baseline(tmp_path, monkeypatch):
    fresh = {"obs": _committed("obs"), "mp": _committed("mp")}
    text = benchkit.out_path("obs", bless=True).read_text()
    monkeypatch.setattr(benchkit, "REPO_ROOT", tmp_path)
    (tmp_path / "BENCH_obs.json").write_text(text[: len(text) // 2])
    failures = compare.check(fresh)
    assert len(failures) == 2
    assert failures[0].startswith("BENCH_obs.json: committed baseline")
    assert failures[1].startswith("BENCH_mp.json: committed baseline")


def test_check_reports_ungated_numbers(capsys):
    fresh = {"mp": _committed("mp")}
    fresh["mp"]["mp_shards4_mps"] *= 0.5  # a throughput drop: reported
    assert compare.check(fresh) == []
    out = capsys.readouterr().out
    assert "report mp.mp_shards4_mps: committed" in out
    assert "(-50%)" in out
