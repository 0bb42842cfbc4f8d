"""Scenario engine: seeded schedules, determinism, poison bounds.

Three concerns:

* the declarative layer (:mod:`repro.scenarios.engine`) — load curves,
  event-rule validation and materialization, phase/scenario wiring;
* the determinism contract — same seed ⇒ bitwise-identical event
  schedule *and* bitwise-identical deterministic counters across two
  in-process runs; different seed ⇒ a different schedule;
* the poison scenario's admission accounting — the guard's
  rejection-reason breakdown must attribute the liars to the sigma
  filter (``rejected_guard``) and the garbage to input validation
  (``dropped_invalid``), within declared bounds, on the static *and*
  the adaptive guard path.
"""

from __future__ import annotations

import json

import pytest

from repro.scenarios import (
    BurstLoad,
    ConstantLoad,
    EventSpec,
    Phase,
    Scenario,
    SineLoad,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenarios.engine import KNOWN_ACTIONS, stream

SEED = 20111206


# ----------------------------------------------------------------------
# load curves
# ----------------------------------------------------------------------


class TestLoadCurves:
    def test_constant_is_flat(self):
        curve = ConstantLoad(samples=120)
        assert [curve.samples_at(t) for t in (0, 5, 99)] == [120, 120, 120]

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError, match="samples"):
            ConstantLoad(samples=-1)

    def test_sine_cycles_and_floors_at_zero(self):
        curve = SineLoad(base=10, amplitude=50, period=8)
        values = [curve.samples_at(t) for t in range(8)]
        assert max(values) == 60  # base + amplitude at the crest
        assert min(values) == 0  # floored, never negative offered load
        assert curve.samples_at(0) == curve.samples_at(8)  # periodic

    def test_sine_phase_shift_moves_the_crest(self):
        base = SineLoad(base=100, amplitude=40, period=16)
        shifted = SineLoad(base=100, amplitude=40, period=16, phase_shift=4)
        assert shifted.samples_at(0) == base.samples_at(4)

    def test_sine_validation(self):
        with pytest.raises(ValueError, match="period"):
            SineLoad(base=10, amplitude=5, period=0)
        with pytest.raises(ValueError, match="amplitude"):
            SineLoad(base=10, amplitude=-5, period=8)

    def test_burst_plateau_window(self):
        curve = BurstLoad(quiet=10, burst=500, start=2, stop=5)
        assert [curve.samples_at(t) for t in range(7)] == [
            10, 10, 500, 500, 500, 10, 10,
        ]

    def test_burst_validation(self):
        with pytest.raises(ValueError, match="start < stop"):
            BurstLoad(quiet=1, burst=2, start=5, stop=5)


# ----------------------------------------------------------------------
# event rules
# ----------------------------------------------------------------------


class TestEventSpec:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown event action"):
            EventSpec(action="explode", at=(1,))

    def test_exactly_one_trigger_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            EventSpec(action="drift_step")  # none
        with pytest.raises(ValueError, match="exactly one"):
            EventSpec(action="drift_step", at=(1,), every=2)  # two

    def test_at_out_of_phase_range(self):
        spec = EventSpec(action="drift_step", at=(12,))
        with pytest.raises(ValueError, match="out of range"):
            spec.materialize(stream(SEED, 0), 0, 10, 64)

    def test_count_exceeding_phase_rejected(self):
        spec = EventSpec(action="drift_step", count=11)
        with pytest.raises(ValueError, match="exceeds"):
            spec.materialize(stream(SEED, 0), 0, 10, 64)

    def test_every_offset_grid(self):
        spec = EventSpec(action="rotate_hot_pair", every=4, offset=1)
        events = spec.materialize(stream(SEED, 0), 100, 12, 64)
        assert [e.tick for e in events] == [101, 105, 109]

    def test_draw_nodes_without_replacement_across_rule(self):
        spec = EventSpec(
            action="leave", count=8, draw_nodes=1, node_low=32
        )
        events = spec.materialize(stream(SEED, 0), 0, 16, 64)
        nodes = [e.param("nodes")[0] for e in events]
        assert len(set(nodes)) == len(nodes) == 8
        assert all(32 <= n < 64 for n in nodes)

    def test_draw_nodes_pool_exhaustion_rejected(self):
        spec = EventSpec(action="leave", count=8, draw_nodes=1, node_low=60)
        with pytest.raises(ValueError, match="distinct nodes"):
            spec.materialize(stream(SEED, 0), 0, 16, 64)

    def test_draws_attach_sub_seeds(self):
        spec = EventSpec(action="drift_step", at=(3,), draws=2)
        (event,) = spec.materialize(stream(SEED, 0), 0, 10, 64)
        assert len(event.param("draw")) == 2

    def test_static_params_ride_along(self):
        spec = EventSpec(action="set_shards", at=(4,), params={"target": 2})
        (event,) = spec.materialize(stream(SEED, 0), 10, 10, 64)
        assert event.tick == 14
        assert event.param("target") == 2


# ----------------------------------------------------------------------
# phases and scenarios
# ----------------------------------------------------------------------


def _tiny_scenario(**overrides) -> Scenario:
    kwargs = dict(
        name="tiny",
        description="unit fixture",
        phases=(
            Phase(name="a", ticks=4, load=ConstantLoad(8)),
            Phase(
                name="b",
                ticks=6,
                load=ConstantLoad(8),
                events=(
                    EventSpec(action="drift_step", count=2, draws=1),
                ),
            ),
        ),
        nodes=64,
        shards=1,
        protect=8,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestScenario:
    def test_phase_at_walks_the_shared_clock(self):
        scenario = _tiny_scenario()
        assert scenario.total_ticks == 10
        index, phase, local = scenario.phase_at(5)
        assert (index, phase.name, local) == (1, "b", 1)
        with pytest.raises(IndexError):
            scenario.phase_at(10)

    def test_duplicate_phase_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            _tiny_scenario(
                phases=(
                    Phase(name="a", ticks=2, load=ConstantLoad(1)),
                    Phase(name="a", ticks=2, load=ConstantLoad(1)),
                )
            )

    def test_guard_posture_validated(self):
        with pytest.raises(ValueError, match="guard"):
            _tiny_scenario(guard="mystery")

    def test_unknown_traffic_kind_rejected(self):
        with pytest.raises(ValueError, match="traffic kind"):
            Phase(name="x", ticks=2, load=ConstantLoad(1), traffic="chaos")

    def test_subset_keeps_named_phases_only(self):
        scenario = _tiny_scenario()
        sub = scenario.subset(("b",))
        assert [p.name for p in sub.phases] == ["b"]
        assert sub.total_ticks == 6
        with pytest.raises(ValueError, match="unknown phase"):
            scenario.subset(("nope",))

    def test_shortest_phase(self):
        assert _tiny_scenario().shortest_phase() == "a"

    def test_too_many_event_rules_rejected(self):
        rules = tuple(
            EventSpec(action="drift_step", at=(0,)) for _ in range(64)
        )
        scenario = _tiny_scenario(
            phases=(
                Phase(name="a", ticks=2, load=ConstantLoad(1), events=rules),
            )
        )
        with pytest.raises(ValueError, match="63 event rules"):
            scenario.build_schedule(SEED)


class TestSchedule:
    def test_same_seed_same_schedule(self):
        scenario = _tiny_scenario()
        one = scenario.build_schedule(SEED)
        two = scenario.build_schedule(SEED)
        assert one.events == two.events
        assert one.digest() == two.digest()

    def test_different_seed_different_schedule(self):
        scenario = _tiny_scenario()
        assert (
            scenario.build_schedule(SEED).digest()
            != scenario.build_schedule(SEED + 1).digest()
        )

    def test_adding_a_rule_never_perturbs_another(self):
        """Per-rule streams: rule 0's draws survive a new sibling."""
        base = _tiny_scenario()
        grown = _tiny_scenario(
            phases=(
                base.phases[0],
                Phase(
                    name="b",
                    ticks=6,
                    load=ConstantLoad(8),
                    events=base.phases[1].events
                    + (EventSpec(action="rotate_hot_pair", every=2,
                                 draw_nodes=2),),
                ),
            )
        )
        original = [
            e for e in base.build_schedule(SEED).events
            if e.action == "drift_step"
        ]
        grown_drift = [
            e for e in grown.build_schedule(SEED).events
            if e.action == "drift_step"
        ]
        assert original == grown_drift

    def test_events_sorted_on_the_global_clock(self):
        schedule = get_scenario("churn_storm").build_schedule(SEED)
        ticks = [e.tick for e in schedule.events]
        assert ticks == sorted(ticks)
        assert schedule.at(ticks[0])[0].tick == ticks[0]


# ----------------------------------------------------------------------
# the library
# ----------------------------------------------------------------------


class TestLibrary:
    def test_six_named_scenarios(self):
        names = scenario_names()
        assert len(names) >= 6
        for expected in (
            "diurnal",
            "flash_crowd",
            "drift",
            "poison",
            "churn_storm",
            "replay",
        ):
            assert expected in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")

    def test_every_scenario_schedules_known_actions_only(self):
        for name in scenario_names():
            schedule = get_scenario(name).build_schedule(SEED)
            for event in schedule.events:
                assert event.action in KNOWN_ACTIONS
                assert 0 <= event.tick < get_scenario(name).total_ticks


# ----------------------------------------------------------------------
# run determinism (the property the whole PR gates on)
# ----------------------------------------------------------------------


class TestRunDeterminism:
    def test_same_seed_identical_counters_and_digest(self):
        """Two in-process runs: counters equal key by key."""
        scenario = get_scenario("diurnal").subset(("dawn",))
        one = run_scenario(scenario, workers="threads", seed=SEED)
        two = run_scenario(scenario, workers="threads", seed=SEED)
        assert one["schedule"]["digest"] == two["schedule"]["digest"]
        assert one["executed_digest"] == two["executed_digest"]
        assert one["digest_match"] and two["digest_match"]
        assert set(one["counters"]) == set(two["counters"])
        for key in one["counters"]:
            assert one["counters"][key] == two["counters"][key], key

    def test_different_seed_different_schedule(self):
        scenario = get_scenario("churn_storm").subset(("partition",))
        one = run_scenario(scenario, workers="threads", seed=SEED)
        two = run_scenario(scenario, workers="threads", seed=SEED + 1)
        assert one["schedule"]["digest"] != two["schedule"]["digest"]

    def test_invariants_hold_on_a_smoke_slice(self):
        scenario = get_scenario("drift").subset(("settled",))
        payload = run_scenario(scenario, workers="threads", seed=SEED)
        invariants = payload["invariants"]
        assert invariants["ok"]
        assert invariants["availability"] >= 0.999
        assert invariants["torn_reads"] == 0
        assert invariants["version_rewinds"] == 0


def _keys(node) -> set:
    """Every dict key anywhere inside a JSON document."""
    if isinstance(node, dict):
        return set(node).union(*(_keys(v) for v in node.values()))
    if isinstance(node, list):
        return set().union(*(_keys(v) for v in node))
    return set()


class TestBenchDocument:
    def test_wall_clock_is_reported_not_written(self, tmp_path, capsys):
        """The written document is reproducible: no wall-clock fields,
        which would make every bless rewrite the baselines; the report
        still prints them."""
        from repro.cli import main

        output = tmp_path / "BENCH_scenario_churn_storm.json"
        code = main(
            ["bench", "--scenario", "churn_storm", "--workers", "threads",
             "--output", str(output)]
        )
        assert code == 0
        keys = _keys(json.loads(output.read_text()))
        assert "counters" in keys
        assert not keys & {"run_s", "fed_pps", "timing"}
        report = capsys.readouterr().out
        assert "run_s=" in report and "fed_pps=" in report


# ----------------------------------------------------------------------
# poison: admission accounting on both guard paths
# ----------------------------------------------------------------------


def _poison_bounds(payload: dict) -> None:
    """Shared bound asserts for the poison admission accounting."""
    counters = payload["counters"]
    breakdown = payload["guard_breakdown"]
    # the liars are shed by the sigma filter, attributed as "outlier"
    assert counters["rejected_guard"] >= 1
    assert counters["rejected_guard"] <= counters["poisoned_fed"]
    rejected = breakdown["admission_rejected"]
    assert rejected["outlier"] == counters["rejected_guard"]
    assert rejected["rate_limit"] == 0  # wall-clock never in admission
    assert breakdown["rejected_total"] == sum(rejected.values())
    # the garbage (NaN/negative) is shed by input validation, *before*
    # the guard — a separate ledger line
    assert counters["dropped_invalid"] == counters["garbage_fed"] >= 1
    assert (
        breakdown["admission_received"]
        == counters["fed"] - counters["dropped_invalid"]
    )
    # honest traffic overwhelmingly admitted: the filter sheds at most
    # a small false-positive fraction of it
    admitted = breakdown["admission_admitted"]
    assert admitted >= 0.95 * counters["honest_fed"]
    assert payload["invariants"]["ok"]


class TestPoisonGuard:
    def test_static_guard_breakdown_exact(self):
        payload = run_scenario(
            "poison", workers="threads", seed=SEED, guard_override="static"
        )
        assert payload["guard_breakdown"]["mode"] == "static"
        _poison_bounds(payload)

    def test_adaptive_guard_breakdown_bounded(self):
        """The adaptive path shares the evaluator across shards, so its
        observation order is interleaved — bounds, not exact equality
        with the static path."""
        payload = run_scenario(
            "poison", workers="threads", seed=SEED, guard_override="adaptive"
        )
        assert payload["guard_breakdown"]["mode"] == "adaptive"
        _poison_bounds(payload)
        static = run_scenario(
            "poison", workers="threads", seed=SEED, guard_override="static"
        )
        delta = abs(
            payload["counters"]["rejected_guard"]
            - static["counters"]["rejected_guard"]
        )
        # both paths shed the same liar population to within a small
        # band; validation drops are identical (pre-guard)
        assert delta <= 0.05 * static["counters"]["poisoned_fed"]
        assert (
            payload["counters"]["dropped_invalid"]
            == static["counters"]["dropped_invalid"]
        )
