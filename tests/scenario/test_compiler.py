"""Compiler: scenarios lower onto rate schedules + fault plans correctly."""

import pytest

from repro.faults import FaultPlan, named_plan
from repro.powergrid.workload import FleetConfig
from repro.scenario import (
    RAMP_STEPS,
    Scenario,
    arm_scenario,
    cascading_trip,
    compile_scenario,
    merge_fault_plan,
    region_hosts,
)


def _fleet(n=800, nodes=("hydra5", "hydra6", "hydra7", "hydra8")):
    return FleetConfig(n_generators=n, stop_at=200.0, client_nodes=nodes)


def test_flat_burst_becomes_one_rate_window():
    scenario = Scenario("s", n_regions=4).alarm_storm(
        100.0, 20.0, region=1, multiplier=6.0
    )
    compiled = compile_scenario(scenario, _fleet())
    assert len(compiled.rates) == 1
    (window,) = compiled.rates
    assert (window.start, window.end) == (100.0, 120.0)
    assert (window.gen_lo, window.gen_hi) == (200, 400)
    assert window.multiplier == 6.0
    assert len(compiled.faults) == 0
    assert [(w.start, w.end) for w in compiled.burst_windows] == [(100.0, 120.0)]


def test_ramp_discretizes_into_climbing_steps():
    scenario = Scenario("s").alarm_storm(
        100.0, 20.0, region=None, multiplier=5.0, ramp=8.0
    )
    compiled = compile_scenario(scenario, _fleet())
    windows = list(compiled.rates)
    assert len(windows) == RAMP_STEPS + 1
    multipliers = [w.multiplier for w in windows]
    assert multipliers == sorted(multipliers)
    assert multipliers[-1] == 5.0
    assert windows[0].start == 100.0
    assert windows[-1] == windows[-1].__class__(108.0, 120.0, 0, 800, 5.0)


def test_substation_outage_partitions_hosts_and_silences_generators():
    scenario = Scenario("s", n_regions=4).substation_outage(100.0, 30.0, region=2)
    fleet = _fleet()
    compiled = compile_scenario(scenario, fleet)
    (spec,) = compiled.faults
    assert spec.kind == "partition"
    # Region 2 of 4 over 800 block-assigned generators lives on hydra7.
    assert spec.params["hosts"] == ("hydra7",)
    (window,) = compiled.rates
    assert window.multiplier == 0.0
    assert (window.gen_lo, window.gen_hi) == (400, 600)
    assert compiled.burst_windows == ()


def test_region_hosts_follows_fleet_assignment():
    scenario = Scenario("s", n_regions=4)
    event = scenario.alarm_storm(0.0, 1.0, region=None).events[0]
    assert region_hosts(scenario, event, _fleet()) == (
        "hydra5", "hydra6", "hydra7", "hydra8",
    )


def test_empty_cohort_is_skipped():
    scenario = Scenario("s", n_regions=4).alarm_storm(0.0, 1.0, region=2)
    compiled = compile_scenario(scenario, _fleet(n=2))
    # 2 generators over 4 regions: region 2 is (1, 1) -> nothing compiled.
    assert len(compiled.rates) == 0


def test_arm_scenario_threads_rates_into_the_fleet():
    fleet = _fleet()
    armed, compiled = arm_scenario(
        lambda ms, d: Scenario("s").alarm_storm(ms, d / 2, multiplier=2.0),
        100.0,
        60.0,
        fleet,
    )
    assert compiled is not None
    assert armed.rates is compiled.rates
    assert fleet.rates is None  # input untouched
    assert arm_scenario(None, 100.0, 60.0, fleet) == (fleet, None)


def test_merge_fault_plan_composes_with_user_plan():
    scenario = Scenario("s", n_regions=4).substation_outage(100.0, 10.0, region=0)
    compiled = compile_scenario(scenario, _fleet())
    assert merge_fault_plan(None, None) is None
    assert merge_fault_plan(compiled, None) is compiled.faults
    user = named_plan("latency_spike")(100.0, 60.0)
    merged = merge_fault_plan(compiled, user)
    assert {s.kind for s in merged} == {"partition", "latency"}
    # A scenario with no faults passes the user plan through untouched.
    quiet = compile_scenario(Scenario("q").alarm_storm(0.0, 1.0), _fleet())
    assert merge_fault_plan(quiet, user) is user


def test_overlapping_partitions_merge_but_loss_conflicts_raise():
    """cascading_trip on five generators puts both outages on hydra5, and
    they overlap; merged with ``mixed`` they stay two windows, which the
    link checks one by one.  A loss window has parameters two overlapping
    specs can disagree on, so that clash still raises."""
    compiled = compile_scenario(cascading_trip(10.0, 30.0), _fleet(n=5))
    user = named_plan("mixed")(10.0, 30.0)
    merged = merge_fault_plan(compiled, user)
    cuts = [(s.at, s.until) for s in merged if s.kind == "partition"]
    assert [s.target for s in merged if s.kind == "partition"] == ["hydra5"] * 2
    assert cuts == [pytest.approx((14.5, 20.5)), pytest.approx((19.3, 25.3))]
    assert {s.kind for s in merged} == {"partition", "packet_loss", "latency"}
    (loss,) = (s for s in user if s.kind == "packet_loss")
    clashing = named_plan("mixed")(10.0, 30.0).packet_loss(
        loss.at + 0.5 * loss.duration, loss.duration, probability=0.9
    )
    with pytest.raises(ValueError, match="conflicting packet_loss windows"):
        merge_fault_plan(compiled, clashing)
