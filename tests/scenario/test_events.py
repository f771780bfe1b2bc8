"""Scenario DSL: validation, ordering, regions, library templates."""

import pytest

from repro.scenario import SCENARIOS, Scenario, ScenarioEvent, named_scenario


def test_event_validation():
    with pytest.raises(ValueError, match="unknown scenario event kind"):
        ScenarioEvent("earthquake", 0.0, 10.0)
    with pytest.raises(ValueError):
        ScenarioEvent("rate_burst", -1.0, 10.0)
    with pytest.raises(ValueError):
        ScenarioEvent("rate_burst", 0.0, 0.0)
    with pytest.raises(ValueError):
        ScenarioEvent("rate_burst", 0.0, 10.0, multiplier=-1.0)
    with pytest.raises(ValueError, match="ramp"):
        ScenarioEvent("rate_burst", 0.0, 10.0, ramp=11.0)


def test_builders_validate_region_and_sort_events():
    scenario = Scenario("s", n_regions=2)
    scenario.alarm_storm(50.0, 10.0, region=1)
    scenario.alarm_storm(10.0, 10.0, region=0, multiplier=4.0)
    scenario.substation_outage(30.0, 10.0, region=1)
    assert [e.at for e in scenario] == [10.0, 30.0, 50.0]
    with pytest.raises(ValueError, match="region 2 out of range"):
        scenario.alarm_storm(0.0, 1.0, region=2)


def test_region_range_partitions_the_fleet():
    scenario = Scenario("s", n_regions=4)
    ranges = [scenario.region_range(r, 10) for r in range(4)]
    assert ranges == [(0, 2), (2, 5), (5, 7), (7, 10)]
    # Contiguous, disjoint, exhaustive.
    assert ranges[0][0] == 0 and ranges[-1][1] == 10
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    with pytest.raises(ValueError):
        scenario.region_range(4, 10)


def test_cache_key_reflects_structure():
    a = Scenario("s").alarm_storm(10.0, 20.0, region=0)
    b = Scenario("s").alarm_storm(10.0, 20.0, region=0)
    c = Scenario("s").alarm_storm(10.0, 20.0, region=0, multiplier=9.0)
    assert a.cache_key() == b.cache_key()
    assert a.cache_key() != c.cache_key()


def test_library_templates_land_inside_the_window():
    for name, template in SCENARIOS.items():
        scenario = template(100.0, 60.0)
        assert scenario.name == name
        assert len(scenario) >= 1
        for event in scenario:
            assert event.at >= 100.0
            assert event.until <= 160.0 + 1e-9


def test_library_templates_are_deterministic():
    for template in SCENARIOS.values():
        assert (
            template(100.0, 60.0).cache_key() == template(100.0, 60.0).cache_key()
        )


def test_storm_front_moves_across_regions():
    scenario = named_scenario("storm_front")(0.0, 100.0)
    bursts = [e for e in scenario if e.kind == "rate_burst"]
    assert [e.region for e in bursts] == [0, 1, 2, 3]
    assert all(a.at < b.at for a, b in zip(bursts, bursts[1:]))


def test_cascading_trip_interleaves_faults_and_bursts():
    scenario = named_scenario("cascading_trip")(0.0, 100.0)
    kinds = [e.kind for e in scenario]
    assert kinds.count("substation_outage") == 2
    assert kinds.count("rate_burst") == 2
    # Each outage precedes the neighbor's overload burst.
    outages = [e for e in scenario if e.kind == "substation_outage"]
    bursts = [e for e in scenario if e.kind == "rate_burst"]
    for outage, burst in zip(outages, bursts):
        assert burst.at > outage.at
        assert burst.region == outage.region + 1


def test_named_scenario_unknown():
    with pytest.raises(ValueError, match="unknown scenario"):
        named_scenario("heat_dome")
