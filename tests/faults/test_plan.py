"""FaultPlan/FaultSpec: validation, ordering, templates."""

import pytest

from repro.faults import FaultPlan, FaultSpec, PLANS, named_plan
from repro.scenario import ScenarioEvent


def test_spec_validates_kind_and_times():
    with pytest.raises(ValueError):
        FaultSpec("tornado", 1.0)
    with pytest.raises(ValueError):
        FaultSpec("packet_loss", -1.0)
    with pytest.raises(ValueError):
        FaultSpec("packet_loss", 1.0, duration=-2.0)


@pytest.mark.parametrize("build", [
    *(lambda kind=kind: FaultSpec(kind, 1.0, 1.0)
      for kind in ("cpu_slowdown", "memory_pressure", "stall", "slow_consumer")),
    lambda: ScenarioEvent("link_degrade", 1.0, 1.0),
], ids=["cpu_slowdown", "memory_pressure", "stall", "slow_consumer", "link_degrade"])
def test_removed_kinds_are_refused(build):
    """Kinds no named plan or library scenario used are gone; asking for
    one fails at construction rather than arming nothing."""
    with pytest.raises(ValueError, match="unknown"):
        build()


def test_spec_until_and_params():
    spec = FaultSpec("latency", 5.0, 3.0, params={"extra": 0.04})
    assert spec.until == 8.0
    assert spec.param("extra") == 0.04
    assert spec.param("missing", 7) == 7


def test_builder_sorts_specs_by_time():
    plan = (
        FaultPlan()
        .broker_crash(at=20.0, broker="broker:1")
        .packet_loss(at=5.0, duration=2.0, probability=0.5)
        .latency(at=10.0, duration=1.0, extra=0.02)
    )
    assert [s.at for s in plan] == [5.0, 10.0, 20.0]
    assert len(plan) == 3
    assert plan.specs[0].kind == "packet_loss"


def test_builder_validates_parameters():
    with pytest.raises(ValueError):
        FaultPlan().packet_loss(at=0.0, duration=1.0, probability=1.5)
    with pytest.raises(ValueError):
        FaultPlan().latency(at=0.0, duration=1.0, extra=-0.1)
    with pytest.raises(ValueError):
        FaultPlan().partition(at=0.0, duration=1.0, hosts=())


def test_broker_crash_with_restart_carries_duration():
    plan = FaultPlan().broker_crash(at=10.0, restart_after=5.0)
    (spec,) = plan.specs
    assert spec.param("restart_after") == 5.0
    assert spec.until == 15.0


def test_every_named_template_lands_inside_the_window():
    since, duration = 100.0, 30.0
    for name in PLANS:
        plan = named_plan(name)(since, duration)
        assert len(plan) >= 1, name
        for spec in plan:
            assert since <= spec.at <= since + duration, (name, spec)
            assert spec.until <= since + duration + 1e-9, (name, spec)


def test_named_plan_unknown_raises():
    with pytest.raises(ValueError, match="unknown fault plan"):
        named_plan("earthquake")


def test_plans_are_pure_data():
    """Building a plan twice gives identical specs (no hidden randomness)."""
    a = named_plan("mixed")(50.0, 20.0)
    b = named_plan("mixed")(50.0, 20.0)
    assert a.specs == b.specs
