"""The fleet engine honours packet_loss windows and rejects every other kind."""

import pytest

from repro.faults import PLANS
from repro.harness.scale import Scale
from repro.powergrid.fleet_engine import loss_windows_of, run_fleet_point

TINY = Scale(
    name="tiny",
    duration=12.0,
    creation_interval_narada=0.005,
    creation_interval_rgma=0.005,
    warmup=(0.5, 1.0),
    drain=5.0,
)

UNSUPPORTED = sorted(
    name
    for name, template in PLANS.items()
    if any(spec.kind != "packet_loss" for spec in template(1.0, 12.0))
)


def test_every_plan_but_loss_burst_has_an_unsupported_kind():
    assert "loss_burst" not in UNSUPPORTED
    assert {"latency_spike", "partition", "broker_outage", "gateway_outage",
            "durability_gauntlet", "mixed"} <= set(UNSUPPORTED)


@pytest.mark.parametrize("plan_name", UNSUPPORTED)
def test_unsupported_fault_kinds_raise(plan_name):
    kinds = sorted(
        {s.kind for s in PLANS[plan_name](1.0, 12.0)} - {"packet_loss"}
    )
    with pytest.raises(ValueError, match="packet_loss windows only") as info:
        run_fleet_point("narada", 50, TINY, fault_plan=plan_name)
    for kind in kinds:
        assert kind in str(info.value)


def test_loss_only_plan_is_accepted():
    windows = loss_windows_of(PLANS["loss_burst"](1.0, 12.0))
    assert windows and all(p > 0 for _, _, p in windows)
    assert loss_windows_of(None) == ()
