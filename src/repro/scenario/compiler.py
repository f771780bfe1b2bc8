"""Lowering scenarios onto concrete runs.

:func:`compile_scenario` turns a pure :class:`~repro.scenario.events.Scenario`
into the two artefacts a run can arm:

* a :class:`~repro.powergrid.rates.RateSchedule` — every ``rate_burst``
  becomes piecewise-constant multiplier windows over the region's
  generator-id block (ramps discretized into :data:`RAMP_STEPS` equal
  steps), every ``substation_outage`` a multiplier-0 die-off window;
* a :class:`~repro.faults.FaultPlan` — every ``substation_outage`` becomes
  a LAN partition of the client node(s) physically hosting the region's
  generators.

The same compiled scenario therefore drives *both* sides of a grid event
deterministically, against any middleware: the run functions
(``narada_run`` / ``rgma_run`` / ``plog_run`` / ``edge_point``) thread the
rate schedule into their fleet and merge the fault fragment with any user
``--fault-plan`` via :meth:`FaultPlan.merge`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.faults import FaultPlan
from repro.powergrid.rates import RateSchedule
from repro.scenario.events import Scenario, ScenarioEvent
from repro.telemetry.windows import TimeWindow

if TYPE_CHECKING:  # pragma: no cover
    from repro.powergrid.workload import FleetConfig

#: Constant steps a linear ramp is discretized into.  The schedule stays
#: piecewise-constant (every boundary known before the run starts), which
#: is what lets a sleeping generator wake exactly at each rate change.
RAMP_STEPS = 4


@dataclass
class CompiledScenario:
    """One scenario lowered onto one concrete fleet."""

    scenario: Scenario
    rates: RateSchedule
    faults: FaultPlan
    #: Every ``rate_burst`` window, labeled ``"burst"`` for the SLA scorer.
    burst_windows: tuple[TimeWindow, ...]


def burst_windows(scenario: Scenario) -> tuple[TimeWindow, ...]:
    """The scenario's burst slices (fleet-independent: times only)."""
    return tuple(
        TimeWindow("burst", event.at, event.until)
        for event in scenario
        if event.kind == "rate_burst"
    )


def region_hosts(
    scenario: Scenario, event: ScenarioEvent, fleet: "FleetConfig"
) -> tuple[str, ...]:
    """The client node(s) hosting the event's generator cohort."""
    lo, hi = _cohort(scenario, event, fleet)
    return tuple(
        sorted(
            {
                fleet.client_nodes[fleet.node_index(gen_id)]
                for gen_id in range(lo, hi)
            }
        )
    )


def _cohort(
    scenario: Scenario, event: ScenarioEvent, fleet: "FleetConfig"
) -> tuple[int, int]:
    if event.region is None:
        return 0, fleet.n_generators
    return scenario.region_range(event.region, fleet.n_generators)


def _lower_burst(
    rates: RateSchedule, event: ScenarioEvent, lo: int, hi: int
) -> None:
    if event.multiplier == 1.0:
        return
    start = event.at
    if event.ramp > 0.0:
        step = event.ramp / RAMP_STEPS
        for i in range(RAMP_STEPS):
            fraction = (i + 1) / RAMP_STEPS
            multiplier = 1.0 + (event.multiplier - 1.0) * fraction
            rates.window(
                start + i * step, start + (i + 1) * step, lo, hi, multiplier
            )
        start += event.ramp
    if start < event.until:
        rates.window(start, event.until, lo, hi, event.multiplier)


def compile_scenario(
    scenario: Scenario, fleet: "FleetConfig"
) -> CompiledScenario:
    """Lower ``scenario`` onto a fleet: rate schedule + fault-plan fragment."""
    rates = RateSchedule()
    faults = FaultPlan()
    for event in scenario:
        lo, hi = _cohort(scenario, event, fleet)
        if lo >= hi:
            continue  # fewer generators than regions: empty cohort
        if event.kind == "rate_burst":
            _lower_burst(rates, event, lo, hi)
        elif event.kind == "substation_outage":
            hosts = region_hosts(scenario, event, fleet)
            faults.partition(event.at, event.duration, hosts)
            rates.window(event.at, event.until, lo, hi, 0.0)
    return CompiledScenario(
        scenario=scenario,
        rates=rates,
        faults=faults,
        burst_windows=burst_windows(scenario),
    )


def arm_scenario(
    scenario, measure_since: float, duration: float, fleet: "FleetConfig"
) -> tuple["FleetConfig", Optional[CompiledScenario]]:
    """Resolve and lower ``scenario`` onto a run's fleet config.

    ``scenario`` is a :class:`Scenario`, a template callable
    ``(measure_since, duration) -> Scenario``, or ``None``.  Returns the
    fleet config with the compiled rate schedule threaded in (the run
    functions hand it to their fleets), plus the compiled scenario whose
    fault fragment still needs merging — see :func:`merge_fault_plan`.
    """
    if scenario is None:
        return fleet, None
    concrete = (
        scenario(measure_since, duration) if callable(scenario) else scenario
    )
    compiled = compile_scenario(concrete, fleet)
    return dataclasses.replace(fleet, rates=compiled.rates), compiled


def merge_fault_plan(
    compiled: Optional[CompiledScenario], plan: Optional[FaultPlan]
) -> Optional[FaultPlan]:
    """Compose the scenario's fault fragment with a user ``--fault-plan``."""
    if compiled is None or not len(compiled.faults):
        return plan
    if plan is None:
        return compiled.faults
    return compiled.faults.merge(plan)
