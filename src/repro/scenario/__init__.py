"""repro.scenario — the grid scenario engine.

One scenario script drives *correlated* workload bursts and infrastructure
faults — the coupled perturbations a real grid event produces — and its
outcome is scored against the paper's §I soft-real-time SLA, per
middleware, as a scorecard.

The pipeline:

1. **Author** (:mod:`~repro.scenario.events`,
   :mod:`~repro.scenario.library`): a :class:`Scenario` is a named, pure
   timeline of regional events — ``alarm_storm`` (rate burst with ramp)
   and ``substation_outage`` (partition + publisher die-off).
   :data:`SCENARIOS` holds the library (storm front, cascading trip, alarm
   storm, dispatch surge) as templates of the measurement window, like
   :data:`repro.faults.PLANS`.
2. **Compile** (:mod:`~repro.scenario.compiler`): lower the scenario onto a
   concrete fleet — a :class:`~repro.powergrid.rates.RateSchedule` for the
   workload side and a :class:`~repro.faults.FaultPlan` fragment for the
   infrastructure side.  The run functions of all three middlewares (plus
   the federation and edge tiers) accept ``scenario=`` and arm both.
3. **Score** (:mod:`~repro.scenario.sla`): deadline-miss %, loss %,
   duplicate %, and during-burst vs steady-state P99 per leg, rendered at
   fixed precision so equal seeds give byte-identical scorecards.

``repro.harness`` exposes this as the ``scenario_threeway`` and
``scenario_edge_storm`` experiments (``--scenario`` picks the script).
"""

from repro.scenario.compiler import (
    RAMP_STEPS,
    CompiledScenario,
    arm_scenario,
    burst_windows,
    compile_scenario,
    merge_fault_plan,
    region_hosts,
)
from repro.scenario.events import EVENT_KINDS, Scenario, ScenarioEvent
from repro.scenario.library import (
    SCENARIOS,
    ScenarioTemplate,
    alarm_storm,
    cascading_trip,
    dispatch_surge,
    named_scenario,
    storm_front,
)
from repro.scenario.sla import (
    DEADLINE_S,
    SCORECARD_HEADERS,
    LegScore,
    scorecard,
    scorecard_row,
    score_leg,
    sla_windows,
)

__all__ = [
    "CompiledScenario",
    "DEADLINE_S",
    "EVENT_KINDS",
    "LegScore",
    "RAMP_STEPS",
    "SCENARIOS",
    "SCORECARD_HEADERS",
    "Scenario",
    "ScenarioEvent",
    "ScenarioTemplate",
    "alarm_storm",
    "arm_scenario",
    "burst_windows",
    "cascading_trip",
    "compile_scenario",
    "dispatch_surge",
    "merge_fault_plan",
    "named_scenario",
    "region_hosts",
    "scorecard",
    "scorecard_row",
    "score_leg",
    "sla_windows",
    "storm_front",
]
