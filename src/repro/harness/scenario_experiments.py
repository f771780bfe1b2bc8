"""Scenario experiments: one grid day, three middlewares, one scorecard.

``scenario_threeway`` replays one :mod:`repro.scenario` script — correlated
workload bursts *and* the infrastructure faults the same grid events
produce — against all three middlewares with identical seed and scale, and
scores each leg against the §I soft-real-time SLA: deadline-miss %, loss %,
duplicate %, and during-burst vs steady-state P99.  ``scenario_edge_storm``
drives the same script through the edge long-poll tier in front of each
middleware, asking whether the gateway fan-out holds the SLA when the grid
misbehaves.

Legs are independent runs declared as :class:`~repro.harness.parallel.
RunSpec` tables — scenario and fault plan travel as library *names* — so
``--jobs`` fans them out over processes; every number in the scorecard is
rendered at fixed precision, so one seed gives byte-identical scorecards,
serial or parallel.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

from repro.core import ExperimentResult, percentile_curve
from repro.harness.chaos_experiments import CHAOS_RETRY
from repro.harness.edge_experiments import EDGE_MIDDLEWARES, edge_point
from repro.harness.narada_experiments import narada_run
from repro.harness.parallel import RunSpec
from repro.harness.plog_experiments import plog_run
from repro.harness.registry import Experiment, RunContext
from repro.harness.rgma_experiments import rgma_run
from repro.harness.scale import Scale
from repro.plog import ACKS_ALL, PlogConfig
from repro.scenario import burst_windows, named_scenario, score_leg, scorecard

#: Shared load for the threeway legs: big enough that a regional burst
#: covers hundreds of in-flight messages, small enough for smoke.
SCENARIO_CONNECTIONS = 200

#: The threeway legs, in scorecard order.
THREEWAY_LEGS = ("Narada (UDP, retry)", "R-GMA (TCP)", "Plog (TCP, acks=all)")

#: Edge-storm population: long-poll clients / gateways per middleware leg.
EDGE_CLIENTS = 2000
EDGE_GATEWAYS = 2


def threeway_legs(
    ctx: RunContext, connections: int = SCENARIO_CONNECTIONS
) -> dict[str, RunSpec]:
    """One middleware per leg under ``ctx``'s scenario (and fault plan)."""
    narada, rgma, plog = THREEWAY_LEGS
    return {
        narada: ctx.spec(
            narada_run, connections=connections, transport_kind="udp",
            fleet_retry=CHAOS_RETRY,  # the chaos legs' publisher recovery
        ),
        rgma: ctx.spec(rgma_run, connections=connections),
        # TCP + acks=all + one-shot producer: nothing is retried blind, so
        # the receivers must absorb zero duplicates even mid-burst — the
        # scorecard's shape gate.
        plog: ctx.spec(
            plog_run, connections=connections,
            config=PlogConfig(acks=ACKS_ALL, consumer_recovery=True),
        ),
    }


def edge_legs(ctx: RunContext) -> dict[str, RunSpec]:
    """The same scenario through the edge tier in front of each middleware."""
    return {
        f"edge/{middleware} ({EDGE_CLIENTS}c, {EDGE_GATEWAYS}g)": ctx.spec(
            edge_point, n_clients=EDGE_CLIENTS, n_gateways=EDGE_GATEWAYS,
            middleware=middleware,
        )
        for middleware in EDGE_MIDDLEWARES
    }


def scorecard_report(
    experiment_id: str,
    title: str,
    note: str,
    runs: dict[str, Any],
    scale: Scale,
    scenario: str,
    fault_plan: Optional[str],
) -> ExperimentResult:
    """Score finished runs against the scenario's burst windows — one SLA
    scorecard row per leg.

    The template is re-resolved with each run's *own* measurement window —
    warmup differs per middleware, so each leg's bursts sit at different
    absolute times but identical positions relative to its window.
    (Edge runs count duplicates at the stamping client.)
    """
    result = ExperimentResult(
        experiment_id, title.format(scenario), "percentile", "millisecond"
    )
    scores = []
    for label, run in runs.items():
        concrete = named_scenario(scenario)(run.measure_since, scale.duration)
        scores.append(
            score_leg(
                label,
                run.book,
                measure_since=run.measure_since,
                stop_at=run.measure_since + scale.duration,
                burst=burst_windows(concrete),
                duplicates=run.duplicates,
            )
        )
    headers, rows = scorecard(scores)
    result.table = (list(headers), [list(r) for r in rows])
    for label, run in runs.items():
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(label, pct, ms)
        for line in run.fault_log:
            result.note(f"fault[{label}]: {line}")
    result.note(note)
    result.meta["scenario"] = scenario
    result.meta["fault_plan"] = fault_plan
    result.meta["scores"] = {s.label: s.to_dict() for s in scores}
    result.meta["scorecard"] = [list(r) for r in rows]
    return result


#: One scenario script, three middlewares, one SLA scorecard.
scenario_threeway = Experiment(
    "scenario_threeway",
    "One grid scenario on all three middlewares, SLA scorecard",
    partial(
        scorecard_report,
        "scenario_threeway",
        "Scenario {!r} on all three middlewares",
        "each leg's bursts sit at identical positions relative to its own "
        "measurement window; scores compare like with like",
    ),
    reads=(threeway_legs,),
    params=("scale", "scenario", "fault_plan"),
    scenario="storm_front",
)
#: The scenario through the edge tier, per upstream middleware.
scenario_edge_storm = Experiment(
    "scenario_edge_storm",
    "One grid scenario through the edge tier, SLA scorecard",
    partial(
        scorecard_report,
        "scenario_edge_storm",
        "Scenario {!r} through the edge tier",
        f"{EDGE_CLIENTS} long-poll clients over {EDGE_GATEWAYS} gateways "
        "per leg; duplicates counted at the stamping client",
    ),
    reads=(edge_legs,),
    params=("scale", "scenario", "fault_plan"),
    scenario="alarm_storm",
)

EXPERIMENTS = (scenario_threeway, scenario_edge_storm)
