"""Fig 15: RTT decomposition — RTT = PRT + PT + SRT.

"PRT is Publishing Response Time... PT is Process Time, which is how long it
takes to process data in the middleware.  SRT is Subscribing Response Time...
As we can see from the graph, both Publishing and Subscribing Response Time
of R-GMA are short, but the Process Time is very long.  ...  The three
phases of NaradaBrokering are very short" (§III.F.2).

The figure plots cumulative time at the four phase boundaries
(before_sending, after_sending, before_receiving, after_receiving).

``fig15`` and ``fig15_threeway`` read their runs as sweeps, like every other
figure, and decompose each run's record book
(:func:`repro.core.metrics.decompose`) — the four timestamps are the
record's own.  ``fig15_federation`` and ``fig15_edge`` also report broker
hops and gateway dwell, which only a span records, so they run inside a
telemetry session — the caller's when one is installed (e.g. the runner's
``--trace`` flag), a private one otherwise — and read the decomposition off
the span pipeline.
"""

from __future__ import annotations

import contextlib
from typing import Optional

from repro.core import ExperimentResult, decompose
from repro.core.metrics import PhaseBreakdown
from repro.harness.narada_experiments import narada_run
from repro.harness.parallel import RunSpec
from repro.harness.plog_experiments import plog_run
from repro.harness.registry import Experiment, RunContext
from repro.harness.rgma_experiments import rgma_run
from repro.harness.scale import Scale
from repro.telemetry import Telemetry
from repro.telemetry import context as tel_context
from repro.telemetry.spans import phase_breakdown

PHASES = ("before_sending", "after_sending", "before_receiving", "after_receiving")

#: The common moderate load every middleware is decomposed at.
FIG15_CONNECTIONS = 400


def _session(label: str):
    """The active telemetry session, or a private one for this figure.

    Returns ``(telemetry, context_manager)``; the context manager installs
    the private session only when no outer one is active, so the runner's
    ``--trace`` session sees these runs' spans too.
    """
    active = tel_context.current()
    if active is not None:
        return active, contextlib.nullcontext()
    tel = Telemetry(label)
    return tel, tel_context.session(tel)


def _decomposition_rows(
    result: ExperimentResult, breakdowns: dict[str, PhaseBreakdown]
) -> None:
    """Add cumulative series + table rows, one per ``label: phases``."""
    rows = []
    for label, phases in breakdowns.items():
        cumulative = [
            0.0,
            phases.prt_ms,
            phases.prt_ms + phases.pt_ms,
            phases.prt_ms + phases.pt_ms + phases.srt_ms,
        ]
        for x, value in enumerate(cumulative):
            result.add_point(label, x, value)
        rows.append(
            [label, phases.prt_ms, phases.pt_ms, phases.srt_ms, phases.rtt_ms]
        )
    result.table = (
        ["system", "PRT (ms)", "PT (ms)", "SRT (ms)", "RTT (ms)"],
        rows,
    )
    result.meta["phases"] = PHASES


def _book_rows(
    result: ExperimentResult, runs: dict, labels: tuple[str, ...]
) -> dict[str, PhaseBreakdown]:
    """Decompose each labelled run's record book over its measurement
    window, rows in ``labels`` order."""
    breakdowns = {
        label: decompose(runs[label].book, since=runs[label].measure_since)
        for label in labels
    }
    _decomposition_rows(result, breakdowns)
    return breakdowns


def paper_pair(
    ctx: RunContext, connections: int = FIG15_CONNECTIONS
) -> dict[str, RunSpec]:
    """The paper's two systems.  Narada runs first: a ``--trace`` file
    records the runs in sweep order."""
    return {
        "Narada": ctx.spec(narada_run, connections=connections),
        "RGMA": ctx.spec(rgma_run, connections=connections),
    }


def threeway_runs(
    ctx: RunContext, connections: int = FIG15_CONNECTIONS
) -> dict[str, RunSpec]:
    return {
        "RGMA": ctx.spec(rgma_run, connections=connections),
        "Narada": ctx.spec(narada_run, connections=connections),
        "Plog": ctx.spec(plog_run, connections=connections),
    }


def fig15(pair: dict) -> ExperimentResult:
    """Both paper systems at a common moderate load."""
    result = ExperimentResult(
        "fig15",
        "RTT decomposition (cumulative ms at each phase boundary)",
        "phase",
        "millisecond",
    )
    breakdowns = _book_rows(result, pair, ("RGMA", "Narada"))
    rgma_phases = breakdowns["RGMA"]
    narada_phases = breakdowns["Narada"]
    if rgma_phases.pt_ms > 3 * max(rgma_phases.prt_ms, rgma_phases.srt_ms):
        result.note(
            "R-GMA: PRT and SRT are short; the Process Time dominates "
            "(the delay lives in the Primary Producer and Consumer, §III.F.2)"
        )
    result.note(
        f"Narada total RTT {narada_phases.rtt_ms:.1f} ms vs "
        f"R-GMA {rgma_phases.rtt_ms:.0f} ms"
    )
    return result


def fig15_federation(
    scale: Optional[Scale] = None,
    seed: int = 1,
    n_brokers: int = 7,
) -> ExperimentResult:
    """Fig 15 on the federated path: RTT = PRT + PT + SRT for an event that
    climbs a broker tree, decomposed from the same span pipeline.

    PT here is multi-hop — the spans carry one ``broker_in``/``broker_out``
    mark per federation broker traversed, so the trace exporters can break
    the middleware residency down per hop.
    """
    from repro.harness.federation_experiments import federation_run

    result = ExperimentResult(
        "fig15_federation",
        "RTT decomposition on the federated tree (cumulative ms per phase)",
        "phase",
        "millisecond",
    )
    tel, ctx = _session("fig15_federation")
    with ctx:
        run = federation_run(n_brokers, scale=scale, seed=seed)
    spans = tel.spans_for_book(run.book)
    phases = phase_breakdown(spans, since=run.measure_since)
    _decomposition_rows(result, {"Federation": phases})
    max_hops = max((s.hops for s in spans), default=0)
    result.note(
        f"{run.n_brokers} brokers: PT {phases.pt_ms:.1f} ms covers up to "
        f"{max_hops} broker-side marks on one span (root-bound tree path); "
        f"loss {run.loss_rate:.2%}"
    )
    return result


def fig15_edge(
    scale: Optional[Scale] = None,
    seed: int = 1,
    n_clients: int = 2000,
    n_gateways: int = 2,
    middleware: str = "narada",
) -> ExperimentResult:
    """Fig 15 with the long-poll gateway hop in the path.

    PT here includes the edge tier: spans carry ``edge_in`` (event reaches
    the gateway off its pooled upstream connection), ``parked`` (how long
    the winning long-poll request had been parked) and ``edge_out`` (the
    HTTP response leaves), so the gateway dwell — ``edge_out - edge_in`` —
    is separable from the native middleware transit.
    """
    from repro.harness.edge_experiments import edge_point

    result = ExperimentResult(
        "fig15_edge",
        "RTT decomposition through the edge gateway hop (cumulative ms)",
        "phase",
        "millisecond",
    )
    tel, ctx = _session("fig15_edge")
    with ctx:
        run = edge_point(
            n_clients, n_gateways, middleware, scale=scale, seed=seed
        )
    spans = tel.spans_for_book(run.book)
    phases = phase_breakdown(spans, since=run.measure_since)
    _decomposition_rows(result, {"Edge": phases})
    dwells = [
        (s.phases["edge_out"] - s.phases["edge_in"]) * 1e3
        for s in spans
        if "edge_in" in s.phases and "edge_out" in s.phases
        and s.phases["created"] >= run.measure_since
    ]
    mean_dwell = sum(dwells) / len(dwells) if dwells else 0.0
    result.note(
        f"{middleware} + edge tier ({run.n_gateways} gateways, "
        f"{run.n_clients} clients): gateway dwell (edge_in -> edge_out) "
        f"averages {mean_dwell:.2f} ms of the {phases.pt_ms:.1f} ms PT; "
        f"{run.pooled_connections} pooled upstream connection(s) carry the "
        "whole population"
    )
    result.meta["gateway_dwell_ms"] = mean_dwell
    result.meta["middleware"] = middleware
    return result


def fig15_threeway(runs: dict) -> ExperimentResult:
    """Fig 15 extended: RTT = PRT + PT + SRT for all three middlewares."""
    result = ExperimentResult(
        "fig15_threeway",
        "RTT decomposition, three middlewares (cumulative ms per phase)",
        "phase",
        "millisecond",
    )
    _book_rows(result, runs, ("RGMA", "Narada", "Plog"))
    result.note(
        "plog PRT is the produce acknowledgement round trip, which includes "
        "the producer's linger; the ack races the consumer's woken fetch, so "
        "PT (ack-to-arrival) can be small or slightly negative — batching "
        "buys fan-in scalability with tens of milliseconds of added latency, "
        "far inside the §I ~5 s budget"
    )
    return result


#: These two run under a telemetry session — their notes read broker hops
#: and gateway dwell, which only a span records — and a session bypasses
#: the sweep's disk cache anyway: they take scale and seed and run directly.
_DIRECT = ("scale", "seed")

EXPERIMENTS = (
    Experiment(
        "fig15", "Fig 15: RTT decomposition (PRT/PT/SRT), R-GMA vs Narada", fig15,
        reads=(paper_pair,),
    ),
    Experiment(
        "fig15_threeway",
        "RTT decomposition for R-GMA, Narada and the plog",
        fig15_threeway,
        reads=(threeway_runs,),
    ),
    Experiment(
        "fig15_federation",
        "RTT decomposition on the federated broker tree",
        fig15_federation,
        params=_DIRECT,
    ),
    Experiment(
        "fig15_edge", "RTT decomposition through the long-poll gateway hop", fig15_edge,
        params=_DIRECT,
    ),
)
