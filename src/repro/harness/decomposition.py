"""Fig 15: RTT decomposition — RTT = PRT + PT + SRT.

"PRT is Publishing Response Time... PT is Process Time, which is how long it
takes to process data in the middleware.  SRT is Subscribing Response Time...
As we can see from the graph, both Publishing and Subscribing Response Time
of R-GMA are short, but the Process Time is very long.  ...  The three
phases of NaradaBrokering are very short" (§III.F.2).

The figure plots cumulative time at the four phase boundaries
(before_sending, after_sending, before_receiving, after_receiving).

Every figure here reads its runs as sweeps, like every other figure, and
decomposes each run's record book over its measurement window with
:func:`repro.core.metrics.decompose` — the four timestamps are the
record's own.  ``fig15_federation`` and ``fig15_edge`` also report broker
hops and gateway dwell, which the same records carry as phase marks
(:meth:`repro.core.records.MessageRecord.mark`).
"""

from __future__ import annotations

from repro.core import ExperimentResult, decompose
from repro.core.metrics import PhaseBreakdown
from repro.harness.edge_experiments import edge_point
from repro.harness.federation_experiments import federation_run
from repro.harness.narada_experiments import narada_run
from repro.harness.parallel import RunSpec
from repro.harness.plog_experiments import plog_run
from repro.harness.registry import Experiment, RunContext
from repro.harness.rgma_experiments import rgma_run

PHASES = ("before_sending", "after_sending", "before_receiving", "after_receiving")

#: The common moderate load every middleware is decomposed at.
FIG15_CONNECTIONS = 400


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


def federation_tree(ctx: RunContext, n_brokers: int = 7) -> dict[str, RunSpec]:
    return {"Federation": ctx.spec(federation_run, n_brokers=n_brokers)}


def edge_hop(
    ctx: RunContext,
    n_clients: int = 2000,
    n_gateways: int = 2,
    middleware: str = "narada",
) -> dict[str, RunSpec]:
    """One edge run, keyed by the middleware behind the gateways."""
    return {
        middleware: ctx.spec(
            edge_point, n_clients=n_clients, n_gateways=n_gateways,
            middleware=middleware,
        )
    }


def fig15_federation(runs: dict) -> ExperimentResult:
    """Fig 15 on the federated path: RTT = PRT + PT + SRT for an event that
    climbs a broker tree, decomposed from its record book like Fig 15.

    PT here is multi-hop — each record carries one ``broker_in``/
    ``broker_out`` mark per federation broker traversed, so the trace
    exporters can break the middleware residency down per hop.
    """
    result = ExperimentResult(
        "fig15_federation",
        "RTT decomposition on the federated tree (cumulative ms per phase)",
        "phase",
        "millisecond",
    )
    run = runs["Federation"]
    phases = _book_rows(result, runs, ("Federation",))["Federation"]
    hops = max((r.hops for r in run.book.records), default=0)
    result.note(
        f"{run.n_brokers} brokers: PT {phases.pt_ms:.1f} ms covers up to "
        f"{hops} broker-side marks on one span (root-bound tree path); "
        f"loss {run.loss_rate:.2%}"
    )
    return result


def fig15_edge(runs: dict) -> ExperimentResult:
    """Fig 15 with the long-poll gateway hop in the path.

    PT here includes the edge tier: records carry ``edge_in`` (event
    reaches the gateway off its pooled upstream connection), ``parked``
    (how long the winning long-poll request had been parked) and
    ``edge_out`` (the HTTP response leaves), so the gateway dwell —
    ``edge_out - edge_in`` — is separable from the native middleware
    transit.
    """
    result = ExperimentResult(
        "fig15_edge",
        "RTT decomposition through the edge gateway hop (cumulative ms)",
        "phase",
        "millisecond",
    )
    ((middleware, run),) = runs.items()
    phases = _book_rows(result, {"Edge": run}, ("Edge",))["Edge"]
    dwells = [
        (r.marks["edge_out"][0] - r.marks["edge_in"][0]) * 1e3
        for r in run.book.records
        if r.marks and "edge_in" in r.marks and "edge_out" in r.marks
        and r.t_before_send >= run.measure_since
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
        reads=(federation_tree,),
    ),
    Experiment(
        "fig15_edge", "RTT decomposition through the long-poll gateway hop", fig15_edge,
        reads=(edge_hop,),
    ),
)
