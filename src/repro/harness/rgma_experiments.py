"""R-GMA experiments: Figs 10, 11, 12, 13, 14 and the warm-up loss result.

:func:`rgma_run` reproduces the §III.F setup: generator clients create
Primary Producers against the producer servlet(s), publish a row every 10 s,
and per-client-node subscribers poll Consumer resources (with genid-range
WHERE clauses) every 100 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core import ExperimentResult, percentile_curve, rtt_stats
from repro.edge.upstream import RgmaUpstream
from repro.harness.figures import cpu_memory_figure, percentile_figure
from repro.harness.parallel import RunSpec
from repro.harness.pipeline import Adapter, RunResult, run_point
from repro.harness.registry import Experiment, RunContext
from repro.harness.scale import Scale
from repro.powergrid import FleetConfig, RgmaFleet, RgmaReceiver
from repro.rgma import RGMAConfig, RGMADeployment
from repro.transport.http import HttpClient

#: Generator client nodes (paper: two publish, two receive — §III.F.1).
PUBLISH_NODES = ("hydra5", "hydra6")
RECEIVE_NODES = ("hydra7", "hydra8")


@dataclass(kw_only=True)
class RgmaRunResult(RunResult):
    connections: int


@dataclass
class RgmaAdapter(Adapter):
    """Producer/consumer servlets on one server or four, polling
    subscribers with genid-range WHERE clauses and the Primary Producer
    fleet.  The fields are :func:`rgma_run`'s options."""

    #: Four servers (Fig 11's distributed network) instead of one.
    distributed: bool = False
    #: Subscribers read through one Secondary Producer (Fig 10).
    secondary_producer: bool = False
    #: Publish without the 10-20 s warm-up wait (the §III.F loss test).
    skip_warmup: bool = False
    #: HTTPS instead of HTTP between clients and the single server.
    use_https: bool = False
    config: Optional[RGMAConfig] = None

    name = "rgma"

    def creation_interval(self, scale: Scale, n_generators: int) -> float:
        return scale.creation_interval_rgma

    def fleet_options(self) -> dict[str, Any]:
        return dict(client_nodes=PUBLISH_NODES, skip_warmup=self.skip_warmup)

    def build(self, sim, cluster) -> dict[str, str]:
        self.sim, self.cluster = sim, cluster
        self.config = self.config or RGMAConfig()
        self.settle = self.config.mediation_period + 4.0
        transport = None
        if self.use_https:
            from repro.transport.tls import TlsTransport

            transport = TlsTransport(sim, cluster.lan)
        if self.distributed:
            self.deployment = RGMADeployment.distributed(sim, cluster, self.config)
            server_nodes = ("hydra1", "hydra2", "hydra3", "hydra4")
        else:
            self.deployment = RGMADeployment.single_server(
                sim, cluster, self.config, transport=transport
            )
            server_nodes = ("hydra1",)
        self.transport = self.deployment.transport
        if self.secondary_producer:
            # Fig 10: one SP on the (first) producer site; the subscribers
            # then read exclusively through it.  It adds its deliberate
            # delay to every message: extend the drain so republished
            # tuples are observed.
            self.extra_drain = self.config.secondary_producer_delay + 10.0
            http = HttpClient(
                sim,
                self.transport,
                cluster.node(RECEIVE_NODES[0]),
                self.deployment.producer_hosts[0],
                8080,
            )

            def create_sp():
                response = yield from http.request("/sp/create", {"table": "gridmon"}, 120)
                assert response.status == 200, response.body

            sim.run_process(create_sp())
        return dict.fromkeys(server_nodes, self.name)

    def attach_subscribers(self, fleet: FleetConfig) -> None:
        """Two subscribers, each taking one publisher node's genid block
        via a WHERE clause (content-based filtering at the producers)."""
        self.receivers = []
        if self.tap is not None:
            return self._subscribe(self.tap)
        for k, node_name in enumerate(RECEIVE_NODES):
            lo, hi = fleet.id_range(k)
            if lo < hi:
                self._subscribe(
                    node_name,
                    select_sql="SELECT * FROM gridmon "
                    f"WHERE genid >= {lo} AND genid < {hi}",
                    consumer_index=k,
                    producer_type="secondary" if self.secondary_producer else "primary",
                    poll_interval=self.config.poll_interval,
                )

    def _subscribe(self, node_name: str, **options: Any) -> None:
        receiver = RgmaReceiver(
            self.sim, self.cluster, self.deployment, node_name, **options
        )
        self.sim.run_process(receiver.start())
        self.receivers.append(receiver)

    def attach_publishers(self, fleet: FleetConfig, book) -> RgmaFleet:
        rgma_fleet = RgmaFleet(self.sim, self.cluster, self.deployment, fleet, book)
        rgma_fleet.start()
        return rgma_fleet

    def stop(self) -> None:
        for receiver in self.receivers:
            receiver.stop()

    def edge_upstream(self) -> tuple[str, Any]:
        """``(topic, upstream factory)`` for an edge tier fronting this run."""
        return "gridmon", RgmaUpstream(self.sim, self.deployment)

    def label(self, n_generators: int) -> str:
        return f"rgma{'_dist' if self.distributed else ''}[{n_generators}]"


def rgma_run(
    connections: int,
    *,
    scale: Optional[Scale] = None,
    seed: int = 1,
    fault_plan: Any = None,
    scenario: Any = None,
    **options: Any,
) -> RgmaRunResult:
    """One §III.F test: ``connections`` Primary Producers, two subscribers.

    ``options`` are :class:`RgmaAdapter`'s fields; ``fault_plan`` and
    ``scenario`` are as :func:`~repro.harness.pipeline.run_point`
    describes: link- and node-level faults apply (servlet stalls target the
    server nodes); broker and consumer faults are logged as skipped — this
    pipeline has no such process to kill.
    """
    return run_point(
        RgmaAdapter(**options), connections, RgmaRunResult, scale=scale,
        seed=seed, fault_plan=fault_plan, scenario=scenario,
        connections=connections,
    )


# ---------------------------------------------------------------- sweeps

SINGLE_SWEEP = (100, 200, 400, 600, 800)
DISTRIBUTED_SWEEP = (400, 600, 800, 1000)
SECONDARY_SWEEP = (50, 100, 200)


def single_sweep(ctx: RunContext) -> dict[int, RunSpec]:
    return {n: ctx.spec(rgma_run, connections=n, distributed=False) for n in SINGLE_SWEEP}


def distributed_sweep(ctx: RunContext) -> dict[int, RunSpec]:
    return {
        n: ctx.spec(rgma_run, connections=n, distributed=True)
        for n in DISTRIBUTED_SWEEP
    }


def secondary_sweep(ctx: RunContext) -> dict[int, RunSpec]:
    return {
        n: ctx.spec(rgma_run, connections=n, secondary_producer=True)
        for n in SECONDARY_SWEEP
    }


def warmup_pair(ctx: RunContext) -> dict[str, RunSpec]:
    """The §III.F loss experiment's two runs, keyed by table label."""
    return {
        label: ctx.spec(rgma_run, connections=400, skip_warmup=skip)
        for label, skip in (("no warm-up", True), ("10-20 s warm-up", False))
    }


def fig11(
    single: dict[int, RgmaRunResult], dist: dict[int, RgmaRunResult]
) -> ExperimentResult:
    """Fig 11: R-GMA RTT & STDDEV vs connections, single vs distributed."""
    result = ExperimentResult(
        "fig11",
        "R-GMA Primary Producer and Consumer tests",
        "concurrent connections",
        "millisecond",
    )
    for n, run in sorted(single.items()):
        if run.oom:
            result.note(
                f"single R-GMA server OOM at {n} connections "
                f"({run.refused} producers refused) — paper: 'one R-GMA "
                "server cannot accept 800 concurrent connections'"
            )
            continue
        result.add_point("RTT", n, run.mean_rtt_ms)
        result.add_point("STDDEV", n, run.stddev_rtt_ms)
    for n, run in sorted(dist.items()):
        if run.oom:
            result.note(f"distributed R-GMA OOM at {n} connections")
            continue
        result.add_point("RTT2", n, run.mean_rtt_ms)
        result.add_point("STDDEV2", n, run.stddev_rtt_ms)
    biggest = max((n for n, r in single.items() if not r.oom), default=None)
    if biggest is not None:
        frac = float((single[biggest].rtts <= 4.0).mean())
        result.note(
            f"single server at {biggest} connections: {frac:.1%} of messages "
            "within 4000 ms (paper: '99% of messages arrived within 4000 ms')"
        )
    return result


def fig12(single: dict[int, RgmaRunResult]) -> ExperimentResult:
    """Fig 12: single-server percentiles, 100-600 connections."""
    return percentile_figure(
        "fig12",
        "R-GMA Primary Producer and Consumer single server tests, percentile of RTT",
        single,
        upto=600,
    )


def fig13(
    single: dict[int, RgmaRunResult], dist: dict[int, RgmaRunResult]
) -> ExperimentResult:
    """Fig 13: CPU idle and memory, single vs distributed."""
    return cpu_memory_figure(
        "fig13", "R-GMA Consumer tests, CPU idle and memory consumption", single, dist
    )


def fig14(dist: dict[int, RgmaRunResult]) -> ExperimentResult:
    """Fig 14: distributed percentiles, 400-1000 connections."""
    return percentile_figure(
        "fig14", "R-GMA distributed network tests, percentile of RTT", dist
    )


def fig10(secondary: dict[int, RgmaRunResult]) -> ExperimentResult:
    """Fig 10: Primary + Secondary Producer percentiles (50-200 conns).

    "The delays were up to 35 seconds" — the SP's deliberate 30 s republish
    delay plus the normal pipeline.
    """
    result = ExperimentResult(
        "fig10",
        "R-GMA Primary and Secondary Producer tests, percentile of RTT",
        "percentile",
        "second",
    )
    for n, run in secondary.items():
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(str(n), pct, ms / 1e3)  # the paper plots seconds
        result.note(
            f"{n} connections: mean RTT {run.mean_rtt_ms / 1e3:.1f} s "
            f"(loss {run.loss_rate:.2%})"
        )
    return result


def warmup_loss(runs: dict[str, RgmaRunResult]) -> ExperimentResult:
    """§III.F: '400 generators publishing data without waiting for the
    server to warm up ... loss rate was 0.17%'."""
    result = ExperimentResult(
        "rgma_warmup_loss",
        "R-GMA loss without producer warm-up wait",
        "case",
        "loss rate",
    )
    # Loss is counted over the WHOLE run (the paper counted every message,
    # including the pre-discovery ones).
    rows = []
    for label, run in runs.items():
        total_stats = rtt_stats(run.book, since=0.0)
        rows.append(
            [label, total_stats.sent, total_stats.count,
             f"{total_stats.loss_rate:.4%}"]
        )
        result.add_point(label, 0, total_stats.loss_rate)
    result.table = (["case", "sent", "received", "loss rate"], rows)
    result.note(
        "paper: 72,000 sent, 71,876 received, 0.17% loss without warm-up; "
        "zero loss with the 10-20 s warm-up wait"
    )
    return result


EXPERIMENTS = (
    Experiment(
        "fig10", "Fig 10: R-GMA percentile of RTT, light load", fig10,
        reads=(secondary_sweep,),
    ),
    Experiment(
        "fig11", "Fig 11: R-GMA RTT/STDDEV vs connections", fig11,
        reads=(single_sweep, distributed_sweep),
    ),
    Experiment(
        "fig12", "Fig 12: R-GMA single-server percentile of RTT", fig12,
        reads=(single_sweep,),
    ),
    Experiment(
        "fig13", "Fig 13: R-GMA CPU idle and memory vs connections", fig13,
        reads=(single_sweep, distributed_sweep),
    ),
    Experiment(
        "fig14", "Fig 14: R-GMA distributed percentile of RTT", fig14,
        reads=(distributed_sweep,),
    ),
    Experiment(
        "rgma_warmup_loss",
        "R-GMA loss with and without the warm-up sleep",
        warmup_loss,
        reads=(warmup_pair,),
    ),
)
