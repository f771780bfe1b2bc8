"""NaradaBrokering experiments: Table II / Figs 3, 4, 6, 7, 8, 9.

One building block — :func:`narada_run` — sets up the testbed exactly as
§III.E describes (brokers, per-node subscribers with id-range selectors,
staggered generator fleet), runs it, and returns the record book plus node
statistics.  The figure builders assemble paper series from such runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core import ExperimentResult, percentile_curve
from repro.core.metrics import within_threshold
from repro.edge.upstream import NaradaUpstream
from repro.harness.figures import cpu_memory_figure, percentile_figure
from repro.harness.parallel import RunSpec
from repro.harness.pipeline import Adapter, RunResult, make_transport, run_point
from repro.harness.registry import Experiment, RunContext
from repro.harness.scale import Scale
from repro.jms import AckMode
from repro.narada import Broker, NaradaConfig, star_network
from repro.powergrid import FleetConfig, NaradaFleet, NaradaReceiver
from repro.powergrid.workload import MONITORING_TOPIC

BROKER_PORT = 5045
BROKER_NODES_SINGLE = ("hydra1",)
BROKER_NODES_DBN = ("hydra1", "hydra2", "hydra3", "hydra4")


@dataclass(kw_only=True)
class NaradaRunResult(RunResult):
    """Everything one test run produces."""

    connections: int
    broker_stats: dict[str, Any] = field(default_factory=dict)
    #: Redeliveries the durable receivers' (gen_id, seq) index absorbed.
    redeliveries: int = 0
    #: Supervised-receiver reconnects (durable mode under faults).
    receiver_reconnects: int = 0
    #: Retained copies the broker replayed on durable re-subscribes.
    messages_replayed: int = 0


@dataclass
class NaradaAdapter(Adapter):
    """One broker or the 4-broker DBN, per-node selector subscribers and
    the JMS generator fleet.  The fields are :func:`narada_run`'s options."""

    #: The paper's 4-broker distributed broker network (hub + three
    #: publishing leaves, Fig 5) instead of one broker.
    dbn: bool = False
    #: ``tcp``, ``nio``, ``udp`` or ``udp_raw`` (:func:`~repro.harness.
    #: pipeline.make_transport`).
    transport_kind: str = "tcp"
    #: The subscribers' JMS acknowledgement mode.
    ack_mode: int = AckMode.AUTO_ACKNOWLEDGE
    #: Payload multiplier (Table II "Triple": x3 payload at 1/3 the rate).
    payload_multiplier: int = 1
    #: Seconds between one generator's publishes.
    publish_interval: float = 10.0
    config: Optional[NaradaConfig] = None
    #: Publisher retry-with-backoff (a :class:`~repro.faults.RetryPolicy`);
    #: ``None`` keeps the paper's one-shot publishes.
    fleet_retry: Any = None
    #: Every subscriber is a *supervised durable* subscription: the broker
    #: retains delivered-but-unacked and offline messages for replay, the
    #: receiver reconnects and re-subscribes after connection loss (broker
    #: crash or its own), and a ``(gen_id, seq)`` index turns the replayed
    #: at-least-once stream into exactly-once processing.
    durable_receivers: bool = False

    name = "narada"

    def fleet_options(self) -> dict[str, Any]:
        return dict(
            publish_interval=self.publish_interval,
            payload_multiplier=self.payload_multiplier,
            retry=self.fleet_retry,
        )

    def build(self, sim, cluster) -> dict[str, str]:
        self.sim, self.cluster = sim, cluster
        # JMS over UDP loses 1.7 % of datagrams at baseline (§III.E.1).
        self.transport = make_transport(
            self.transport_kind, sim, cluster.lan, udp_loss=0.017
        )
        self.config = self.config or NaradaConfig()
        self.nodes = BROKER_NODES_DBN if self.dbn else BROKER_NODES_SINGLE
        self.brokers = []
        for i, node_name in enumerate(self.nodes):
            broker = Broker(sim, cluster.node(node_name), f"broker{i + 1}", self.config)
            broker.serve(self.transport, BROKER_PORT)
            self.brokers.append(broker)
        if self.dbn:
            # The paper's unit controller (hub) + three leaves, via the shared
            # single-network builder (also the federation sweep's A/B leg).
            sim.run_process(star_network(sim, self.transport, self.brokers, hub_index=0))
        return dict.fromkeys(self.nodes, self.name)

    def attach_subscribers(self, fleet: FleetConfig) -> None:
        """Per-client-node subscribers, each with an id-range selector
        covering its own node's generators ("data were received by the node
        where they were sent", §III.E.2) — all on the *subscribing* broker
        (the hub/unit controller in the DBN, Fig 5)."""
        if self.tap is not None:
            subscriptions = [(self.tap, None)]
        else:
            ranges = [fleet.id_range(k) for k in range(len(fleet.client_nodes))]
            subscriptions = [
                (node, f"id >= {lo} AND id < {hi}")
                for node, (lo, hi) in zip(fleet.client_nodes, ranges)
                if lo < hi
            ]
        self.receivers = self.consumers = []
        for node_name, selector in subscriptions:
            receiver = NaradaReceiver(
                self.sim,
                self.cluster,
                self.transport,
                (self.nodes[0], BROKER_PORT),
                node_name,
                MONITORING_TOPIC,
                selector=selector,
                ack_mode=self.ack_mode,
                config=self.config,
                durable_name=f"durable.{node_name}" if self.durable_receivers else None,
                recover=self.durable_receivers,
                name=f"narada-recv.{node_name}",
            )
            if self.durable_receivers:
                # Supervised: start() is a long-running reconnect loop, not a
                # one-shot connect — run it as a background process.
                self.sim.process(receiver.start(), name=f"{receiver.name}.supervisor")
            else:
                try:
                    self.sim.run_process(receiver.start())
                except Exception:
                    self.subscribers_failed += 1
                    continue
            self.receivers.append(receiver)

    def attach_publishers(self, fleet: FleetConfig, book) -> NaradaFleet:
        """In the DBN, publishers connect to the *publishing* brokers (the
        leaves, Fig 5), so every event crosses the broker network."""
        publishing = self.nodes[1:] or self.nodes
        addresses = [
            (publishing[k % len(publishing)], BROKER_PORT)
            for k in range(len(fleet.client_nodes))
        ]
        narada_fleet = NaradaFleet(
            self.sim, self.cluster, self.transport, addresses, fleet, book,
            config=self.config, topic=MONITORING_TOPIC,
        )
        narada_fleet.start()
        return narada_fleet

    def edge_upstream(self) -> tuple[str, Any]:
        """``(topic, upstream factory)`` for an edge tier fronting this run."""
        address = (self.nodes[0], BROKER_PORT)
        return MONITORING_TOPIC.name, NaradaUpstream(
            self.sim, self.transport, address, self.config
        )

    def label(self, n_generators: int) -> str:
        return f"narada{'_dbn' if self.dbn else ''}[{n_generators}]"

    def counters(self, run) -> dict[str, Any]:
        return dict(
            redeliveries=sum(r.redeliveries for r in self.receivers),
            receiver_reconnects=sum(r.reconnects for r in self.receivers),
            messages_replayed=sum(b.stats.messages_replayed for b in self.brokers),
            broker_stats={
                b.name: {
                    "published": b.stats.messages_published,
                    "delivered": b.stats.messages_delivered,
                    "forwards_received": b.stats.forwards_received,
                    "forwarded": b.stats.messages_forwarded,
                    "replayed": b.stats.messages_replayed,
                    "threads_peak": b.jvm.threads_peak,
                }
                for b in self.brokers
            },
        )


def narada_run(
    connections: int,
    *,
    scale: Optional[Scale] = None,
    seed: int = 1,
    fault_plan: Any = None,
    scenario: Any = None,
    **options: Any,
) -> NaradaRunResult:
    """One §III.E test: ``connections`` generators against one broker or the
    4-broker DBN, measured in steady state.

    ``options`` are :class:`NaradaAdapter`'s fields; ``fault_plan`` and
    ``scenario`` arm fault injection and workload perturbation as
    :func:`~repro.harness.pipeline.run_point` describes.
    """
    return run_point(
        NaradaAdapter(**options), connections, NaradaRunResult, scale=scale,
        seed=seed, fault_plan=fault_plan, scenario=scenario,
        connections=connections,
    )


# --------------------------------------------------------- comparison tests

#: Table II: the six §III.E.1 comparison tests at 800 connections.
COMPARISON_TESTS: dict[str, dict[str, Any]] = {
    "UDP": dict(transport_kind="udp"),
    "UDP CLI": dict(transport_kind="udp", ack_mode=AckMode.CLIENT_ACKNOWLEDGE),
    "NIO": dict(transport_kind="nio"),
    "TCP": dict(transport_kind="tcp"),
    "Triple": dict(transport_kind="tcp", payload_multiplier=3),
    "80": dict(transport_kind="tcp", connections=80, publish_interval=1.0),
}

COMPARISON_CONNECTIONS = 800


def comparison_tests(ctx: RunContext) -> dict[str, RunSpec]:
    """All six Table II settings (shared by fig3, fig4 and the loss table)."""
    return {
        name: ctx.spec(
            narada_run, **{"connections": COMPARISON_CONNECTIONS, **overrides}
        )
        for name, overrides in COMPARISON_TESTS.items()
    }


def fig3(runs: dict[str, NaradaRunResult]) -> ExperimentResult:
    """Fig 3: RTT and STDDEV bars for the comparison tests."""
    result = ExperimentResult(
        "table2_fig3",
        "Narada comparison tests: Round-Trip Time and Standard Deviation",
        "test",
        "millisecond",
    )
    headers = ["test", "RTT (ms)", "STDDEV (ms)", "loss rate"]
    rows = []
    order_names = [
        n for n in ("UDP", "UDP CLI", "NIO", "Triple", "TCP", "80") if n in runs
    ]
    for order, name in enumerate(order_names):
        run = runs[name]
        rows.append(
            [name, run.mean_rtt_ms, run.stddev_rtt_ms, f"{run.loss_rate:.4%}"]
        )
        result.add_point("RTT", order, run.mean_rtt_ms)
        result.add_point("STDDEV", order, run.stddev_rtt_ms)
    result.table = (headers, rows)
    if "TCP" in runs and "UDP" in runs:
        tcp, udp = runs["TCP"], runs["UDP"]
        result.note(
            f"UDP mean RTT is {udp.mean_rtt_ms / tcp.mean_rtt_ms:.1f}x TCP's "
            "(JMS-over-UDP acknowledgement pathology, §III.E.1)"
        )
    return result


def fig4(runs: dict[str, NaradaRunResult]) -> ExperimentResult:
    """Fig 4: percentile of RTT (95-100%) per comparison test."""
    result = ExperimentResult(
        "fig4",
        "Narada comparison tests, percentile of RTT",
        "percentile",
        "millisecond",
    )
    for name in ("NIO", "TCP", "UDP", "Triple", "80"):
        if name not in runs:
            continue
        for pct, ms in percentile_curve(runs[name].rtts):
            result.add_point(name, pct, ms)
    return result


# ----------------------------------------------------------- scaling sweeps

SINGLE_SWEEP = (500, 1000, 2000, 3000, 4000)
DBN_SWEEP = (2000, 3000, 4000, 5000)


def single_sweep(ctx: RunContext) -> dict[int, RunSpec]:
    return {n: ctx.spec(narada_run, connections=n, dbn=False) for n in SINGLE_SWEEP}


def dbn_sweep(ctx: RunContext) -> dict[int, RunSpec]:
    return {n: ctx.spec(narada_run, connections=n, dbn=True) for n in DBN_SWEEP}


def fig7(
    single: dict[int, NaradaRunResult], dbn: dict[int, NaradaRunResult]
) -> ExperimentResult:
    """Fig 7: RTT & STDDEV vs connections, single broker vs DBN."""
    result = ExperimentResult(
        "fig7",
        "Narada tests, round-trip time and standard deviation",
        "concurrent connections",
        "millisecond",
    )
    for n, run in sorted(single.items()):
        if run.oom:
            result.note(
                f"single broker OOM at {n} connections "
                f"({run.refused} refused; threads peak "
                f"{run.broker_stats['broker1']['threads_peak']})"
            )
            continue
        result.add_point("RTT", n, run.mean_rtt_ms)
        result.add_point("STDDEV", n, run.stddev_rtt_ms)
    for n, run in sorted(dbn.items()):
        if run.oom:
            result.note(f"DBN OOM at {n} connections ({run.refused} refused)")
            continue
        if run.mean_rtt_ms > 1000 or run.loss_rate > 0.01:
            result.note(
                f"DBN data congestion at {n} connections (hub saturated): "
                "the v1.1.3 broadcast deficiency 'causes data congestion and "
                "limits its scalability' (paper §V)"
            )
            continue
        result.add_point("RTT2", n, run.mean_rtt_ms)
        result.add_point("STDDEV2", n, run.stddev_rtt_ms)
    # §III.E.2 headline: 99.8 % of messages within 100 ms.
    biggest_ok = max((n for n, r in single.items() if not r.oom), default=None)
    if biggest_ok is not None:
        frac = within_threshold(single[biggest_ok].rtts, 0.100)
        result.note(
            f"single broker at {biggest_ok} connections: "
            f"{frac:.1%} of messages within 100 ms"
        )
    return result


def fig6(
    single: dict[int, NaradaRunResult], dbn: dict[int, NaradaRunResult]
) -> ExperimentResult:
    """Fig 6: CPU idle and memory consumption vs connections."""
    return cpu_memory_figure(
        "fig6", "Narada tests, CPU idle and memory consumption", single, dbn
    )


def fig8(single: dict[int, NaradaRunResult]) -> ExperimentResult:
    """Fig 8: single-broker percentile of RTT for 500-3000 connections."""
    return percentile_figure(
        "fig8", "Narada single server tests, percentile of RTT", single, upto=3000
    )


def fig9(dbn: dict[int, NaradaRunResult]) -> ExperimentResult:
    """Fig 9: DBN percentile of RTT for 2000-4000 connections."""
    return percentile_figure(
        "fig9", "Narada DBN tests, percentile of RTT", dbn, upto=4000
    )


EXPERIMENTS = (
    Experiment(
        "table2_fig3", "Table II / Fig 3: Narada comparison tests, RTT + STDDEV", fig3,
        reads=(comparison_tests,),
    ),
    Experiment(
        "fig4", "Fig 4: Narada comparison tests, percentile of RTT", fig4,
        reads=(comparison_tests,),
    ),
    Experiment(
        "fig6", "Fig 6: Narada CPU idle and memory vs connections", fig6,
        reads=(single_sweep, dbn_sweep),
    ),
    Experiment(
        "fig7", "Fig 7: Narada RTT/STDDEV vs connections, single vs DBN", fig7,
        reads=(single_sweep, dbn_sweep),
    ),
    Experiment(
        "fig8", "Fig 8: Narada single-broker percentile of RTT", fig8,
        reads=(single_sweep,),
    ),
    Experiment(
        "fig9", "Fig 9: Narada DBN percentile of RTT", fig9, reads=(dbn_sweep,)
    ),
)
