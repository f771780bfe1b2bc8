"""Partitioned-log experiments: the third middleware candidate.

The paper's §V diagnosis is that neither measured system scales past a few
thousand generators: Narada's thread-per-connection broker hits its memory
wall near 4000 connections and the v1.1.3 DBN floods every event to every
broker; R-GMA's mediated SQL pipeline has second-scale process time.  These
experiments put a Kafka-style partitioned commit log (:mod:`repro.plog`) on
the same Hydra testbed, same workload, same metrics — and sweep *past* the
4000-connection wall to ask whether the §I soft-real-time requirement
(delivery within ~5 s, delays/loss under 0.5 %) holds at 10,000+
generators.

One building block — :func:`plog_run` — mirrors
:func:`repro.harness.narada_experiments.narada_run` exactly: same client
nodes, same staggered fleet, same steady-state measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core import ExperimentResult
from repro.core.dedup import DedupIndex
from repro.core.metrics import soft_realtime_compliance
from repro.edge.upstream import PlogUpstream
from repro.harness.figures import percentile_figure
from repro.harness.parallel import RunSpec
from repro.harness.pipeline import CLIENT_NODES, Adapter, RunResult, make_transport, run_point
from repro.harness.registry import Experiment, RunContext
from repro.harness.scale import Scale
from repro.plog import PlogConfig, PlogDeployment
from repro.powergrid import FleetConfig, PlogFleet, PlogReceiver

BROKER_NODES_SINGLE = ("hydra1",)
BROKER_NODES_SPREAD = ("hydra1", "hydra2", "hydra3", "hydra4")

#: Above this connection count the creation stagger is compressed so the
#: ramp-up phase stays bounded (the steady-state window is what we measure;
#: connection *count*, not arrival rate, is the independent variable).
CREATION_CAP_CONNECTIONS = 4000


@dataclass(kw_only=True)
class PlogRunResult(RunResult):
    """Everything one partitioned-log test run produces."""

    connections: int
    n_brokers: int
    #: §I requirement at this load: (compliant, frac_late_or_lost, loss).
    compliant: bool
    frac_late_or_lost: float
    broker_stats: dict[str, Any] = field(default_factory=dict)
    #: Redeliveries the shared (gen_id, seq) sink index absorbed
    #: (``dedup_receivers`` runs only).
    redeliveries: int = 0
    #: Producer batches the brokers' idempotence index discarded as
    #: duplicates of an already-appended (pid, seq) window.
    duplicate_batches: int = 0
    #: Offset commits the coordinator rejected for a stale generation.
    fenced_commits: int = 0
    #: Recovery counters (all zero without faults / recovery config).
    producer_retries: int = 0
    producer_reconnects: int = 0
    consumer_recoveries: int = 0
    #: Durability accounting over the measurement window: records whose
    #: produce *was acknowledged* (``t_after_send`` stamped by the ack
    #: machinery), and how many of those never reached a consumer.  With
    #: ``acks=all`` and a surviving in-sync replica, ``acked_lost`` must be
    #: zero even across a leader crash — the headline replication claim.
    acked: int = 0
    acked_lost: int = 0
    #: Replication / control-plane counters (zero when unreplicated).
    elections: int = 0
    coordinator_elections: int = 0
    isr_shrinks: int = 0
    isr_expands: int = 0
    records_replicated: int = 0
    coordinator_rejoins: int = 0
    #: ``(time, topic, partition, new_leader)`` per leader election — used
    #: by the determinism tests (same seed => identical log).
    election_log: list = field(default_factory=list)


@dataclass
class PlogAdapter(Adapter):
    """A partitioned-log deployment, one consumer-group member per client
    node and the batching producer fleet.  The fields are :func:`plog_run`'s
    options."""

    #: Brokers the topic's partitions are spread over round-robin.
    n_brokers: int = 1
    config: Optional[PlogConfig] = None
    #: ``tcp``, ``nio`` or ``udp`` (:func:`~repro.harness.pipeline.
    #: make_transport`).
    transport_kind: str = "tcp"
    #: All group members share one ``(gen_id, seq)`` index — the
    #: idempotent-sink half of exactly-once: post-rebalance replay of
    #: records a dead member already processed is absorbed as a
    #: redelivery, not a duplicate.
    dedup_receivers: bool = False

    name = "plog"

    def creation_interval(self, scale: Scale, n_generators: int) -> float:
        return scale.creation_interval_narada * min(
            1.0, CREATION_CAP_CONNECTIONS / max(1, n_generators)
        )

    def build(self, sim, cluster) -> dict[str, str]:
        self.sim, self.cluster = sim, cluster
        # Acked datagrams with zero baseline loss: the chaos experiments
        # inject loss through the LAN fault windows instead, so the no-fault
        # phases of a run stay clean.
        self.transport = make_transport(
            self.transport_kind, sim, cluster.lan, udp_loss=0.0
        )
        self.nodes = (
            BROKER_NODES_SPREAD[: self.n_brokers]
            if self.n_brokers > 1
            else BROKER_NODES_SINGLE
        )
        self.deployment = PlogDeployment(
            sim,
            cluster,
            self.transport,
            broker_hosts=self.nodes,
            config=self.config or PlogConfig(),
        )
        self.deployment.serve()
        self.brokers = self.deployment.brokers
        return dict.fromkeys(self.nodes, self.name)

    def attach_subscribers(self, fleet: FleetConfig) -> None:
        """One consumer-group member per client node ("data were received
        by the node where they were sent", §III.E.2) — the coordinator
        splits the topic's partitions evenly among them.  With
        ``dedup_receivers`` they share one ``(gen_id, seq)`` index."""
        if self.tap is not None:
            members = [(self.tap, dict(group="direct.monitor"))]
        else:
            dedup = DedupIndex() if self.dedup_receivers else None
            members = [(node, dict(dedup=dedup)) for node in CLIENT_NODES]
        self.receivers = [
            PlogReceiver(self.sim, self.cluster, self.deployment, node, **options)
            for node, options in members
        ]
        for receiver in self.receivers:
            receiver.start()
        self.consumers = [r.consumer for r in self.receivers]

    def attach_publishers(self, fleet: FleetConfig, book) -> PlogFleet:
        self.fleet = PlogFleet(self.sim, self.cluster, self.deployment, fleet, book)
        self.fleet.start()
        return self.fleet

    def edge_upstream(self) -> tuple[str, Any]:
        """``(topic, upstream factory)`` for an edge tier fronting this run."""
        return self.deployment.topic, PlogUpstream(self.sim, self.deployment)

    def label(self, n_generators: int) -> str:
        return f"plog[{n_generators}x{len(self.nodes)}]"

    def counters(self, run) -> dict[str, Any]:
        book, measure_since = run["book"], run["measure_since"]
        compliant, frac_late, _loss = soft_realtime_compliance(book, since=measure_since)
        window = [r for r in book.records if r.t_before_send >= measure_since]
        acked = [r for r in window if r.t_after_send is not None]
        brokers, receivers = self.deployment.brokers, self.receivers
        controller = self.deployment.controller  # None when unreplicated
        return dict(
            n_brokers=len(self.nodes),
            compliant=compliant,
            frac_late_or_lost=frac_late,
            broker_stats={
                b.name: {
                    "connections": b.stats.connections_accepted,
                    "produce_batches": b.stats.produce_batches,
                    "records_appended": b.stats.records_appended,
                    "records_fetched": b.stats.records_fetched,
                    "records_dropped": b.stats.records_dropped,
                    "duplicate_batches": b.stats.duplicate_batches,
                    "fetches": b.stats.fetches,
                    "threads_peak": b.jvm.threads_peak,
                    "heap_committed": b.jvm.committed_bytes,
                }
                for b in brokers
            },
            redeliveries=sum(r.redeliveries for r in receivers),
            duplicate_batches=sum(b.stats.duplicate_batches for b in brokers),
            fenced_commits=sum(
                b.coordinator.fenced_commits
                for b in brokers
                if b.coordinator is not None
            ),
            producer_retries=sum(p.retries for p in self.fleet.producers),
            producer_reconnects=sum(p.reconnects for p in self.fleet.producers),
            consumer_recoveries=sum(
                r.consumer.fetch_retries
                + r.consumer.fetch_timeouts
                + r.consumer.reconnects
                for r in receivers
            ),
            acked=len(acked),
            acked_lost=sum(1 for r in acked if r.t_received is None),
            elections=getattr(controller, "elections", 0),
            coordinator_elections=getattr(controller, "coordinator_elections", 0),
            isr_shrinks=self.deployment.total_isr_shrinks(),
            isr_expands=self.deployment.total_isr_expands(),
            records_replicated=self.deployment.total_records_replicated(),
            coordinator_rejoins=sum(
                r.consumer.coordinator_rejoins for r in receivers
            ),
            election_log=list(getattr(controller, "election_log", ())),
        )


def plog_run(
    connections: int,
    *,
    scale: Optional[Scale] = None,
    seed: int = 1,
    fault_plan: Any = None,
    scenario: Any = None,
    **options: Any,
) -> PlogRunResult:
    """One grid-monitoring test: ``connections`` generators against a
    partitioned-log deployment, measured in steady state.

    ``options`` are :class:`PlogAdapter`'s fields; ``fault_plan`` and
    ``scenario`` are as :func:`~repro.harness.pipeline.run_point`
    describes; faults are armed against this run's LAN, brokers and
    consumers.
    """
    return run_point(
        PlogAdapter(**options), connections, PlogRunResult, scale=scale,
        seed=seed, fault_plan=fault_plan, scenario=scenario,
        connections=connections,
    )


# ----------------------------------------------------------- scaling sweeps

#: Single broker, swept straight through (and past) the Narada OOM wall.
SINGLE_SWEEP = (1000, 2000, 4000, 8000, 12000)
#: Four brokers, partitions spread round-robin over them.
SPREAD_SWEEP = (4000, 8000, 12000, 16000)


def single_sweep(ctx: RunContext) -> dict[int, RunSpec]:
    return {n: ctx.spec(plog_run, connections=n, n_brokers=1) for n in SINGLE_SWEEP}


def spread_sweep(ctx: RunContext) -> dict[int, RunSpec]:
    return {n: ctx.spec(plog_run, connections=n, n_brokers=4) for n in SPREAD_SWEEP}


def plog_scaling(
    single: dict[int, PlogRunResult], spread: dict[int, PlogRunResult]
) -> ExperimentResult:
    """RTT / STDDEV vs connections with the §I compliance verdict per load."""
    result = ExperimentResult(
        "plog_scaling",
        "Partitioned log: RTT and soft-real-time compliance vs connections",
        "concurrent connections",
        "millisecond",
    )
    headers = [
        "brokers", "connections", "RTT (ms)", "STDDEV (ms)", "loss rate",
        "late/lost", "SLA (<=5s, <0.5%)",
    ]
    rows: list[list[Any]] = []
    for label, prefix, sweep in (
        ("single broker", "", single),
        ("4-broker spread", "2", spread),
    ):
        for n, run in sorted(sweep.items()):
            if run.oom:
                result.note(
                    f"{label} OOM at {n} connections ({run.refused} refused)"
                )
                continue
            result.add_point("RTT" + prefix, n, run.mean_rtt_ms)
            result.add_point("STDDEV" + prefix, n, run.stddev_rtt_ms)
            rows.append([
                label, n, run.mean_rtt_ms, run.stddev_rtt_ms,
                f"{run.loss_rate:.4%}", f"{run.frac_late_or_lost:.4%}",
                "PASS" if run.compliant else "FAIL",
            ])
    result.table = (headers, rows)
    biggest = max(
        (n for n, r in single.items() if not r.oom and r.compliant),
        default=None,
    )
    if biggest is not None:
        run = single[biggest]
        threads = run.broker_stats["plog-hydra1"]["threads_peak"]
        result.note(
            f"single broker meets the §I soft-real-time requirement at "
            f"{biggest} connections with {threads} JVM threads — no "
            "thread-per-connection wall (Narada refuses connections near "
            "4000, paper §III.E.2)"
        )
    return result


def plog_percentiles(single: dict[int, PlogRunResult]) -> ExperimentResult:
    """Percentile-of-RTT curves (the Fig 8 analogue for the commit log)."""
    result = percentile_figure(
        "plog_percentiles", "Partitioned log single broker, percentile of RTT", single
    )
    result.note(
        "tails stay flat with connection count: fetch batching amortises "
        "per-message broker work that grows per-connection in Narada"
    )
    return result


EXPERIMENTS = (
    Experiment(
        "plog_scaling",
        "Partitioned log: RTT + §I SLA compliance to 16k connections",
        plog_scaling,
        reads=(single_sweep, spread_sweep),
    ),
    Experiment(
        "plog_percentiles",
        "Partitioned log: percentile of RTT per connection count",
        plog_percentiles,
        reads=(single_sweep,),
    ),
)
