"""The one run pipeline: the paper's test procedure, written once.

§III.E–F run the *same* procedure against every system — Hydra nodes, a
staggered generator fleet, a steady-state measurement window, RTT / loss /
CPU / memory read the same way.  :func:`run_point` is that procedure; what
differs per middleware sits behind a small :class:`Adapter` in the three
roles R-GMA's Grid Monitoring Architecture names (arXiv cs/0308024):

``build``               the *directory* side — deploy the servers producers
                        and consumers will find each other through;
``attach_subscribers``  the *consumers*;
``attach_publishers``   the *producers* (the generator fleet);
``counters``            whatever this middleware reports beyond the shared
                        :class:`RunResult` fields.

``narada_run`` / ``rgma_run`` / ``plog_run`` / ``federation_run`` /
``federation_broadcast_run`` build their adapter from their keyword
options — the adapter dataclass's fields are the run options, spelled and
documented once — and call :func:`run_point`; a harness builder reaches
them only through a :class:`~repro.harness.parallel.RunSpec`.  The edge
tier is an adapter layered *over* the first three
(:mod:`repro.harness.edge_experiments`).

A :class:`RunResult` is the whole observation of its run: besides the
measured numbers it carries the run's label, its middleware, the fault
specs it armed and every sampled node's raw vmstat samples, so a telemetry
session reads a finished result and nothing else; this module names no
telemetry symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.cluster import HydraCluster, VmStat
from repro.cluster.vmstat import NodeSamples, VmStatSummary, steady_state_summary
from repro.core import RecordBook, rtt_stats
from repro.faults import FaultScheduler, FaultSpec, named_plan
from repro.harness.scale import Scale
from repro.powergrid import FleetConfig
from repro.scenario import named_scenario
from repro.scenario.compiler import arm_scenario, merge_fault_plan
from repro.sim import Simulator
from repro.transport import NioTransport, TcpTransport, UdpTransport

CLIENT_NODES = ("hydra5", "hydra6", "hydra7", "hydra8")


@dataclass(kw_only=True)
class RunResult:
    """What every test run reports, whatever the middleware."""

    #: The run's name in telemetry (``adapter.label(n)``).
    label: str
    #: The middleware's telemetry label (``adapter.name``).
    middleware: str
    book: RecordBook
    measure_since: float
    sent: int
    received: int
    mean_rtt_ms: float
    stddev_rtt_ms: float
    loss_rate: float
    rtts: Any  # np.ndarray of measured-window RTT seconds
    #: Steady-state CPU idle / memory consumption per sampled server node.
    vmstat: dict[str, VmStatSummary] = field(default_factory=dict)
    #: The deployment refused connections (the paper's out-of-memory wall).
    oom: bool = False
    refused: int = 0
    #: Deliveries that escaped suppression and were counted twice.
    duplicates: int = 0
    #: Human-readable fault injection log ("t=... kind target note"),
    #: skipped faults ("no such broker in this run") included.
    fault_log: list[str] = field(default_factory=list)
    #: The fault specs the run armed, in plan order.  Runs are separate
    #: simulations whose clocks all start at zero, so a spec annotates
    #: only the spans of the run that armed it.
    faults: list[FaultSpec] = field(default_factory=list)
    #: Every sampled node's raw vmstat samples, in ``build`` order.
    node_samples: list[NodeSamples] = field(default_factory=list)


#: Datagram loss of ``udp_raw``.  Not anchored to the paper: §III.E.1 gives
#: only the acked baseline's 1.7 %.
RAW_UDP_LOSS = 0.03


def make_transport(kind: str, sim: Simulator, lan: Any, udp_loss: float) -> Any:
    """The transport a run's clients and servers share.  ``udp`` is JMS
    over UDP: transport-level ack with one retransmission (§III.E.1), at
    ``udp_loss`` baseline datagram loss.  ``udp_raw`` is bare datagrams
    (no ack, no retransmission) at :data:`RAW_UDP_LOSS`, whatever
    ``udp_loss`` says — ``ablation_udp_ack``'s other leg."""
    if kind == "tcp":
        return TcpTransport(sim, lan)
    if kind == "nio":
        return NioTransport(sim, lan)
    if kind == "udp":
        return UdpTransport(
            sim, lan, loss_probability=udp_loss, acked=True, rto=0.15, max_retries=1
        )
    if kind == "udp_raw":
        return UdpTransport(
            sim, lan, loss_probability=RAW_UDP_LOSS, acked=False, rto=0.15,
            max_retries=0,
        )
    raise ValueError(f"unknown transport {kind!r}")


class Adapter:
    """Per-middleware half of a run.  Subclasses are dataclasses whose
    fields are the run options, and implement:

    ``build(sim, cluster) -> {node name: telemetry label}``
        deploy the servers; the returned nodes are the ones whose CPU and
        memory the run samples.  Leaves ``transport`` and ``brokers``
        (fault-injectable servers) on the instance.
    ``attach_subscribers(fleet_config)``
        start the consumers; leaves ``receivers`` (each counting through
        its ``recorder``) and ``consumers`` (the fault-injectable ones) on
        the instance.
    ``attach_publishers(fleet_config, book) -> fleet``
        start the generator fleet (its ``.stats`` is read after the run).
    ``label(n_generators) -> str``
        the run's name in telemetry.
    ``counters(run) -> dict``
        result fields beyond :class:`RunResult`'s, given the shared ones
        (optional).
    ``topic`` and ``subscriber(node_name, topic, name=None, on_delivery=None)``
        (the middlewares the edge tier fronts) the topic the fleet
        publishes, and one unfiltered receiver of it on a node, unstarted:
        the edge tier's no-edge baseline records through it, and every edge
        gateway incarnation subscribes through it with its ingest as
        ``on_delivery``.

    :func:`run_point` sets ``measure_since``, the window start, before it
    attaches the clients.
    """

    #: Telemetry label of the middleware.
    name: str
    #: Seconds between the end of the last warm-up and the window.
    settle = 2.0
    #: Extra simulated time before the run ends, on top of ``scale.drain``.
    extra_drain = 0.0
    #: Subscribers the deployment refused (counts towards ``oom``).
    subscribers_failed = 0
    brokers: Sequence[Any] = ()
    receivers: Sequence[Any] = ()
    consumers: Sequence[Any] = ()
    measure_since = 0.0

    def cluster(self, sim: Simulator) -> Any:
        return HydraCluster(sim)

    def creation_interval(self, scale: Scale, n_generators: int) -> float:
        return scale.creation_interval_narada

    def fleet_options(self) -> dict[str, Any]:
        """:class:`FleetConfig` fields this run sets beyond the shared ones."""
        return {}

    def stop(self) -> None:
        """Quiesce subscribers once the simulation has run."""

    def counters(self, run: dict[str, Any]) -> dict[str, Any]:
        return {}


def run_point(
    adapter: Adapter,
    n_generators: int,
    result_type: type,
    *,
    scale: Optional[Scale],
    seed: int,
    fault_plan: Any = None,
    scenario: Any = None,
    **identity: Any,
) -> Any:
    """One test run: ``n_generators`` publishers against ``adapter``'s
    deployment, measured in steady state.

    The window opens once the last generator is created, warmed up and
    ``adapter.settle`` seconds have passed, and lasts ``scale.duration``.
    ``fault_plan`` and ``scenario`` are library names, template callables
    ``(measure_since, duration) -> FaultPlan | Scenario``, concrete objects,
    or ``None``; a scenario perturbs the fleet's publication rates and
    merges its fault fragment into the plan.  ``identity`` fields (e.g.
    ``connections=``) go to ``result_type`` verbatim.
    """
    scale = scale or Scale.from_env()
    if isinstance(scenario, str):
        scenario = named_scenario(scenario)
    if isinstance(fault_plan, str):
        fault_plan = named_plan(fault_plan)
    sim = Simulator(seed=seed)
    cluster = adapter.cluster(sim)
    sampled = adapter.build(sim, cluster)
    vmstats = {name: VmStat(sim, cluster.node(name)) for name in sampled}

    creation_interval = adapter.creation_interval(scale, n_generators)
    measure_since = (
        sim.now + n_generators * creation_interval + scale.warmup[1]
        + adapter.settle
    )
    stop_at = measure_since + scale.duration
    fleet_config = FleetConfig(
        **{
            "n_generators": n_generators,
            "creation_interval": creation_interval,
            "warmup_min": scale.warmup[0],
            "warmup_max": scale.warmup[1],
            "duration": scale.duration,
            "stop_at": stop_at,
            "client_nodes": CLIENT_NODES,
            **adapter.fleet_options(),
        }
    )
    fleet_config, compiled = arm_scenario(
        scenario, measure_since, scale.duration, fleet_config
    )
    book = RecordBook()
    adapter.measure_since = measure_since
    adapter.attach_subscribers(fleet_config)
    fleet = adapter.attach_publishers(fleet_config, book)
    if callable(fault_plan):
        fault_plan = fault_plan(measure_since, scale.duration)
    plan = merge_fault_plan(compiled, fault_plan)
    scheduler = None
    if plan is not None and len(plan):
        scheduler = FaultScheduler(sim, plan).attach(
            lan=cluster.lan, brokers=adapter.brokers, consumers=adapter.consumers
        )

    sim.run(until=stop_at + scale.drain + adapter.extra_drain)
    for vm in vmstats.values():
        vm.stop()
    adapter.stop()

    stats = rtt_stats(book, since=measure_since)
    refused = fleet.stats.connections_refused
    run = dict(
        label=adapter.label(n_generators),
        middleware=adapter.name,
        book=book,
        measure_since=measure_since,
        sent=stats.sent,
        received=stats.count,
        mean_rtt_ms=stats.mean_ms,
        stddev_rtt_ms=stats.stddev_ms,
        loss_rate=stats.loss_rate,
        rtts=book.rtts(since=measure_since),
        fault_log=scheduler.render_log() if scheduler is not None else [],
        faults=list(plan or ()),
        node_samples=[
            NodeSamples(name, sampled[name], vm.samples)
            for name, vm in vmstats.items()
        ],
        vmstat={
            name: steady_state_summary(vm.samples, measure_since)
            for name, vm in vmstats.items()
        },
        oom=refused > 0 or adapter.subscribers_failed > 0,
        refused=refused,
        duplicates=sum(r.recorder.duplicates for r in adapter.receivers),
    )
    return result_type(**identity, **run, **adapter.counters(run))
