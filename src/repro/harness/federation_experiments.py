"""Federation experiments: topic-aware tree routing vs the broadcast DBN.

One building block per routing mode:

* :func:`federation_run` — the hierarchical broker tree of
  :mod:`repro.federation`: site publishers and a site-local subscriber at
  every broker, a control-room subscriber at the root, subscriptions
  propagated up as covering entries, events forwarded only down interested
  links;
* :func:`federation_broadcast_run` — the *same workload* against the
  modelled v1.1.3 DBN (a star of :class:`repro.narada.Broker` instances
  with ``broadcast_flaw=True``, built by the shared
  :func:`repro.narada.star_network` baseline), where every event floods
  every inter-broker link.

Both measure the same two things over the steady-state window: delivery
RTT percentiles at the control-room tier (the single clock: clients run on
their broker's node, the paper's same-node design) and **event messages
per inter-broker link**.  The headline is their growth with broker count —
per-link traffic stays ~flat (``O(log n)``) under topic-aware routing and
grows linearly under broadcast, at equal delivery guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.core import ExperimentResult, RecordBook
from repro.core.metrics import percentiles_ms
from repro.federation import (
    FederationController,
    FederationDeployment,
    FederationSitePublishers,
    FederationSubscriber,
    TreeTopology,
    site_topic,
)
from repro.harness.parallel import RunSpec
from repro.harness.pipeline import (
    RunResult,
    arm_faults,
    measurement_window,
    summarize,
)
from repro.harness.registry import Experiment, RunContext
from repro.harness.scale import Scale
from repro.jms.destination import Topic
from repro.narada import Broker, NaradaConfig, star_network
from repro.powergrid.generator import PowerGenerator
from repro.powergrid.payload import narada_map_message
from repro.sim import Simulator
from repro.telemetry.context import current as _telemetry
from repro.transport.base import EOF, ChannelClosed, MessageLost
from repro.transport.tcp import TcpTransport

#: Broker counts swept at fanout 2 (complete trees of depth 2, 3, 4, 5).
FEDERATION_SWEEP = (3, 7, 15)
FEDERATION_SWEEP_FULL = (3, 7, 15, 31)

#: Site workload: publishers per broker and their publishing interval.
PUBLISHERS_PER_BROKER = 6
PUBLISH_INTERVAL = 3.0

FANOUT = 2


@dataclass(kw_only=True)
class FederationRunResult(RunResult):
    """Everything one federation test run produces."""

    n_brokers: int
    routing: str
    rtt_p50_ms: float
    rtt_p99_ms: float
    #: Event messages per directed inter-broker link over the measured
    #: window (every tree/star link appears, idle ones at 0).
    link_messages: dict[tuple[str, str], int]
    per_link_mean: float
    per_link_max: float
    control_messages: int = 0
    orphaned_up: int = 0
    reparents: int = 0
    converged: bool = True
    broker_stats: dict[str, Any] = field(default_factory=dict)


def _result(
    book: RecordBook,
    measure_since: float,
    scheduler: Any,
    totals: dict[tuple[str, str], int],
    middleware: str,
    label: str,
    **fields: Any,
) -> FederationRunResult:
    """A finished run's result: the shared summary, delivery P50/P99 and
    the per-link traffic ``totals`` over the measured window."""
    run = summarize(book, measure_since, scheduler, middleware, label)
    p50, p99 = percentiles_ms(run["rtts"], (50, 99))
    counts = list(totals.values())
    return FederationRunResult(
        **run,
        rtt_p50_ms=p50,
        rtt_p99_ms=p99,
        link_messages=totals,
        per_link_mean=sum(counts) / len(counts) if counts else 0.0,
        per_link_max=float(max(counts)) if counts else 0.0,
        **fields,
    )


def federation_run(
    n_brokers: int,
    *,
    fanout: int = FANOUT,
    publishers_per_broker: int = PUBLISHERS_PER_BROKER,
    publish_interval: float = PUBLISH_INTERVAL,
    scale: Optional[Scale] = None,
    seed: int = 1,
    config: Optional[NaradaConfig] = None,
    fault_plan: Any = None,
    detect_interval: float = 1.0,
) -> FederationRunResult:
    """One routed-tree test: ``n_brokers`` federated brokers, each with a
    site publisher fleet and a site-local subscriber, plus the control-room
    subscriber at the root — measured in steady state.

    ``fault_plan`` (a library name, a :class:`repro.faults.FaultPlan` or a
    template callable ``(measure_since, duration) -> FaultPlan``) arms link
    partitions /
    broker crashes against the tree; the :class:`FederationController`
    re-parents and re-converges routing during the run.
    """
    scale = scale or Scale.from_env()
    sim = Simulator(seed=seed)
    topology = TreeTopology(n_brokers, fanout)
    deployment = FederationDeployment(sim, topology, config=config)
    sim.run_process(deployment.start())
    controller = FederationController(
        sim, deployment, detect_interval=detect_interval
    )
    controller.start()

    tel = _telemetry()
    if tel is not None:
        tel.sample_node(sim, deployment.node(topology.root), middleware="federation")

    book = RecordBook()
    all_topics = tuple(site_topic(i) for i in range(n_brokers))
    control_room = FederationSubscriber(
        sim, deployment, topology.root, "control", all_topics, stamp_records=True
    )
    sim.run_process(control_room.start())
    site_subs = []
    for i, name in enumerate(topology.names):
        sub = FederationSubscriber(
            sim, deployment, name, f"site{i}", (site_topic(i),),
            stamp_records=False,
        )
        sim.run_process(sub.start())
        site_subs.append(sub)

    measure_since, stop_at = measurement_window(sim, 0.0, scale, settle=2.0)
    fleets = []
    for i, name in enumerate(topology.names):
        fleet = FederationSitePublishers(
            sim,
            deployment,
            name,
            site_topic(i),
            publishers_per_broker,
            publish_interval,
            book,
            stop_at=stop_at,
            warmup=scale.warmup,
            gen_id_base=i * 1000,
        )
        fleet.start()
        fleets.append(fleet)

    scheduler = arm_faults(
        sim, deployment.cluster, fault_plan, measure_since, scale.duration,
        brokers=deployment.brokers,
    )

    snapshot: dict[tuple[str, str], int] = {}
    sim.call_at(measure_since, lambda: snapshot.update(deployment.link_snapshot()))
    sim.run(until=stop_at + scale.drain)

    return _result(
        book,
        measure_since,
        scheduler,
        deployment.link_totals(since_snapshot=snapshot),
        "federation",
        f"federation[{n_brokers}]",
        n_brokers=n_brokers,
        routing="routed",
        control_messages=sum(
            b.stats.control_messages for b in deployment.brokers
        ),
        orphaned_up=sum(b.stats.orphaned_up for b in deployment.brokers),
        reparents=controller.reparents,
        converged=deployment.converged(),
        broker_stats={
            b.name: {
                "published": b.stats.messages_published,
                "delivered": b.stats.messages_delivered,
                "forwards_up": b.stats.forwards_up,
                "forwards_down": b.stats.forwards_down,
                "routing_entries": b.table.entry_count(),
            }
            for b in deployment.brokers
        },
    )


# --------------------------------------------------------- broadcast A/B leg

def _broadcast_subscriber(
    sim: Simulator,
    transport: Any,
    node: Any,
    broker: Broker,
    sub_id: str,
    topics: tuple[str, ...],
    stamp_records: bool,
) -> Generator[Any, Any, None]:
    """Raw-protocol narada subscriber on ``node`` (same-node measurement)."""
    channel = yield from transport.connect(node, broker.node.name, broker.port)

    def read_loop() -> Generator[Any, Any, None]:
        while True:
            delivery = yield channel.receive()
            if delivery.payload is EOF:
                return
            yield from node.execute(
                channel.cost_model.recv_cost(delivery.nbytes)
            )
            frame = delivery.payload
            if frame[0] == "deliver":
                messages = [frame[2]]
            elif frame[0] == "deliver_batch":
                messages = frame[2]
            else:
                continue
            if not stamp_records:
                continue
            for message in messages:
                record = getattr(message, "_record", None)
                if record is not None and record.t_received is None:
                    record.t_arrived = delivery.delivered_at
                    record.t_received = sim.now
                    tel = _telemetry()
                    if tel is not None:
                        tel.mark(
                            record, "delivered", sim.now, "narada", node.name
                        )

    sim.process(read_loop(), name=f"bcastsub.{sub_id}")
    for i, topic in enumerate(topics):
        yield from channel.send(
            ("subscribe", f"{sub_id}.{i}", Topic(topic), None, False),
            broker.config.control_bytes,
        )


def _broadcast_publishers(
    sim: Simulator,
    transport: Any,
    broker: Broker,
    topic: str,
    n_generators: int,
    publish_interval: float,
    book: RecordBook,
    stop_at: float,
    warmup: tuple[float, float],
    gen_id_base: int,
) -> None:
    """Site publisher fleet speaking the narada wire protocol."""

    def generator(gen_id: int) -> Generator[Any, Any, None]:
        try:
            channel = yield from transport.connect(
                broker.node, broker.node.name, broker.port
            )
        except (ChannelClosed, MessageLost):
            return
        model = PowerGenerator(
            gen_id, sim.rng.stream(f"bcastgen.{gen_id}"),
            site=f"site-{gen_id % 97}",
        )
        lo, hi = warmup
        if hi > 0:
            yield sim.timeout(sim.rng.uniform(f"bcastwarm.{gen_id}", lo, hi))
        seq = 0
        destination = Topic(topic)
        cfg = broker.config
        while sim.now < stop_at:
            message = narada_map_message(model.sample(sim.now))
            message.destination = destination
            message.message_id = f"bcast.{gen_id}.{seq}"
            record = book.new_record(gen_id, seq, sim.now)
            message._record = record
            try:
                yield from channel.send(
                    ("publish", message),
                    message.wire_size() + cfg.frame_overhead_bytes,
                )
            except (ChannelClosed, MessageLost):
                return
            record.t_after_send = sim.now
            seq += 1
            yield sim.timeout(publish_interval)

    for k in range(n_generators):
        sim.process(
            generator(gen_id_base + k), name=f"bcastpub.{topic}.{k}"
        )


def _instrument_star_links(network: Any, brokers: list[Broker]) -> dict:
    """Count inter-broker event sends per directed star link.

    Wraps the network's ``_send_forward`` on the instance so every flood /
    routed forward is attributed to its ``(src, dst)`` link — the broadcast
    leg's equivalent of the federation deployment's traffic ledger.
    """
    link_of: dict[int, tuple[str, str]] = {}
    ledger: dict[tuple[str, str], int] = {}
    for broker in brokers:
        for peer_name, channel in broker.peer_channels.items():
            link_of[id(channel)] = (broker.name, peer_name)
            ledger[(broker.name, peer_name)] = 0
    original = network._send_forward

    def counting(broker, channel, message, targets):
        key = link_of.get(id(channel))
        if key is not None:
            ledger[key] += 1
        yield from original(broker, channel, message, targets)

    network._send_forward = counting
    return ledger


def federation_broadcast_run(
    n_brokers: int,
    *,
    publishers_per_broker: int = PUBLISHERS_PER_BROKER,
    publish_interval: float = PUBLISH_INTERVAL,
    scale: Optional[Scale] = None,
    seed: int = 1,
    config: Optional[NaradaConfig] = None,
) -> FederationRunResult:
    """The A/B leg: the same site workload against the modelled broadcast
    DBN — ``n_brokers`` narada brokers in a star (hub = unit controller =
    the control-room tier), every event flooded to every link."""
    from repro.federation.deployment import FederationCluster
    from repro.federation.topology import broker_name

    scale = scale or Scale.from_env()
    sim = Simulator(seed=seed)
    names = tuple(broker_name(i) for i in range(n_brokers))
    cluster = FederationCluster(sim, names)
    transport = TcpTransport(sim, cluster.lan)
    config = config or NaradaConfig()  # broadcast_flaw=True: v1.1.3
    brokers: list[Broker] = []
    for name in names:
        broker = Broker(sim, cluster.node(name), name, config)
        broker.serve(transport, 6200)
        broker.port = 6200  # type: ignore[attr-defined]
        brokers.append(broker)
    network = sim.run_process(star_network(sim, transport, brokers))
    ledger = _instrument_star_links(network, brokers)

    tel = _telemetry()
    if tel is not None:
        tel.sample_node(sim, cluster.node(names[0]), middleware="narada")

    book = RecordBook()
    all_topics = tuple(site_topic(i) for i in range(n_brokers))
    sim.run_process(
        _broadcast_subscriber(
            sim, transport, cluster.node(names[0]), brokers[0],
            "control", all_topics, stamp_records=True,
        )
    )
    for i, name in enumerate(names):
        sim.run_process(
            _broadcast_subscriber(
                sim, transport, cluster.node(name), brokers[i],
                f"site{i}", (site_topic(i),), stamp_records=False,
            )
        )

    measure_since, stop_at = measurement_window(sim, 0.0, scale, settle=2.0)
    for i, name in enumerate(names):
        _broadcast_publishers(
            sim,
            transport,
            brokers[i],
            site_topic(i),
            publishers_per_broker,
            publish_interval,
            book,
            stop_at=stop_at,
            warmup=scale.warmup,
            gen_id_base=i * 1000,
        )

    snapshot: dict[tuple[str, str], int] = {}
    sim.call_at(measure_since, lambda: snapshot.update(ledger))
    sim.run(until=stop_at + scale.drain)

    return _result(
        book,
        measure_since,
        None,
        {key: count - snapshot.get(key, 0) for key, count in ledger.items()},
        "narada",
        f"federation_broadcast[{n_brokers}]",
        n_brokers=n_brokers,
        routing="broadcast",
        broker_stats={
            b.name: {
                "published": b.stats.messages_published,
                "delivered": b.stats.messages_delivered,
                "forwarded": b.stats.messages_forwarded,
            }
            for b in brokers
        },
    )


# ----------------------------------------------------------------- the sweep

def _sweep(ctx: RunContext, run_fn: Any) -> dict[int, RunSpec]:
    counts = FEDERATION_SWEEP_FULL if ctx.scale.name == "full" else FEDERATION_SWEEP
    return {n: ctx.spec(run_fn, n_brokers=n) for n in counts}


def routed_sweep(ctx: RunContext) -> dict[int, RunSpec]:
    return _sweep(ctx, federation_run)


def broadcast_sweep(ctx: RunContext) -> dict[int, RunSpec]:
    return _sweep(ctx, federation_broadcast_run)


def federation_scaling(
    routed: dict[int, FederationRunResult],
    broadcast: dict[int, FederationRunResult],
) -> ExperimentResult:
    """Per-link traffic and delivery RTT vs broker count, routed tree vs
    broadcast DBN — the subsystem's headline figure."""
    result = ExperimentResult(
        "federation_scaling",
        "Federated tree (topic-aware routing) vs broadcast DBN",
        "brokers",
        "event messages per link",
    )
    headers = [
        "brokers",
        "routed msg/link",
        "bcast msg/link",
        "routed p50/p99 (ms)",
        "bcast p50/p99 (ms)",
        "routed loss",
        "bcast loss",
    ]
    rows = []
    for n in sorted(set(routed) & set(broadcast)):
        r, b = routed[n], broadcast[n]
        result.add_point("routed", n, r.per_link_mean)
        result.add_point("broadcast", n, b.per_link_mean)
        result.add_point("routed_p99_ms", n, r.rtt_p99_ms)
        result.add_point("broadcast_p99_ms", n, b.rtt_p99_ms)
        rows.append(
            [
                n,
                round(r.per_link_mean, 1),
                round(b.per_link_mean, 1),
                f"{r.rtt_p50_ms:.1f}/{r.rtt_p99_ms:.1f}",
                f"{b.rtt_p50_ms:.1f}/{b.rtt_p99_ms:.1f}",
                f"{r.loss_rate:.2%}",
                f"{b.loss_rate:.2%}",
            ]
        )
    result.table = (headers, rows)
    ns = sorted(set(routed) & set(broadcast))
    if len(ns) >= 2:
        lo, hi = ns[0], ns[-1]
        broker_growth = hi / lo
        routed_growth = routed[hi].per_link_mean / max(
            1e-9, routed[lo].per_link_mean
        )
        bcast_growth = broadcast[hi].per_link_mean / max(
            1e-9, broadcast[lo].per_link_mean
        )
        result.note(
            f"brokers x{broker_growth:.1f}: per-link traffic x"
            f"{routed_growth:.2f} routed (sub-linear, ~O(log n)) vs x"
            f"{bcast_growth:.2f} broadcast (linear) — topic-aware routing "
            "removes the §III.E.2 'unnecessary data flow between nodes'"
        )
    worst_routed_loss = max(r.loss_rate for r in routed.values())
    result.note(
        f"routed delivery loss {worst_routed_loss:.2%} at every swept scale "
        "(equal delivery guarantees; the traffic saving is not paid in loss)"
    )
    orphans = sum(r.orphaned_up for r in routed.values())
    if orphans:
        result.note(f"{orphans} events orphaned during fault windows")
    result.meta["routed"] = {
        n: r.per_link_mean for n, r in sorted(routed.items())
    }
    result.meta["broadcast"] = {
        n: b.per_link_mean for n, b in sorted(broadcast.items())
    }
    return result


EXPERIMENTS = (
    Experiment(
        "federation_scaling",
        "Per-link traffic + RTT: routed tree vs broadcast DBN",
        federation_scaling,
        reads=(routed_sweep, broadcast_sweep),
    ),
)
