"""Deployment: brokers on a growing cluster, plus the site clients.

Unlike the fixed 8-node Hydra testbed, a federation sweep grows the broker
count, so its :class:`~repro.cluster.hydra.HydraCluster` has one node per
broker, named after it (same node spec and switch parameters).  Clients —
site publishers and local subscribers — run *on their broker's node*
(kernel loopback), which is the paper's same-node measurement design ("data
were received by the node where they were sent", §III.E.2): every RTT reads
one clock.

The deployment owns the per-link traffic ledger: every inter-broker send is
counted against its directed link, which is what the ``federation_scaling``
experiment reads to compare routed-tree traffic against the broadcast DBN.
Both routing modes are a :class:`SiteDeployment` — the
:class:`FederationDeployment` tree of federated brokers and the
:class:`BroadcastDeployment` star of v1.1.3 Narada brokers — and the site
clients ask their deployment for the two frames and the labels that differ,
so one workload runs against either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.cluster.hydra import HydraCluster
from repro.cluster.node import Node
from repro.core.records import Recorder
from repro.federation.broker import FederatedBroker
from repro.federation.topology import TreeTopology
from repro.jms.destination import Topic
from repro.narada.broker import Broker
from repro.narada.broker_network import star_network
from repro.narada.config import NaradaConfig
from repro.powergrid.generator import PowerGenerator
from repro.powergrid.payload import narada_map_message
from repro.powergrid.workload import FleetStats
from repro.transport.base import EOF, Channel, ChannelClosed, MessageLost
from repro.transport.tcp import TcpTransport

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.records import RecordBook
    from repro.sim.kernel import Simulator

FEDERATION_PORT = 6200


def site_topic(broker_index: int) -> str:
    """The monitoring topic of the site attached to broker ``i``."""
    return f"grid.site.{broker_index}"


class SiteDeployment:
    """One broker per site on its own node, one TCP transport, the per-link
    event ledger, and what the site clients need to speak to the brokers."""

    #: Prefix of the site clients' message ids, process names and RNG
    #: streams, and the middleware label of their telemetry marks.
    prefix = ""
    middleware = ""

    def __init__(
        self,
        sim: "Simulator",
        topology: TreeTopology,
        config: Optional[NaradaConfig],
        broker_class: Any,
        cluster: Optional[HydraCluster] = None,
    ):
        self.sim = sim
        self.topology = topology
        self.config = config or NaradaConfig()
        self.cluster = (
            HydraCluster(sim, topology.names) if cluster is None else cluster
        )
        self.transport = TcpTransport(sim, self.cluster.lan)
        #: directed inter-broker link -> event (data) messages sent over it.
        self.link_traffic: dict[tuple[str, str], int] = {}
        self.brokers: list[Any] = []
        self._by_name: dict[str, Any] = {}
        for name in topology.names:
            broker = broker_class(sim, self.cluster.node(name), name, self.config)
            broker.serve(self.transport, FEDERATION_PORT)
            self.brokers.append(broker)
            self._by_name[name] = broker

    def broker(self, name: str) -> Any:
        return self._by_name[name]

    def node(self, name: str) -> Node:
        return self.cluster.node(name)

    def subscribe_frame(self, sub_id: str, topic: str) -> tuple:
        raise NotImplementedError  # pragma: no cover

    def publish_frame(self, message: Any, topic: str) -> tuple:
        raise NotImplementedError  # pragma: no cover

    # ------------------------------------------------------------- traffic
    def link_snapshot(self) -> dict[tuple[str, str], int]:
        return dict(self.link_traffic)

    def link_totals(
        self, since_snapshot: Optional[dict[tuple[str, str], int]] = None
    ) -> dict[tuple[str, str], int]:
        """Per-directed-link event counts, optionally since a snapshot.

        Links with no traffic still appear (count 0) so per-link means
        divide by the full link population, not just the busy links.
        """
        base = since_snapshot or {}
        totals: dict[tuple[str, str], int] = {}
        for parent, child in self.topology.links():
            for key in ((parent, child), (child, parent)):
                totals[key] = self.link_traffic.get(key, 0) - base.get(key, 0)
        return totals


class BroadcastDeployment(SiteDeployment):
    """The modelled v1.1.3 DBN: ``n_brokers`` :class:`repro.narada.Broker`
    instances in a star (hub = unit controller = the control-room tier;
    a star is the tree whose root has every other broker as a child),
    every event flooded to every link unless ``config`` says otherwise."""

    prefix = "bcast"
    middleware = "narada"

    def __init__(
        self,
        sim: "Simulator",
        n_brokers: int,
        config: Optional[NaradaConfig] = None,
        cluster: Optional[HydraCluster] = None,
    ):
        super().__init__(
            sim, TreeTopology(n_brokers, max(1, n_brokers - 1)), config, Broker,
            cluster,
        )

    def start(self) -> Generator[Any, Any, None]:
        """Wire the star and start counting its links."""
        network = yield from star_network(self.sim, self.transport, self.brokers)
        network.on_link_send = self._count_link

    def _count_link(self, src: str, dst: str) -> None:
        key = (src, dst)
        self.link_traffic[key] = self.link_traffic.get(key, 0) + 1

    def subscribe_frame(self, sub_id: str, topic: str) -> tuple:
        return ("subscribe", sub_id, Topic(topic), None, False)

    def publish_frame(self, message: Any, topic: str) -> tuple:
        message.destination = Topic(topic)
        return ("publish", message)


class FederationDeployment(SiteDeployment):
    """The broker tree, its cluster, and the traffic ledger."""

    prefix = "fed"
    middleware = "federation"

    def __init__(
        self,
        sim: "Simulator",
        topology: TreeTopology,
        config: Optional[NaradaConfig] = None,
        cluster: Optional[HydraCluster] = None,
    ):
        super().__init__(sim, topology, config, FederatedBroker, cluster)
        #: directed tree link -> control (hello/fsub) messages.
        self.control_traffic: dict[tuple[str, str], int] = {}
        for broker in self.brokers:
            broker.on_link_send = self._count_link

    @property
    def root(self) -> FederatedBroker:
        return self.brokers[0]

    def subscribe_frame(self, sub_id: str, topic: str) -> tuple:
        return ("subscribe", sub_id, topic)

    def publish_frame(self, message: Any, topic: str) -> tuple:
        return ("publish", message, topic)

    # -------------------------------------------------------------- wiring
    def start(self) -> Generator[Any, Any, None]:
        """Connect every tree link, children to parents, in index order."""
        for parent_name, child_name in self.topology.links():
            yield from self._by_name[child_name].connect_to_parent(
                self.transport, self._by_name[parent_name]
            )

    # ------------------------------------------------------------- traffic
    def _count_link(self, src: str, dst: str, control: bool = False) -> None:
        ledger = self.control_traffic if control else self.link_traffic
        key = (src, dst)
        ledger[key] = ledger.get(key, 0) + 1

    # ------------------------------------------------------------ liveness
    def converged(self) -> bool:
        """Every live non-root broker has a live uplink — the quiescent
        routing-convergence precondition the tests assert."""
        for broker in self.brokers[1:]:
            if not broker.alive:
                continue
            channel = broker.parent_channel
            if channel is None or channel.closed:
                return False
        return True


class FederationSubscriber:
    """A raw-protocol subscriber client attached to one broker of either
    deployment.

    Every delivery goes to its :class:`~repro.core.records.Recorder`.
    ``stamp_records=True`` makes it the *measuring* endpoint: it stamps
    ``t_arrived``/``t_received`` on each delivered message's record and
    emits the ``delivered`` telemetry mark.  Site-local subscribers pass
    ``False`` so the control-room tier is the single RTT clock; they only
    count.
    """

    def __init__(
        self,
        sim: "Simulator",
        deployment: SiteDeployment,
        broker_name: str,
        sub_id: str,
        topics: tuple[str, ...],
        stamp_records: bool = True,
    ):
        self.sim = sim
        self.deployment = deployment
        self.broker_name = broker_name
        self.sub_id = sub_id
        self.topics = topics
        self.channel: Optional[Channel] = None
        # The client runs on its broker's node.
        self.recorder = Recorder(
            sim, deployment.middleware, deployment.broker(broker_name).node.name,
            stamping=stamp_records,
        )
        #: topic -> deliveries (tests assert matching-subscription safety).
        self.delivered_by_topic: dict[str, int] = {}

    def start(self) -> Generator[Any, Any, None]:
        broker = self.deployment.broker(self.broker_name)
        self.channel = yield from self.deployment.transport.connect(
            broker.node, broker.node.name, broker.port
        )
        self.sim.process(
            self._read_loop(), name=f"{self.deployment.prefix}sub.{self.sub_id}"
        )
        for i, topic in enumerate(self.topics):
            yield from self.channel.send(
                self.deployment.subscribe_frame(f"{self.sub_id}.{i}", topic),
                self.deployment.config.control_bytes,
            )

    def unsubscribe(self, topic: str) -> Generator[Any, Any, None]:
        i = self.topics.index(topic)
        yield from self.channel.send(
            ("unsubscribe", f"{self.sub_id}.{i}"),
            self.deployment.config.control_bytes,
        )

    def _read_loop(self) -> Generator[Any, Any, None]:
        node = self.channel.node
        while True:
            delivery = yield self.channel.receive()
            if delivery.payload is EOF:
                return
            yield from node.execute(
                self.channel.cost_model.recv_cost(delivery.nbytes)
            )
            frame = delivery.payload
            if frame[0] == "deliver":
                self._delivered(frame[2], delivery.delivered_at)
            # else: a "subscribed" confirmation

    def _delivered(self, message: Any, arrived_at: float) -> None:
        topic = getattr(message, "_fed_topic", None)
        if topic is not None:
            self.delivered_by_topic[topic] = (
                self.delivered_by_topic.get(topic, 0) + 1
            )
        self.recorder(message, arrived_at)


class FederationSitePublishers:
    """The publisher fleet of one site: ``n`` generators on the broker's
    node, publishing readings to the site topic at a fixed interval."""

    def __init__(
        self,
        sim: "Simulator",
        deployment: SiteDeployment,
        broker_name: str,
        topic: str,
        n_generators: int,
        publish_interval: float,
        book: Optional["RecordBook"],
        stop_at: float,
        warmup: tuple[float, float] = (0.0, 0.0),
        gen_id_base: int = 0,
        stats: Optional[FleetStats] = None,
    ):
        self.sim = sim
        self.deployment = deployment
        self.broker_name = broker_name
        self.topic = topic
        self.n_generators = n_generators
        self.publish_interval = publish_interval
        self.book = book
        self.stop_at = stop_at
        self.warmup = warmup
        self.gen_id_base = gen_id_base
        self.published = 0
        #: Connections accepted and refused (several sites may share one).
        self.stats = stats if stats is not None else FleetStats()

    def start(self) -> None:
        for k in range(self.n_generators):
            self.sim.process(
                self._generator(self.gen_id_base + k),
                name=f"{self.deployment.prefix}pub.{self.topic}.{k}",
            )

    def _generator(self, gen_id: int) -> Generator[Any, Any, None]:
        sim = self.sim
        deployment = self.deployment
        broker = deployment.broker(self.broker_name)
        try:
            channel = yield from deployment.transport.connect(
                broker.node, broker.node.name, broker.port
            )
        except (ChannelClosed, MessageLost):
            self.stats.connections_refused += 1
            return
        self.stats.connections_ok += 1
        prefix = deployment.prefix  # names the RNG streams: must not change
        model = PowerGenerator(
            gen_id,
            sim.rng.stream(f"{prefix}gen.{gen_id}"),
            site=f"site-{gen_id % 97}",
        )
        lo, hi = self.warmup
        if hi > 0:
            yield sim.timeout(sim.rng.uniform(f"{prefix}warm.{gen_id}", lo, hi))
        seq = 0
        cfg = deployment.config
        while sim.now < self.stop_at:
            state = model.sample(sim.now)
            message = narada_map_message(state)
            message.message_id = f"{prefix}.{gen_id}.{seq}"
            message._fed_topic = self.topic
            if self.book is not None:
                record = self.book.new_record(gen_id, seq, sim.now)
                message._record = record
            try:
                frame = deployment.publish_frame(message, self.topic)
                yield from channel.send(
                    frame, message.wire_size() + cfg.frame_overhead_bytes
                )
            except (ChannelClosed, MessageLost):
                return  # a failed publish is a lost message
            if self.book is not None:
                record.t_after_send = sim.now
            self.published += 1
            seq += 1
            yield sim.timeout(self.publish_interval)
