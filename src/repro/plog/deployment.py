"""Wiring a plog cluster onto Hydra nodes.

A deployment owns one topic's layout: ``partitions`` partition logs spread
round-robin over one or more brokers (partition ``p``'s *preferred leader*
is broker ``p % n_brokers``), the group coordinator, and factory methods
for clients.  With one broker this is the exact analogue of the paper's
single-Narada-broker setup; with several, *partitions* (and therefore
connections and traffic) spread across nodes — contrast
:class:`repro.narada.BrokerNetwork`, where every broker still sees every
message because the DBN floods.

With ``replication_factor > 1`` each partition also gets follower replicas
on the next brokers in the ring, one :class:`ReplicaFetcher` session per
(follower, leader) broker pair, and a :class:`ClusterController` that
re-elects leaders (and the group coordinator) on broker death.
``owner()`` then answers from a *dynamic* leader map kept current by the
controller — clients always route to the leader the control plane most
recently installed.  The coordinator mirrors accepted offset commits into
the internal replicated ``__offsets`` partition so its successor can
recover them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

from repro.plog.broker import PlogBroker
from repro.plog.config import OFFSETS_TOPIC, PlogConfig
from repro.plog.consumer import PlogConsumer, RecordCallback
from repro.plog.group import GroupCoordinator
from repro.plog.producer import PlogProducer
from repro.plog.replication import ClusterController, ReplicaFetcher
from repro.transport.base import Channel

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.hydra import HydraCluster
    from repro.cluster.node import Node
    from repro.sim.kernel import Simulator

#: Default base port for plog brokers (one port per broker).
PLOG_PORT = 5060


class PlogDeployment:
    """One topic served by one or more partitioned-log brokers."""

    def __init__(
        self,
        sim: "Simulator",
        cluster: "HydraCluster",
        transport: Any,
        broker_hosts: Sequence[str] = ("hydra1",),
        topic: str = "grid.monitoring",
        config: Optional[PlogConfig] = None,
        base_port: int = PLOG_PORT,
    ):
        if not broker_hosts:
            raise ValueError("need at least one broker host")
        self.sim = sim
        self.cluster = cluster
        self.transport = transport
        self.topic = topic
        self.config = config or PlogConfig()
        self.base_port = base_port
        replication = self.config.replication_factor
        if replication < 1:
            raise ValueError("replication_factor must be >= 1")
        if replication > len(broker_hosts):
            raise ValueError(
                f"replication_factor={replication} needs at least that many "
                f"brokers, got {len(broker_hosts)}"
            )
        self.brokers: list[PlogBroker] = []
        self._ports: dict[str, int] = {}
        self._by_name: dict[str, PlogBroker] = {}
        for i, host in enumerate(broker_hosts):
            node = cluster.node(host)
            broker = PlogBroker(sim, node, f"plog-{host}", self.config)
            self.brokers.append(broker)
            self._by_name[broker.name] = broker
            self._ports[broker.name] = base_port + i
        #: partition -> replica broker names (first = preferred leader).
        self.replica_map: dict[int, tuple[str, ...]] = {}
        #: Dynamic leader map, updated by the controller on elections.
        self._leaders: dict[tuple[str, int], PlogBroker] = {}
        #: Partitions with no live in-sync replica (election failed).
        self._offline: dict[tuple[str, int], bool] = {}
        #: (follower, leader) broker names -> that pair's fetch session.
        self.replica_fetchers: dict[tuple[str, str], ReplicaFetcher] = {}
        n = len(self.brokers)
        for partition in range(self.config.partitions):
            names = tuple(
                self.brokers[(partition + k) % n].name for k in range(replication)
            )
            self.replica_map[partition] = names
            for name in names:
                self._by_name[name].create_partition(
                    self.topic, partition, replicas=names, leader=names[0]
                )
            self._leaders[(self.topic, partition)] = self._by_name[names[0]]
            for name in names[1:]:
                self._fetcher(self._by_name[name], names[0])
        self._controller_enabled = replication > 1 and n > 1
        self._coordinator_broker = self.brokers[0]
        if self._controller_enabled:
            # The internal __offsets partition is replicated to *every*
            # broker so any successor coordinator can recover commits from
            # its local replica.
            all_names = tuple(b.name for b in self.brokers)
            for broker in self.brokers:
                broker.create_partition(
                    OFFSETS_TOPIC, 0, replicas=all_names, leader=all_names[0]
                )
            self._leaders[(OFFSETS_TOPIC, 0)] = self.brokers[0]
            for broker in self.brokers[1:]:
                self._fetcher(broker, all_names[0])
        for broker in self.brokers:
            broker.follow_listener = (
                lambda leader, broker=broker: self._fetcher(broker, leader).start()
            )
        self.coordinator = GroupCoordinator(
            self.brokers[0], self.config.partitions
        )
        if self._controller_enabled:
            self._wire_offsets_sink(self.coordinator)
        self.controller: Optional[ClusterController] = (
            ClusterController(sim, self) if self._controller_enabled else None
        )

    def _fetcher(self, follower: PlogBroker, leader: str) -> ReplicaFetcher:
        """``follower``'s fetch session with ``leader``, made on first use."""
        fetcher = self.replica_fetchers.get((follower.name, leader))
        if fetcher is None:
            fetcher = ReplicaFetcher(self, follower, leader)
            self.replica_fetchers[(follower.name, leader)] = fetcher
        return fetcher

    # --------------------------------------------------------------- layout
    @property
    def n_partitions(self) -> int:
        return self.config.partitions

    def owner(self, partition: int) -> PlogBroker:
        """The broker currently *leading* ``partition``.

        Unreplicated this is the static round-robin owner; replicated it is
        whatever leader the controller last installed.  While a partition
        is offline (no live in-sync replica) the last leader is returned —
        clients' connects fail and retry until an election succeeds.
        """
        return self._leaders[(self.topic, partition)]

    def owner_name(self, partition: int) -> str:
        return self.owner(partition).name

    def leader_name(self, topic: str, partition: int) -> Optional[str]:
        broker = self._leaders.get((topic, partition))
        if broker is None:
            return None
        return broker.name if self._offline.get((topic, partition)) is not True else None

    def set_leader(
        self, topic: str, partition: int, broker: Optional[PlogBroker]
    ) -> None:
        """Controller hook: install an election result.  ``None`` marks the
        partition offline (the stale map entry is kept for ``owner()``)."""
        if broker is None:
            self._offline[(topic, partition)] = True
            return
        self._offline.pop((topic, partition), None)
        self._leaders[(topic, partition)] = broker

    def live_partition(self, partition: int) -> int:
        """``partition`` itself if its broker is up, else a partition owned
        by the nearest surviving broker (producer failover).

        Stepping the partition index steps the owning broker (round-robin
        layout), so ``partition + k`` probes broker ``(p + k) % n``.  With
        every broker down the original partition is returned — the caller's
        connect will fail and count as a refusal/retry.
        """
        def up(broker: PlogBroker) -> bool:
            return broker.alive and not broker.jvm.dead

        if up(self.owner(partition)):
            return partition
        for k in range(1, len(self.brokers)):
            candidate = (partition + k) % self.config.partitions
            if up(self.owner(candidate)):
                return candidate
        return partition

    def serve(self) -> None:
        """Start every broker listening on its port, the replica fetchers,
        and the cluster controller."""
        for broker in self.brokers:
            broker.serve(self.transport, self._ports[broker.name])
        for fetcher in self.replica_fetchers.values():
            fetcher.start()
        if self.controller is not None:
            self.controller.start()

    # ------------------------------------------------------------- connecting
    def connect(
        self, client_node: "Node", partition: int
    ) -> Generator[Any, Any, Channel]:
        """Open a channel from ``client_node`` to ``partition``'s broker."""
        broker = self.owner(partition)
        channel = yield from self.transport.connect(
            client_node, broker.node.name, self._ports[broker.name]
        )
        return channel

    def connect_coordinator(
        self, client_node: "Node"
    ) -> Generator[Any, Any, Channel]:
        """Open a channel from ``client_node`` to the coordinator broker.

        Routes through coordinator *discovery* — after a failover, clients
        reach the re-elected coordinator, not the corpse of broker 0.
        """
        broker = self.coordinator_broker()
        channel = yield from self.transport.connect(
            client_node, broker.node.name, self._ports[broker.name]
        )
        return channel

    def connect_to_broker(
        self, client_node: "Node", broker_name: str
    ) -> Generator[Any, Any, Channel]:
        """Open a channel to a broker by name (fetch sessions)."""
        broker = self._by_name[broker_name]
        channel = yield from self.transport.connect(
            client_node, broker.node.name, self._ports[broker.name]
        )
        return channel

    # ----------------------------------------------------------- coordinator
    def coordinator_broker(self) -> PlogBroker:
        """Coordinator discovery: the broker currently hosting the group
        coordinator (re-elected by the controller on crash)."""
        return self._coordinator_broker

    def install_coordinator(
        self, broker: PlogBroker, coordinator: GroupCoordinator
    ) -> None:
        """Controller hook: a coordinator election completed."""
        self._coordinator_broker = broker
        self.coordinator = coordinator
        if self._controller_enabled:
            self._wire_offsets_sink(coordinator)

    def _wire_offsets_sink(self, coordinator: GroupCoordinator) -> None:
        """Mirror accepted commits into the replicated ``__offsets`` log on
        the coordinator's broker, so a successor can replay them."""
        broker = coordinator.broker
        coordinator.offsets_sink = (
            lambda entries: broker.append_internal(OFFSETS_TOPIC, 0, entries)
        )

    # -------------------------------------------------------------- clients
    def producer(self, node: "Node", name: str) -> PlogProducer:
        return PlogProducer(self.sim, self, node, name, self.config)

    def consumer(
        self,
        node: "Node",
        name: str,
        group: str,
        on_record: Optional[RecordCallback] = None,
    ) -> PlogConsumer:
        return PlogConsumer(
            self.sim, self, node, name, group, self.topic, on_record,
            self.config,
        )

    # ----------------------------------------------------------------- stats
    def total_connections_refused(self) -> int:
        return sum(b.stats.connections_refused for b in self.brokers)

    def total_records_appended(self) -> int:
        return sum(b.stats.records_appended for b in self.brokers)

    def total_records_fetched(self) -> int:
        return sum(b.stats.records_fetched for b in self.brokers)

    def total_records_replicated(self) -> int:
        return sum(b.stats.records_replicated for b in self.brokers)

    def total_isr_shrinks(self) -> int:
        return sum(b.stats.isr_shrinks for b in self.brokers)

    def total_isr_expands(self) -> int:
        return sum(b.stats.isr_expands for b in self.brokers)
