"""The Broker Network Map (BNM) and Broker Discovery Node (BDN).

"Several brokers can form a Broker Network Map.  A specialized node called
Broker Discovery Node can discover new brokers" (paper §II.B).  The paper's
Distributed Broker Network experiment uses four broker nodes, one acting as
the *unit controller* that "assigned addresses to the other three nodes"
(§III.E.2) — a star with the controller at the hub.

Two forwarding policies are implemented:

* **broadcast flaw** (default — what the paper measured in v1.1.3): every
  event is flooded to every neighbour with duplicate suppression.  "We have
  monitored unnecessary data flow between nodes, that is, data flowed to a
  node even if there was no subscriber linked to it" (§III.E.2).
* **subscription-aware routing** (the fix the paper anticipates): brokers
  advertise interest per destination; events are forwarded only along
  shortest paths to interested brokers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from repro.narada.broker import Broker
from repro.narada.routing import shortest_paths
from repro.transport.base import ChannelClosed, MessageLost

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class BrokerDiscoveryNode:
    """Directory of live brokers: new brokers find peers through it."""

    def __init__(self) -> None:
        self._brokers: dict[str, Broker] = {}

    def register(self, broker: Broker) -> list[Broker]:
        """Add ``broker``; returns the already-known peers."""
        peers = list(self._brokers.values())
        self._brokers[broker.name] = broker
        return peers

    def deregister(self, broker: Broker) -> None:
        self._brokers.pop(broker.name, None)

    def lookup(self, name: str) -> Optional[Broker]:
        return self._brokers.get(name)

    @property
    def broker_names(self) -> list[str]:
        return sorted(self._brokers)


def star_network(
    sim: "Simulator",
    transport: Any,
    brokers: list[Broker],
    hub_index: int = 0,
    base_port: int = 19000,
) -> Generator[Any, Any, "BrokerNetwork"]:
    """Reusable single-network baseline: the paper's DBN star, built once.

    Registers every broker and wires a star with ``brokers[hub_index]`` as
    the unit-controller hub.  The forwarding policy comes from each
    broker's own config: ``broadcast_flaw=True`` reproduces the measured
    v1.1.3 flooding, ``broadcast_flaw=False`` the subscription-aware
    single-network routing — so the same builder serves the Narada DBN
    experiments, the routing ablation, and the ``federation_scaling``
    sweep's broadcast A/B leg, instead of each duplicating the setup.

    Run with ``sim.run_process``; returns the :class:`BrokerNetwork`.
    """
    network = BrokerNetwork(sim, transport, base_port=base_port)
    for broker in brokers:
        yield from network.add_broker(broker)
    hub = brokers[hub_index]
    yield from network.star(
        hub.name, [b.name for b in brokers if b is not hub]
    )
    return network


class BrokerNetwork:
    """A set of interconnected brokers sharing one event space."""

    def __init__(self, sim: "Simulator", transport: Any, base_port: int = 19000):
        self.sim = sim
        self.transport = transport
        self.base_port = base_port
        self.bdn = BrokerDiscoveryNode()
        self.brokers: dict[str, Broker] = {}
        #: adjacency: broker -> {neighbour: link weight}
        self.graph: dict[str, dict[str, float]] = {}
        self._routes: dict[str, dict[str, str]] = {}
        self._port_seq = 0
        #: Hook a deployment installs to count per-link event traffic:
        #: ``(src, dst)``, called for every flood / routed forward attempted.
        self.on_link_send: Optional[Callable[[str, str], None]] = None

    # ------------------------------------------------------------- topology
    def add_broker(self, broker: Broker) -> Generator[Any, Any, None]:
        """Register ``broker`` with the BDN and give it an inter-broker port."""
        self.bdn.register(broker)
        self.brokers[broker.name] = broker
        self.graph.setdefault(broker.name, {})
        broker.network = self
        self._port_seq += 1
        port = self.base_port + self._port_seq
        broker._network_port = port  # type: ignore[attr-defined]
        self.transport.listen(
            broker.node, port, lambda ch, b=broker: self._accept_peer(b, ch)
        )
        if False:  # pragma: no cover - generator shape for API symmetry
            yield

    def _accept_peer(self, broker: Broker, channel: Any) -> None:
        """A peer broker connected; serve it with a thread per link.  Peer
        links bypass the broker's acceptor, so nothing was charged for them
        (``charged=False``) and their EOF releases nothing."""
        broker.jvm.spawn_thread(
            broker._connection_loop(channel, charged=False),
            name=f"{broker.name}.peer",
        )

    def connect_brokers(
        self, a_name: str, b_name: str, weight: float = 1.0
    ) -> Generator[Any, Any, None]:
        """Create the bidirectional inter-broker link a <-> b."""
        a, b = self.brokers[a_name], self.brokers[b_name]
        channel = yield from self.transport.connect(
            a.node, b.node.name, b._network_port  # type: ignore[attr-defined]
        )
        a.peer_channels[b_name] = channel
        # The reverse direction uses the same full-duplex channel pair; the
        # b-side read loop was spawned by the accept hook, the a-side here.
        b.peer_channels[a_name] = channel.peer
        a.jvm.spawn_thread(
            a._connection_loop(channel, charged=False), name=f"{a.name}.peer"
        )
        self.graph[a_name][b_name] = weight
        self.graph[b_name][a_name] = weight
        self._routes.clear()  # recompute lazily

    def star(self, hub: str, leaves: Iterable[str]) -> Generator[Any, Any, None]:
        """The paper's DBN: a unit-controller hub with leaf brokers."""
        for leaf in leaves:
            yield from self.connect_brokers(hub, leaf)

    def first_hop(self, source: str, target: str) -> str:
        routes = self._routes.get(source)
        if routes is None:
            _, routes = shortest_paths(self.graph, source)
            self._routes[source] = routes
        return routes[target]

    # ------------------------------------------------------------ forwarding
    def forward_from(self, broker: Broker, message: Any) -> Generator[Any, Any, None]:
        """Called by a broker after local delivery of a fresh publish."""
        if broker.config.broadcast_flaw:
            yield from self.flood(broker, message, exclude=None)
            return
        interested = {
            name
            for name in broker.remote_interest.get(message.destination.name, ())
            if name != broker.name
        }
        if interested:
            yield from self.route(broker, message, tuple(sorted(interested)))

    def flood(
        self, broker: Broker, message: Any, exclude: Optional[str]
    ) -> Generator[Any, Any, None]:
        """v1.1.3 behaviour: copy to every neighbour (minus the inbound one)."""
        for peer_name in list(broker.peer_channels):
            if peer_name == exclude:
                continue
            yield from self._send_forward(broker, peer_name, message, None)

    def route(
        self, broker: Broker, message: Any, targets: tuple
    ) -> Generator[Any, Any, None]:
        """Subscription-aware shortest-path forwarding."""
        by_hop: dict[str, list[str]] = {}
        for target in targets:
            hop = self.first_hop(broker.name, target)
            by_hop.setdefault(hop, []).append(target)
        for hop, hop_targets in sorted(by_hop.items()):
            yield from self._send_forward(
                broker, hop, message, tuple(hop_targets)
            )

    def _send_forward(
        self, broker: Broker, peer_name: str, message: Any, targets: Optional[tuple]
    ) -> Generator[Any, Any, None]:
        if self.on_link_send is not None:
            self.on_link_send(broker.name, peer_name)
        channel = broker.peer_channels[peer_name]
        cfg = broker.config
        yield from broker.node.execute(cfg.forward_cpu)
        try:
            yield from channel.send(
                ("forward", message.copy(), targets, broker.name),
                message.wire_size() + cfg.frame_overhead_bytes,
            )
            broker.stats.messages_forwarded += 1
        except (MessageLost, ChannelClosed):
            broker.stats.deliveries_dropped += 1

    # ------------------------------------------------------------- interest
    def advertise_interest(
        self, broker: Broker, dest_name: str, active: bool
    ) -> Generator[Any, Any, None]:
        """Tell every other broker that ``broker`` has local subscribers.

        Sent regardless of the flaw flag (cheap control traffic); only the
        fixed routing mode consumes it.
        """
        broker._on_interest(dest_name, broker.name, active)
        for peer_name, channel in list(broker.peer_channels.items()):
            try:
                yield from channel.send(
                    ("interest", dest_name, broker.name, active),
                    broker.config.control_bytes,
                )
            except (MessageLost, ChannelClosed):
                continue
        # Second-hop propagation: hub relays to other leaves.
        yield from self._relay_interest(broker, dest_name, active)

    def _relay_interest(
        self, broker: Broker, dest_name: str, active: bool
    ) -> Generator[Any, Any, None]:
        """Ensure interest reaches brokers not directly linked to the origin.

        With small BNMs (the paper's is 4 brokers) a one-shot global sync is
        faithful enough: every broker learns the mapping after a short delay.
        """
        yield self.sim.timeout(0.0)
        for other in self.brokers.values():
            other._on_interest(dest_name, broker.name, active)
