"""One federation broker: tree links, topic routing, client service.

The broker runs inside a modelled JVM on one cluster node, serving client
connections thread-per-connection like :class:`repro.narada.broker.Broker`
(whose :class:`~repro.narada.config.NaradaConfig` supplies the calibrated
per-message CPU charges and JVM budgets — the federation tier runs the same
broker software, arranged differently).

Wire protocol (tuples over a transport channel):

======================================  ===================================
``("publish", msg, topic)``             client → broker: publish
``("subscribe", id, topic)``            client → broker: add subscription
``("subscribed", id)``                  broker → client: confirmed
``("unsubscribe", id)``                 client → broker: remove
``("deliver", id, msg)``                broker → client: push
``("hello", name)``                     child → parent: link registration
``("fsub", topic, name, active)``       child → parent: (un)advertise that
                                        ``topic`` has interest in the
                                        child's subtree (covering entry)
``("up", msg, topic, name)``            child → parent: event moving up
``("down", msg, topic)``                parent → child: event moving down
======================================  ===================================

Events always climb to the root (the control-room tier must be reachable
without advertising interest *down* the tree) and descend **only** links
whose routing table names a downstream subscriber — the topic-aware half
that the v1.1.3 broadcast DBN lacks.  A tree has no cycles, so no flood
dedup is needed on the federated path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.cluster.jvm import OutOfMemoryError
from repro.cluster.server import JvmServer
from repro.federation.routing import RoutingTable
from repro.narada.config import NaradaConfig
from repro.transport.base import Channel, ChannelClosed, MessageLost

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.sim.kernel import Simulator


@dataclass
class FederationBrokerStats:
    """Counters the experiments read off."""

    connections_accepted: int = 0
    connections_refused: int = 0
    messages_published: int = 0
    messages_delivered: int = 0
    forwards_up: int = 0
    forwards_down: int = 0
    forwards_received: int = 0
    control_messages: int = 0
    deliveries_dropped: int = 0
    #: Publishes that could not climb: the parent link was down.
    orphaned_up: int = 0


@dataclass
class _LocalSub:
    sub_id: str
    topic: str
    channel: Optional[Channel]


class FederatedBroker(JvmServer):
    """One broker of the federation tree: clients, child links and the
    uplink are each served by a thread-per-connection loop."""

    middleware = "federation"

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        name: str,
        config: Optional[NaradaConfig] = None,
    ):
        super().__init__(
            sim, node, name, config or NaradaConfig(), FederationBrokerStats()
        )
        self.table = RoutingTable(name)
        #: Tree plumbing.
        self.parent_name: Optional[str] = None
        self.parent_channel: Optional[Channel] = None
        self.child_channels: dict[str, Channel] = {}
        self._channel_child: dict[int, str] = {}  # id(channel) -> child name
        #: Local subscriptions.
        self._subs_by_id: dict[str, _LocalSub] = {}
        self._subs_by_topic: dict[str, list[_LocalSub]] = {}
        #: Hook the deployment installs to count per-link traffic:
        #: ``(src, dst, control)``.
        self.on_link_send: Optional[Callable[[str, str, bool], None]] = None

    # ------------------------------------------------------------ protocol
    def _handle(self, channel: Channel, frame: tuple) -> Generator[Any, Any, None]:
        kind = frame[0]
        if kind == "publish":
            _, message, topic = frame
            yield from self._on_publish(message, topic)
        elif kind == "up":
            _, message, topic, from_name = frame
            yield from self._on_up(message, topic, from_name)
        elif kind == "down":
            _, message, topic = frame
            yield from self._on_down(message, topic)
        elif kind == "subscribe":
            _, sub_id, topic = frame
            yield from self._on_subscribe(channel, sub_id, topic)
        elif kind == "unsubscribe":
            yield from self._on_unsubscribe(frame[1])
        elif kind == "hello":
            self._register_child(frame[1], channel)
        elif kind == "fsub":
            _, topic, child_name, active = frame
            yield from self._on_fsub(topic, child_name, active)
        else:
            raise ValueError(f"unknown frame kind {kind!r}")

    # -------------------------------------------------------------- events
    def _on_publish(self, message: Any, topic: str) -> Generator[Any, Any, None]:
        self.stats.messages_published += 1
        self._mark(message, "broker_in")
        cfg = self.config
        try:
            self.jvm.alloc(cfg.per_message_heap, "in-flight message")
        except OutOfMemoryError:
            self.stats.deliveries_dropped += 1
            return
        try:
            yield from self.node.execute(
                cfg.message_cpu(message.wire_size()) + self._sched_overhead()
            )
            yield from self._deliver_local(topic, message)
            yield from self._forward_down(message, topic, exclude=None)
            yield from self._forward_up(message, topic)
        finally:
            self.jvm.free(cfg.per_message_heap)

    def _on_up(
        self, message: Any, topic: str, from_name: str
    ) -> Generator[Any, Any, None]:
        self.stats.forwards_received += 1
        self._mark(message, "broker_in")
        yield from self.node.execute(
            self.config.forward_recv_cpu + self._sched_overhead()
        )
        yield from self._deliver_local(topic, message)
        yield from self._forward_down(message, topic, exclude=from_name)
        yield from self._forward_up(message, topic)

    def _on_down(self, message: Any, topic: str) -> Generator[Any, Any, None]:
        self.stats.forwards_received += 1
        self._mark(message, "broker_in")
        yield from self.node.execute(
            self.config.forward_recv_cpu + self._sched_overhead()
        )
        yield from self._deliver_local(topic, message)
        yield from self._forward_down(message, topic, exclude=None)

    def _forward_up(self, message: Any, topic: str) -> Generator[Any, Any, None]:
        channel = self.parent_channel
        if channel is None or channel.closed:
            if self.parent_name is not None:
                self.stats.orphaned_up += 1
            return
        cfg = self.config
        yield from self.node.execute(cfg.forward_cpu)
        try:
            yield from channel.send(
                ("up", message.copy(), topic, self.name),
                message.wire_size() + cfg.frame_overhead_bytes,
            )
        except (MessageLost, ChannelClosed):
            self.stats.deliveries_dropped += 1
            return
        self.stats.forwards_up += 1
        self._count_link(self.parent_name, control=False)

    def _forward_down(
        self, message: Any, topic: str, exclude: Optional[str]
    ) -> Generator[Any, Any, None]:
        cfg = self.config
        for child_name in self.table.children_for(topic):
            if child_name == exclude:
                continue
            channel = self.child_channels.get(child_name)
            if channel is None or channel.closed:
                continue
            yield from self.node.execute(cfg.forward_cpu)
            try:
                yield from channel.send(
                    ("down", message.copy(), topic),
                    message.wire_size() + cfg.frame_overhead_bytes,
                )
            except (MessageLost, ChannelClosed):
                self.stats.deliveries_dropped += 1
                continue
            self.stats.forwards_down += 1
            self._count_link(child_name, control=False)

    def _deliver_local(self, topic: str, message: Any) -> Generator[Any, Any, None]:
        cfg = self.config
        for sub in list(self._subs_by_topic.get(topic, ())):
            channel = sub.channel
            if channel is None or channel.closed:
                self.stats.deliveries_dropped += 1
                continue
            yield from self.node.execute(cfg.deliver_cpu)
            copy = message.copy()
            try:
                yield from channel.send(
                    ("deliver", sub.sub_id, copy),
                    copy.wire_size() + cfg.frame_overhead_bytes,
                )
            except (MessageLost, ChannelClosed):
                self.stats.deliveries_dropped += 1
                continue
            self.stats.messages_delivered += 1
            self._mark(copy, "broker_out")

    def _count_link(self, peer: Optional[str], control: bool) -> None:
        if peer is not None and self.on_link_send is not None:
            self.on_link_send(self.name, peer, control)

    # --------------------------------------------------------- subscription
    def _on_subscribe(
        self, channel: Channel, sub_id: str, topic: str
    ) -> Generator[Any, Any, None]:
        sub = _LocalSub(sub_id=sub_id, topic=topic, channel=channel)
        self._subs_by_id[sub_id] = sub
        self._subs_by_topic.setdefault(topic, []).append(sub)
        yield from self.node.execute(self.config.routing_cpu)
        try:
            yield from channel.send(("subscribed", sub_id), self.config.control_bytes)
        except (MessageLost, ChannelClosed):
            pass
        if self.table.add_local(topic, sub_id):
            yield from self._send_fsub(topic, True)

    def _on_unsubscribe(self, sub_id: str) -> Generator[Any, Any, None]:
        sub = self._subs_by_id.pop(sub_id, None)
        if sub is None:
            return
        bucket = self._subs_by_topic.get(sub.topic, [])
        if sub in bucket:
            bucket.remove(sub)
        yield from self.node.execute(self.config.routing_cpu)
        if self.table.remove_local(sub.topic, sub_id):
            yield from self._send_fsub(sub.topic, False)

    def _on_fsub(
        self, topic: str, child_name: str, active: bool
    ) -> Generator[Any, Any, None]:
        """A child (un)advertised subtree interest: covering aggregation —
        only an *aggregate* 0↔1 transition propagates further up."""
        yield from self.node.execute(self.config.routing_cpu)
        if self.table.set_downstream(topic, child_name, active):
            yield from self._send_fsub(topic, active)

    def _send_fsub(self, topic: str, active: bool) -> Generator[Any, Any, None]:
        channel = self.parent_channel
        if channel is None or channel.closed:
            return
        try:
            yield from channel.send(
                ("fsub", topic, self.name, active), self.config.control_bytes
            )
        except (MessageLost, ChannelClosed):
            return
        self.stats.control_messages += 1
        self._count_link(self.parent_name, control=True)

    def subscription_count(self, topic: Optional[str] = None) -> int:
        if topic is None:
            return len(self._subs_by_id)
        return len(self._subs_by_topic.get(topic, ()))

    # ----------------------------------------------------------- tree links
    def _register_child(self, child_name: str, channel: Channel) -> None:
        self.child_channels[child_name] = channel
        self._channel_child[id(channel)] = child_name

    def connect_to_parent(
        self, transport: Any, parent: "FederatedBroker"
    ) -> Generator[Any, Any, None]:
        """Attach (or re-attach) this broker below ``parent``.

        After the link is up the broker re-advertises its *aggregated*
        subtree interest — one ``fsub`` per topic, regardless of how many
        clients sit below — which is what re-converges routing tables after
        a re-parent.
        """
        if self.parent_channel is not None and not self.parent_channel.closed:
            self.parent_channel.close()
        channel = yield from transport.connect(
            self.node, parent.node.name, parent.port
        )
        self.parent_name = parent.name
        self.parent_channel = channel
        self.jvm.spawn_thread(
            self._connection_loop(channel, charged=False),
            name=f"{self.name}.uplink",
        )
        yield from channel.send(("hello", self.name), self.config.control_bytes)
        self.stats.control_messages += 1
        self._count_link(self.parent_name, control=True)
        for topic in self.table.topics():
            yield from self._send_fsub(topic, True)

    def _on_channel_closed(self, channel: Channel) -> None:
        """EOF housekeeping for all three channel roles."""
        child_name = self._channel_child.pop(id(channel), None)
        if child_name is None and channel.peer is not None:
            child_name = self._channel_child.pop(id(channel.peer), None)
        if child_name is not None:
            # A child subtree went away: withdraw its covering entries and
            # cascade any aggregate 1 -> 0 transitions up the tree.
            self.child_channels.pop(child_name, None)
            withdrawn = self.table.drop_child(child_name)
            if withdrawn and self.alive:
                self.sim.process(
                    self._withdraw_topics(withdrawn),
                    name=f"{self.name}.withdraw",
                )
            return
        if channel is self.parent_channel or (
            self.parent_channel is not None and channel is self.parent_channel.peer
        ):
            self.parent_channel = None
            return
        # A client channel: non-durable subscriptions die with it.
        for sub in list(self._subs_by_id.values()):
            if sub.channel is channel or sub.channel is channel.peer:
                self.sim.process(
                    self._on_unsubscribe(sub.sub_id), name=f"{self.name}.unsub"
                )

    def _withdraw_topics(self, topics: tuple[str, ...]) -> Generator[Any, Any, None]:
        for topic in topics:
            yield from self._send_fsub(topic, False)

    # ---------------------------------------------------------------- admin
    def _crashed(self) -> None:
        """Sever the tree links too and lose all in-memory state.

        Peers see EOFs through their normal service loops: the parent drops
        this broker's covering entries (withdrawing up as needed) and the
        children orphan their uplinks until the controller re-parents them.
        A restart comes back empty; the federation controller re-attaches
        the broker to its topology parent, and children re-advertise when
        they are rewired back, which rebuilds the table.
        """
        for channel in list(self.child_channels.values()):
            if not channel.closed:
                channel.close()
        self.child_channels.clear()
        self._channel_child.clear()
        if self.parent_channel is not None and not self.parent_channel.closed:
            self.parent_channel.close()
        self.parent_channel = None
        self.table.clear()
        self._subs_by_id.clear()
        self._subs_by_topic.clear()
