"""A single Narada broker.

The broker runs inside a modelled JVM on one cluster node.  Each client
connection is served by a dedicated JVM thread (blocking TCP / UDP) or by a
shared selector thread (NIO).  Per-message work — protocol decode, topic
lookup, selector evaluation, per-subscriber delivery, ack processing — is
charged to the node's CPU, so queueing at a loaded broker produces the
paper's RTT-vs-connections curve mechanistically, and per-connection heap +
thread stacks produce its out-of-memory wall.

Wire protocol (tuples over a transport channel):

====================  =====================================================
``("publish", msg)``                client → broker: publish a message
``("subscribe", id, dest, sel)``    client → broker: add subscription
``("subscribed", id)``              broker → client: subscription confirmed
``("unsubscribe", id)``             client → broker: remove subscription
``("ack", n, {id: k})``             client → broker: JMS ack for n messages
                                    (per-subscription counts settle durable
                                    retention)
``("deliver", id, msg)``            broker → client: push to subscription
``("forward", msg, targets, hop)``  broker → broker: routed/flooded event
``("interest", dest, broker, on)``  broker → broker: interest advertisement
====================  =====================================================
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.cluster.jvm import OutOfMemoryError
from repro.cluster.server import JvmServer
from repro.jms.destination import Destination, Queue, Topic
from repro.jms.selector import Selector, parse_selector
from repro.narada.config import NaradaConfig
from repro.narada.durable import DurableStore
from repro.sim import Store
from repro.transport.base import EOF, Channel, ChannelClosed, MessageLost

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.narada.broker_network import BrokerNetwork
    from repro.sim.kernel import Simulator


@dataclass
class BrokerStats:
    """Counters the experiments read off."""

    connections_accepted: int = 0
    connections_refused: int = 0
    messages_published: int = 0
    messages_delivered: int = 0
    messages_forwarded: int = 0
    forwards_received: int = 0
    deliveries_dropped: int = 0
    acks_processed: int = 0
    selector_evaluations: int = 0
    #: Retained copies replayed to a re-subscribing durable consumer.
    messages_replayed: int = 0
    #: Retained copies evicted (buffer bound or heap pressure).
    retention_evicted: int = 0


@dataclass
class _Subscription:
    sub_id: str
    destination_name: str
    is_queue: bool
    selector: Optional[Selector]
    channel: Optional[Channel]
    durable: bool = False
    #: Messages retained while a durable subscriber is disconnected.
    offline_buffer: list = field(default_factory=list)
    #: Delivered-but-unacknowledged copies (durable only).  A push the
    #: broker counted as delivered can still die on the wire when the
    #: connection is severed; only the JMS ack retires the copy.
    unacked: list = field(default_factory=list)


class Broker(JvmServer):
    """One broker instance on one node."""

    middleware = "narada"

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        name: str,
        config: Optional[NaradaConfig] = None,
    ):
        super().__init__(sim, node, name, config or NaradaConfig(), BrokerStats())
        #: destination name -> ordered subscriptions.
        self._subs: dict[str, list[_Subscription]] = {}
        self._subs_by_id: dict[str, _Subscription] = {}
        #: Durable subscriptions, modelled as living on the persistent
        #: storage service — :meth:`_crashed` re-registers from here.
        self.durable_store = DurableStore()
        #: Queue round-robin cursors.
        self._rr: dict[str, int] = {}
        # NIO: one shared dispatch queue + selector thread, lazily started.
        self._nio_queue: Optional[Store] = None
        # Broker network plumbing (set by BrokerNetwork.attach).
        self.network: Optional["BrokerNetwork"] = None
        self.peer_channels: dict[str, Channel] = {}
        #: dest name -> set of broker names with local subscribers there.
        self.remote_interest: dict[str, set[str]] = {}
        # Flood dedup (bounded LRU of message ids).
        self._seen: OrderedDict[str, None] = OrderedDict()

    # ------------------------------------------------------------- serving
    def _serve_channel(self, channel: Channel) -> None:
        """Blocking TCP / UDP get a thread each; NIO shares the selector."""
        if channel.server_mode != "nio":
            super()._serve_channel(channel)
            return
        if self._nio_queue is None:
            self._nio_queue = Store(self.sim)
            self.jvm.spawn_thread(self._selector_loop(), name=f"{self.name}.selector")
        queue = self._nio_queue
        channel.on_deliver = lambda d: queue.put_nowait((channel, d))

    def _selector_loop(self) -> Generator[Any, Any, None]:
        assert self._nio_queue is not None
        while self.alive:
            channel, delivery = yield self._nio_queue.get()
            if delivery.payload is EOF:
                self._disconnected(channel)
                continue
            yield from self.node.execute(
                self.config.nio_dispatch_cpu
                + channel.cost_model.recv_cost(delivery.nbytes)
            )
            yield from self._handle(channel, delivery.payload)

    # ------------------------------------------------------------ protocol
    def _handle(self, channel: Channel, frame: tuple) -> Generator[Any, Any, None]:
        kind = frame[0]
        if kind == "publish":
            yield from self._on_publish(frame[1], origin_channel=channel)
        elif kind == "subscribe":
            _, sub_id, destination, selector_text, durable = frame
            yield from self._on_subscribe(
                channel, sub_id, destination, selector_text, durable
            )
        elif kind == "unsubscribe":
            self._remove_subscription(frame[1])
        elif kind == "ack":
            count = frame[1]
            self.stats.acks_processed += count
            yield from self.node.execute(self.config.ack_cpu * count)
            per_sub = frame[2] if len(frame) > 2 else None
            if per_sub:
                for sub_id, n in per_sub.items():
                    sub = self._subs_by_id.get(sub_id)
                    if sub is not None and sub.durable:
                        self._settle(sub, n)
        elif kind == "forward":
            _, message, targets, hop = frame
            yield from self._on_forward(message, targets, hop)
        elif kind == "interest":
            _, dest_name, broker_name, active = frame
            self._on_interest(dest_name, broker_name, active)
        else:
            raise ValueError(f"unknown frame kind {kind!r}")

    # ------------------------------------------------------------- publish
    def _on_publish(
        self, message: Any, origin_channel: Optional[Channel]
    ) -> Generator[Any, Any, None]:
        self.stats.messages_published += 1
        self._mark(message, "broker_in")
        cfg = self.config
        nbytes = message.wire_size()
        try:
            self.jvm.alloc(cfg.per_message_heap, "in-flight message")
        except OutOfMemoryError:
            self.stats.deliveries_dropped += 1
            return
        try:
            yield from self.node.execute(
                cfg.message_cpu(nbytes) + self._sched_overhead()
            )
            if message.delivery_mode == 2:  # PERSISTENT
                yield from self.node.execute(cfg.persist_cpu)
            if not self._mark_seen(message.message_id):
                return  # duplicate of an already-routed event
            yield from self._deliver_local(message)
            if self.network is not None:
                yield from self.network.forward_from(self, message)
        finally:
            self.jvm.free(cfg.per_message_heap)

    def _deliver_local(self, message: Any) -> Generator[Any, Any, None]:
        cfg = self.config
        dest = message.destination
        subs = self._subs.get(dest.name, [])
        if not subs:
            return
        if isinstance(dest, Queue):
            # Round-robin among matching queue receivers.
            start = self._rr.get(dest.name, 0)
            n = len(subs)
            for k in range(n):
                sub = subs[(start + k) % n]
                self.stats.selector_evaluations += 1
                yield from self.node.execute(cfg.selector_eval_cpu)
                if sub.selector is None or sub.selector.matches(message):
                    self._rr[dest.name] = (start + k + 1) % n
                    yield from self._push(sub, message)
                    return
            return
        for sub in list(subs):
            self.stats.selector_evaluations += 1
            yield from self.node.execute(cfg.selector_eval_cpu)
            if sub.selector is None or sub.selector.matches(message):
                yield from self._push(sub, message)

    def _on_channel_closed(self, channel: Channel) -> None:
        """Client disconnected: durable subscriptions go offline (messages
        buffer until re-subscribe); non-durable ones die with the channel."""
        for sub in list(self._subs_by_id.values()):
            if sub.channel is not channel and sub.channel is not channel.peer:
                continue
            if sub.durable:
                sub.channel = None
            else:
                self._remove_subscription(sub.sub_id)

    def _push(self, sub: _Subscription, message: Any) -> Generator[Any, Any, None]:
        cfg = self.config
        copy = message.copy()
        copy.destination = message.destination
        if sub.channel is None or sub.channel.closed:
            # Offline durable subscriber: retain for later delivery.
            if sub.durable:
                self._retain(sub, copy, sub.offline_buffer)
            else:
                self.stats.deliveries_dropped += 1
            return
        yield from self.node.execute(cfg.deliver_cpu)
        # Durable contract: the copy stays retained until the subscriber's
        # JMS ack comes back — a send the broker counts as delivered can
        # still die on the wire under a crash, and re-subscribe replays it.
        retained = sub.durable and self._retain(sub, copy, sub.unacked)
        try:
            yield from sub.channel.send(
                ("deliver", sub.sub_id, copy),
                copy.wire_size() + cfg.frame_overhead_bytes,
            )
            self.stats.messages_delivered += 1
            self._mark(copy, "broker_out")
        except (MessageLost, ChannelClosed):
            if not retained:
                self.stats.deliveries_dropped += 1

    # ----------------------------------------------------- durable retention
    def _retain(self, sub: _Subscription, copy: Any, buffer: list) -> bool:
        """Retain a copy for replay, bounded by buffer size and broker heap.

        Returns False when the copy could not be retained (heap exhausted):
        the message is dropped like a non-durable delivery would be, instead
        of OOM-killing the broker over retention bookkeeping.
        """
        cfg = self.config
        try:
            self.jvm.alloc(cfg.per_message_heap, "durable retention")
        except OutOfMemoryError:
            self.stats.deliveries_dropped += 1
            self.stats.retention_evicted += 1
            return False
        buffer.append(copy)
        # One budget covers both windows; evict oldest-first (unacked
        # predates offline chronologically).
        while len(sub.unacked) + len(sub.offline_buffer) > cfg.durable_buffer_max:
            victim = sub.unacked if sub.unacked else sub.offline_buffer
            victim.pop(0)
            self.jvm.free(cfg.per_message_heap)
            self.stats.deliveries_dropped += 1
            self.stats.retention_evicted += 1
        return True

    def _settle(self, sub: _Subscription, count: int) -> None:
        """A JMS ack retires the oldest ``count`` retained deliveries."""
        settled = min(count, len(sub.unacked))
        if settled:
            del sub.unacked[:settled]
            self.jvm.free(self.config.per_message_heap * settled)

    # ------------------------------------------------------------ subscribe
    def _on_subscribe(
        self,
        channel: Channel,
        sub_id: str,
        destination: Destination,
        selector_text: Optional[str],
        durable: bool = False,
    ) -> Generator[Any, Any, None]:
        existing = self._subs_by_id.get(sub_id)
        if existing is not None and existing.durable and existing.channel is None:
            # Durable re-subscribe: reattach and replay the retained
            # backlog — unacked deliveries first (older), then the offline
            # buffer, in arrival order.  Replay re-enters :meth:`_push`, so
            # every copy is re-retained until its ack comes back; the
            # subscriber's (pub_id, seq) dedup absorbs any it already saw.
            existing.channel = channel
            yield from self.node.execute(self.config.routing_cpu)
            try:
                yield from channel.send(
                    ("subscribed", sub_id), self.config.control_bytes
                )
            except (MessageLost, ChannelClosed):
                return
            backlog = existing.unacked + existing.offline_buffer
            existing.unacked, existing.offline_buffer = [], []
            for message in backlog:
                self.jvm.free(self.config.per_message_heap)
                self.stats.messages_replayed += 1
                yield from self._push(existing, message)
            return
        sub = _Subscription(
            sub_id=sub_id,
            destination_name=destination.name,
            is_queue=isinstance(destination, Queue),
            selector=parse_selector(selector_text),
            channel=channel,
            durable=durable,
        )
        self._subs.setdefault(destination.name, []).append(sub)
        self._subs_by_id[sub_id] = sub
        if durable:
            self.durable_store.register(sub)
        yield from self.node.execute(self.config.routing_cpu)
        try:
            yield from channel.send(("subscribed", sub_id), self.config.control_bytes)
        except (MessageLost, ChannelClosed):
            pass
        if self.network is not None:
            yield from self.network.advertise_interest(self, destination.name, True)

    def _remove_subscription(self, sub_id: str) -> None:
        sub = self._subs_by_id.pop(sub_id, None)
        if sub is None:
            return
        if sub.durable:
            # Explicit unsubscribe forgets the durable name and frees its
            # retained messages.
            self.durable_store.forget(sub_id)
            retained = len(sub.unacked) + len(sub.offline_buffer)
            if retained:
                self.jvm.free(self.config.per_message_heap * retained)
                sub.unacked.clear()
                sub.offline_buffer.clear()
        bucket = self._subs.get(sub.destination_name, [])
        try:
            bucket.remove(sub)
        except ValueError:
            pass
        if not bucket and self.network is not None:
            self.sim.process(
                self.network.advertise_interest(self, sub.destination_name, False),
                name=f"{self.name}.interest-off",
            )

    def subscription_count(self, destination_name: Optional[str] = None) -> int:
        if destination_name is None:
            return len(self._subs_by_id)
        return len(self._subs.get(destination_name, []))

    # ------------------------------------------------- broker network hooks
    def _on_forward(
        self, message: Any, targets: Optional[tuple], hop_from: str
    ) -> Generator[Any, Any, None]:
        self.stats.forwards_received += 1
        cfg = self.config
        yield from self.node.execute(cfg.forward_recv_cpu + self._sched_overhead())
        if cfg.broadcast_flaw:
            if not self._mark_seen(message.message_id):
                return
            yield from self._deliver_local(message)
            if self.network is not None:
                yield from self.network.flood(self, message, exclude=hop_from)
        else:
            assert targets is not None
            if self.name in targets:
                yield from self._deliver_local(message)
            remaining = tuple(t for t in targets if t != self.name)
            if remaining and self.network is not None:
                yield from self.network.route(self, message, remaining)

    def _on_interest(self, dest_name: str, broker_name: str, active: bool) -> None:
        bucket = self.remote_interest.setdefault(dest_name, set())
        if active:
            bucket.add(broker_name)
        else:
            bucket.discard(broker_name)

    def _mark_seen(self, message_id: str) -> bool:
        """Record a routed event id; False when it is a duplicate."""
        if message_id in self._seen:
            return False
        self._seen[message_id] = None
        if len(self._seen) > self.config.dedup_capacity:
            self._seen.popitem(last=False)
        return True

    # ---------------------------------------------------------------- admin
    def _crashed(self) -> None:
        """Non-durable subscriptions are volatile broker memory: they die
        with their channels (through the clean-disconnect path), so clients
        must reconnect *and* resubscribe after a restart.  Durable
        subscriptions live on the persistent storage service
        (:attr:`durable_store`) and are re-registered from it here — the
        stand-in for the recovery controller replaying the on-disk
        subscription registry — coming back *offline*, so deliveries racing
        the crash land in their replay buffers instead of a dead channel.
        """
        for sub in self.durable_store.subscriptions():
            sub.channel = None
            if self._subs_by_id.get(sub.sub_id) is not sub:
                self._subs_by_id[sub.sub_id] = sub
                bucket = self._subs.setdefault(sub.destination_name, [])
                if sub not in bucket:
                    bucket.append(sub)

    def _restarted(self) -> None:
        """The NIO selector thread died with the crash; respawn it so stale
        EOFs drain and new registrations are served."""
        if self._nio_queue is not None:
            self.jvm.spawn_thread(
                self._selector_loop(), name=f"{self.name}.selector"
            )
