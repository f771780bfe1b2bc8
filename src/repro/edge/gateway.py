"""The edge gateway: park long-polls, pool upstream subscriptions.

One :class:`EdgeGateway` is an HTTP front door on its own cluster node: it
accepts ``/edge/poll`` requests from a huge client population, parks them
(up to ``long_poll_timeout``) until the pooled upstream subscription
delivers an event for the requested topic, and answers each poll from the
per-topic :class:`~repro.edge.replay.ReplayRing` so reconnecting clients
catch up on the window they missed.

However many clients park on a gateway, it holds *one* upstream receiver
per topic (the pgbouncer shape): the middleware's own subscribing client
(:mod:`repro.powergrid.receiver`), made by the ``subscribe(node_name,
topic, name, on_delivery)`` callable the gateway is given, with the
gateway's ingest as ``on_delivery``.

Resource budgets are real: every parked client *connection* holds
``parked_heap_bytes × weight`` on the gateway JVM for as long as its
keep-alive socket lives (a poll can stand for a cohort of ``weight`` real
clients, which is how million-client populations stay simulable), and
polls arriving above the shed watermark are refused with 503 + a jittered
Retry-After — the standard overload story for a long-poll tier.

The gateway duck-types the fault injector's broker surface (``name`` /
``alive`` / ``jvm`` / ``node`` / ``crash()`` / ``restart()``), so
``broker_crash`` fault plans can kill and revive gateways: a crash severs
every parked connection and discards the rings; a restart is a *fresh
incarnation* — new ring epoch, new upstream receivers — and clients
recover via time-cursor catch-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.cluster.jvm import Jvm, OutOfMemoryError
from repro.core.records import record_of
from repro.edge.config import EdgeConfig
from repro.edge.replay import ReplayEvent, ReplayRing
from repro.transport.base import Channel, TransportError
from repro.transport.http import HttpRequest, HttpServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.sim.kernel import Simulator

EDGE_PORT = 7070


@dataclass
class GatewayStats:
    polls_received: int = 0
    #: Cumulative polls that parked (the plog ``long_polls_parked`` twin).
    long_polls_parked: int = 0
    polls_timed_out: int = 0
    polls_shed: int = 0
    polls_refused: int = 0
    catch_up_polls: int = 0
    truncated_reads: int = 0
    events_in: int = 0
    events_out: int = 0


@dataclass
class _Waiter:
    topic: str
    cursor: int
    weight: float
    parked_at: float
    respond: Any = field(repr=False, default=None)
    #: The ``long_poll_timeout`` timer; cancelled once the poll is answered.
    expiry: Any = field(repr=False, default=None)
    active: bool = True


class EdgeGateway:
    """One long-poll gateway process on one cluster node."""

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        name: str,
        subscribe: Callable[..., Any],
        topics: tuple[str, ...],
        config: Optional[EdgeConfig] = None,
        port: int = EDGE_PORT,
        transport: Any = None,
    ):
        self.sim = sim
        self.node = node
        self.name = name
        self.subscribe = subscribe
        self.topics = tuple(topics)
        self.config = config or EdgeConfig()
        self.port = port
        self.transport = transport
        self.jvm = Jvm(sim, node, f"{name}.jvm", heap_bytes=self.config.heap_bytes)
        self.alive = False
        self.incarnation = 0
        self.stats = GatewayStats()
        self._server: Optional[HttpServer] = None
        self._receivers: list[Any] = []
        self._rings: dict[str, ReplayRing] = {}
        self._waiters: dict[str, list[_Waiter]] = {}
        self._channels: set[Channel] = set()
        #: Heap retained per client connection (allocated on its *first*
        #: parked poll, freed when the connection dies) — connection state
        #: lives as long as the keep-alive socket, not per poll, so steady
        #: parking causes no allocation churn (no GC pressure), while many
        #: distinct connections still fill the heap and trigger shedding.
        self._conn_heap: dict[Channel, float] = {}
        self._parked_weight = 0.0
        self._parked_polls = 0

    # ---------------------------------------------------------------- startup
    def start(self) -> None:
        """Begin serving; run once after construction (and per restart)."""
        self.sim.process(self._start(), name=f"{self.name}.start")

    def _start(self) -> Generator[Any, Any, None]:
        self.alive = True
        epoch = f"{self.name}#{self.incarnation}"
        self._rings = {
            topic: ReplayRing(topic, self.config.replay_capacity, epoch)
            for topic in self.topics
        }
        self._waiters = {topic: [] for topic in self.topics}
        self._server = HttpServer(
            self.sim,
            self.transport,
            self.node,
            self.port,
            self._dispatch,
            accept_hook=self._accept,
        )
        name = f"edge.{self.name}.{self.incarnation}"
        for topic in self.topics:
            # A torn-down receiver can still hand over a message that was in
            # flight; no later incarnation ingests it.
            receiver = self.subscribe(
                self.node.name, topic, name,
                lambda payload, _t, topic=topic, incarnation=self.incarnation:
                self._on_upstream(topic, incarnation, payload),
            )
            self._receivers.append(receiver)
            subscribing = receiver.start()
            if subscribing is None:
                # A plog member joins in a process of its own: let it take
                # its first step before the reaper starts.
                yield self.sim.timeout(0.0)
            else:
                yield from subscribing
        self.sim.process(self._reaper(self.incarnation), name=f"{self.name}.reaper")

    def _reaper(self, incarnation: int) -> Generator[Any, Any, None]:
        """Release connection heap for sockets the peer has closed."""
        while self.alive and incarnation == self.incarnation:
            yield self.sim.timeout(1.0)
            dead = [ch for ch in self._conn_heap if ch.closed]
            for channel in dead:
                nbytes = self._conn_heap.pop(channel)
                if not self.jvm.dead:
                    self.jvm.free(nbytes)
                self._channels.discard(channel)

    def _accept(self, channel: Channel) -> None:
        if not self.alive:
            raise TransportError(f"{self.name} is down")
        self._channels.add(channel)

    # ------------------------------------------------------- upstream ingest
    @property
    def upstream_connections(self) -> int:
        """Current pooled connections to the middleware tier — the number
        the scaling experiment shows is O(topics), not O(clients)."""
        return sum(receiver.connections for receiver in self._receivers)

    def _on_upstream(self, topic: str, incarnation: int, payload: Any) -> None:
        if not self.alive or incarnation != self.incarnation:
            return
        ring = self._rings.get(topic)
        if ring is None:
            return
        self.stats.events_in += 1
        now = self.sim.now
        record = record_of(payload)
        created = record.t_before_send if record is not None else now
        if record is not None:
            record.mark("edge_in", now, "edge", self.name)
        wire_size = getattr(payload, "wire_size", None)
        nbytes = float(wire_size()) if callable(wire_size) else 140.0
        ring.append(payload, nbytes, now, created)
        waiters = self._waiters.get(topic)
        if not waiters:
            return
        self._waiters[topic] = []
        for waiter in waiters:
            self._unpark(waiter)
            self.sim.process(
                self._wake(waiter, ring), name=f"{self.name}.wake"
            )

    def _wake(self, waiter: _Waiter, ring: ReplayRing) -> Generator[Any, Any, None]:
        events, next_cursor, truncated = ring.read(
            waiter.cursor, self.config.max_events_per_poll
        )
        if truncated:
            self.stats.truncated_reads += 1
        yield from self._emit(waiter.respond, ring, events, next_cursor, waiter.parked_at)

    # --------------------------------------------------------- poll handling
    def _dispatch(self, request: HttpRequest, respond: Any) -> None:
        self.sim.process(self._handle(request, respond), name=f"{self.name}.poll")

    def _handle(self, request: HttpRequest, respond: Any) -> Generator[Any, Any, None]:
        if not self.alive:
            return
        yield from self.node.execute(self.config.cpu_per_poll)
        self.stats.polls_received += 1
        body = request.body or {}
        topic = body.get("topic")
        ring = self._rings.get(topic)
        if ring is None:
            self.stats.polls_refused += 1
            respond(404, {"error": f"unknown topic {topic!r}"}, 40.0)
            return

        weight = float(body.get("weight", 1.0))
        cursor = body.get("cursor")
        catch_up_from = body.get("catch_up_from")
        parked_at = self.sim.now

        events: list[ReplayEvent] = []
        if cursor is not None and cursor[0] == ring.epoch:
            events, next_cursor, truncated = ring.read(
                cursor[1], self.config.max_events_per_poll
            )
            if truncated:
                self.stats.truncated_reads += 1
        elif catch_up_from is not None:
            # Foreign or stale cursor: replay by created-time, overlapping
            # by the skew margin; the client deduplicates the overlap.
            self.stats.catch_up_polls += 1
            events, next_cursor = ring.read_since_created(
                catch_up_from - self.config.catch_up_margin,
                self.config.max_events_per_poll,
            )
        else:
            next_cursor = ring.end_seq

        if events:
            yield from self._emit(respond, ring, events, next_cursor, parked_at)
            return

        # Nothing pending: park the poll (or shed it under memory pressure).
        # Connection state is allocated once per client socket, on its
        # first park; re-parks on a keep-alive connection cost nothing.
        if request.channel not in self._conn_heap:
            heap = self.config.parked_heap_bytes * weight
            watermark = self.config.shed_heap_fraction * self.jvm.heap_bytes
            if self.jvm.dead or self.jvm.heap_used + heap > watermark:
                self._shed(respond)
                return
            try:
                self.jvm.alloc(heap, "parked long-poll connection")
            except OutOfMemoryError:
                self._shed(respond)
                return
            self._conn_heap[request.channel] = heap
        waiter = _Waiter(
            topic=topic,
            cursor=next_cursor,
            weight=weight,
            parked_at=parked_at,
            respond=respond,
        )
        self._waiters[topic].append(waiter)
        self.stats.long_polls_parked += 1
        self._parked_weight += weight
        self._parked_polls += 1
        incarnation = self.incarnation
        waiter.expiry = self.sim.call_at(
            self.sim.now + self.config.long_poll_timeout,
            lambda: self._expire(waiter, incarnation),
        )

    def _emit(
        self,
        respond: Any,
        ring: ReplayRing,
        events: list[ReplayEvent],
        next_cursor: int,
        parked_at: float,
    ) -> Generator[Any, Any, None]:
        yield from self.node.execute(self.config.cpu_per_event * len(events))
        if not self.alive:
            return
        now = self.sim.now
        for event in events:
            record = record_of(event.payload)
            if record is not None:
                record.mark("parked", parked_at, "edge", self.name)
                record.mark("edge_out", now, "edge", self.name)
        self.stats.events_out += len(events)
        respond(
            200,
            {
                "events": [event.payload for event in events],
                "cursor": (ring.epoch, next_cursor),
            },
            self.config.event_bytes * len(events),
        )

    def _shed(self, respond: Any) -> None:
        self.stats.polls_shed += 1
        retry_after = self.config.retry_after + self.sim.rng.uniform(
            f"edge.{self.name}.retry_after", 0.0, self.config.retry_after_jitter
        )
        respond(503, {"retry_after": retry_after}, 24.0)

    def _expire(self, waiter: _Waiter, incarnation: int) -> None:
        if not waiter.active or not self.alive or incarnation != self.incarnation:
            return
        ring = self._rings.get(waiter.topic)
        self._waiters[waiter.topic].remove(waiter)
        self._unpark(waiter)
        self.stats.polls_timed_out += 1
        cursor = (ring.epoch, ring.end_seq) if ring is not None else None
        waiter.respond(204, {"cursor": cursor}, 16.0)

    def _unpark(self, waiter: _Waiter) -> None:
        waiter.active = False
        self.sim.cancel(waiter.expiry)  # a no-op when called from _expire
        self._parked_weight -= waiter.weight
        self._parked_polls -= 1

    @property
    def parked_weight(self) -> float:
        """Clients (cohort-weighted) currently parked on this gateway."""
        return self._parked_weight

    # ------------------------------------------------------------ fault hooks
    def crash(self) -> None:
        """Kill the gateway process: sever parked polls, lose the rings."""
        if not self.alive:
            return
        self.alive = False
        if self._server is not None:
            self._server.close()
            self._server = None
        for channel in self._channels:
            if not channel.closed:
                channel.close()
        self._channels.clear()
        for receiver in self._receivers:
            receiver.stop()
        self._receivers = []
        for waiters in self._waiters.values():
            for waiter in waiters:
                waiter.active = False
                self.sim.cancel(waiter.expiry)
        self._waiters = {}
        self._rings = {}
        if not self.jvm.dead:
            self.jvm.free(sum(self._conn_heap.values()))
        self._conn_heap = {}
        self._parked_weight = 0.0
        self._parked_polls = 0

    def restart(self) -> None:
        """Bring up a fresh incarnation (new ring epoch, new upstream)."""
        if self.alive:
            return
        self.incarnation += 1
        self.start()
