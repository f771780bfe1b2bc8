"""The fetching client: group membership, per-broker fetch sessions, commits.

A consumer joins a group at the coordinator and waits to be *assigned*
partitions; it never picks them itself.  It keeps one fetch *session* per
broker that leads any of them, as Kafka's consumer sends one FetchRequest
per leader: each round names every assigned partition that broker leads,
and the next request is issued only after the previous response is fully
processed.  That one request in flight per broker is the pull-based
backpressure that distinguishes this design from Narada's push delivery: a
slow consumer lags in offsets instead of ballooning broker heap.

Every round regroups the assigned partitions by current leader, so a
rebalance or a leader failover moves a partition between sessions at the
next round; a session's loop ends once its broker leads none of them, and
a round that meets a leader without a loop starts one.  Responses arrive
over one channel per broker; a reader process hands each to its loop by
correlation id.  A batch is consumed only if it starts at its partition's
current position: a response that lands after a rebalance does not advance
a partition assigned away, and committed offsets let the new owner resume
where the old one stopped (at-least-once delivery — the record stamping in
:mod:`repro.powergrid.receiver` guards against counting redelivered
records twice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.plog.config import PlogConfig
from repro.sim.events import TimedOut
from repro.transport.base import (
    Channel,
    ChannelClosed,
    MessageLost,
    TransportError,
    EOF,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.plog.deployment import PlogDeployment
    from repro.sim.kernel import Simulator

#: ``on_record`` callback signature: (value, t_arrived) -> None, invoked
#: after the per-record processing CPU has been charged.
RecordCallback = Callable[[Any, float], None]


@dataclass
class _BrokerSession:
    channel: Channel
    #: corr id -> Event the fetch loop is parked on.
    pending: dict[int, Any] = field(default_factory=dict)


class PlogConsumer:
    """One consumer-group member."""

    def __init__(
        self,
        sim: "Simulator",
        deployment: "PlogDeployment",
        node: "Node",
        name: str,
        group: str,
        topic: str,
        on_record: Optional[RecordCallback] = None,
        config: Optional[PlogConfig] = None,
    ):
        self.sim = sim
        self.deployment = deployment
        self.node = node
        self.name = name
        self.group = group
        self.topic = topic
        self.on_record = on_record
        self.config = config or deployment.config
        self._coord: Optional[Channel] = None
        #: broker name -> connected session (shared by that broker's
        #: partitions).
        self._sessions: dict[str, _BrokerSession] = {}
        #: broker name -> True while its fetch loop runs, False once it gave
        #: up (no ``consumer_recovery``) until the next assignment.
        self._loops: dict[str, bool] = {}
        #: Partitions whose batch is being handed to ``on_record``.
        self._delivering: set[int] = set()
        self._corr = 0
        self.generation = 0
        #: Currently-assigned partitions.
        self.assigned: tuple[int, ...] = ()
        #: partition -> next offset to fetch (the commit position).
        self.positions: dict[int, int] = {}
        self.records_consumed = 0
        self.fetches_issued = 0
        self.rebalances_seen = 0
        #: Recovery counters (only move with ``config.consumer_recovery``).
        self.fetch_retries = 0
        self.fetch_timeouts = 0
        self.reconnects = 0
        #: Times this member rejoined after losing its coordinator channel
        #: (coordinator broker crash → re-election → rejoin + rebalance).
        self.coordinator_rejoins = 0
        self.closed = False

    # --------------------------------------------------------------- startup
    def start(self) -> Generator[Any, Any, None]:
        """Connect to the coordinator, join the group, serve assignments.

        Run as a process: ``sim.process(consumer.start())``.  Raises the
        transport's refusal errors if the coordinator connection fails.

        With ``consumer_recovery`` the member outlives its coordinator:
        when the coordinator channel dies (broker crash), it reconnects via
        coordinator *discovery* — reaching the re-elected coordinator — and
        rejoins, which triggers the rebalance that resumes assignments and
        commits.  Without recovery the pre-failover behaviour is kept
        exactly: connect errors raise, EOF ends the membership.
        """
        recover = self.config.consumer_recovery
        backoff = self.config.consumer_retry_backoff
        joined_once = False
        while not self.closed:
            try:
                self._coord = yield from self.deployment.connect_coordinator(
                    self.node
                )
                yield from self._coord.send(
                    ("join", self.group, self.name, self.topic),
                    self.config.control_bytes,
                )
            except (TransportError, ChannelClosed, MessageLost):
                if not recover:
                    raise
                self._coord = None
                yield self.sim.timeout(backoff)
                backoff = min(backoff * 2.0, self.config.consumer_retry_max)
                continue
            if not joined_once:
                joined_once = True
                self.sim.process(self._commit_loop(), name=f"{self.name}.commit")
            backoff = self.config.consumer_retry_backoff
            while not self.closed:
                delivery = yield self._coord.receive()
                if delivery.payload is EOF:
                    break
                frame = delivery.payload
                if frame[0] == "assign":
                    _, _, generation, partitions, offsets = frame
                    self._on_assignment(generation, partitions, offsets)
            if self.closed or not recover:
                return
            self.coordinator_rejoins += 1
            yield self.sim.timeout(backoff)

    def _on_assignment(
        self, generation: int, partitions: tuple, offsets: dict
    ) -> None:
        previous = set(self.assigned)
        self.generation = generation
        self.assigned = tuple(partitions)
        self.rebalances_seen += 1
        for partition in partitions:
            self.positions.setdefault(partition, offsets.get(partition, 0))
        for partition in previous - set(partitions):
            self.positions.pop(partition, None)
        # A new generation retries the sessions that gave up; running ones
        # pick up the new partition set at their next round.
        self._loops = {name: True for name, running in self._loops.items() if running}
        self._round(None)

    # ---------------------------------------------------------------- fetching
    def _round(self, broker: Optional[str]) -> dict[int, int]:
        """``{partition: position}`` of the assigned partitions ``broker``
        leads; starts the fetch loop of every other leader without one."""
        offsets = {}
        for partition in self.assigned:
            owner = self.deployment.owner_name(partition)
            if owner == broker:
                offsets[partition] = self.positions[partition]
            elif owner not in self._loops:
                self._loops[owner] = True
                self.sim.process(
                    self._fetch_loop(owner), name=f"{self.name}.fetch.{owner}"
                )
        return offsets

    def _fetch_loop(self, broker: str) -> Generator[Any, Any, None]:
        cfg = self.config
        recover = cfg.consumer_recovery
        backoff = cfg.consumer_retry_backoff
        while not self.closed:
            offsets = self._round(broker)
            if not offsets:
                break
            try:
                session = yield from self._session_for(broker)
            except (TransportError, MessageLost):
                if not recover:
                    self._loops[broker] = False
                    return
                # Broker down: keep knocking — the log is durable, so the
                # session resumes at its positions once it is back.
                self.reconnects += 1
                yield self.sim.timeout(backoff)
                backoff = min(backoff * 2.0, cfg.consumer_retry_max)
                continue
            self._corr += 1
            corr = self._corr
            response = self.sim.event()
            session.pending[corr] = response
            try:
                yield from session.channel.send(
                    (
                        "fetch",
                        corr,
                        self.topic,
                        offsets,
                        cfg.fetch_max_records,
                        cfg.fetch_max_wait,
                    ),
                    cfg.frame_overhead_bytes,
                )
            except (MessageLost, ChannelClosed) as exc:
                session.pending.pop(corr, None)
                if not recover:
                    self._loops[broker] = False
                    return
                if isinstance(exc, ChannelClosed):
                    self._drop_session(broker)
                self.fetch_retries += 1
                yield self.sim.timeout(backoff)
                backoff = min(backoff * 2.0, cfg.consumer_retry_max)
                continue
            self.fetches_issued += 1
            if recover:
                try:
                    batches = yield from self.sim.wait_for(
                        response, cfg.fetch_max_wait + cfg.fetch_response_grace
                    )
                except TimedOut:
                    # Response lost or broker stalled: re-issue from the
                    # same positions (a late response is dropped harmlessly).
                    session.pending.pop(corr, None)
                    self.fetch_timeouts += 1
                    continue
            else:
                batches = yield response
            if batches is None:
                # Session died while we were parked (reader saw EOF).
                if not recover:
                    self._loops[broker] = False
                    return
                self._drop_session(broker)
                self.reconnects += 1
                yield self.sim.timeout(backoff)
                backoff = min(backoff * 2.0, cfg.consumer_retry_max)
                continue
            backoff = cfg.consumer_retry_backoff
            yield from self._deliver(batches, offsets)
        del self._loops[broker]

    def _deliver(
        self, batches: dict, requested: dict[int, int]
    ) -> Generator[Any, Any, None]:
        """Consume a response's batches and advance their positions."""
        t_arrived = self.sim.now
        for partition, (records, next_offset, _hwm) in batches.items():
            # Only a batch that starts at the current position is consumed:
            # one for a partition a rebalance assigned away, or a second
            # fetch of it across a leader move, is dropped.
            if (
                self.closed
                or partition in self._delivering
                or self.positions.get(partition) != requested[partition]
            ):
                continue
            self._delivering.add(partition)
            for _offset, value in records:
                yield from self.node.execute(self.config.consumer_record_cpu)
                self.records_consumed += 1
                if self.on_record is not None:
                    self.on_record(value, t_arrived)
            self._delivering.discard(partition)
            if partition in self.positions:
                self.positions[partition] = next_offset

    def _session_for(self, broker: str) -> Generator[Any, Any, _BrokerSession]:
        session = self._sessions.get(broker)
        if session is not None:
            if not (self.config.consumer_recovery and session.channel.closed):
                return session
            # Stale session from before a broker crash: rebuild it.
            self._drop_session(broker)
        channel = yield from self.deployment.connect_to_broker(self.node, broker)
        session = self._sessions[broker] = _BrokerSession(channel)
        self.sim.process(
            self._response_reader(session), name=f"{self.name}.responses"
        )
        return session

    def _drop_session(self, broker: str) -> None:
        """Forget a dead broker session so the next fetch reconnects."""
        session = self._sessions.pop(broker, None)
        if session is not None and not session.channel.closed:
            session.channel.close()

    def _response_reader(
        self, session: _BrokerSession
    ) -> Generator[Any, Any, None]:
        while not self.closed:
            delivery = yield session.channel.receive()
            if delivery.payload is EOF:
                # ``None`` tells a parked fetch loop the session is gone —
                # it reconnects (recovery) or gives up (legacy).
                for event in session.pending.values():
                    if not event.triggered:
                        event.succeed(None)
                session.pending.clear()
                return
            frame = delivery.payload
            if frame[0] != "fetch_resp":  # pragma: no cover - protocol guard
                continue
            yield from self.node.execute(
                session.channel.cost_model.recv_cost(delivery.nbytes)
            )
            event = session.pending.pop(frame[1], None)
            if event is not None:
                event.succeed(frame[2])

    # ---------------------------------------------------------------- commits
    def _commit_loop(self) -> Generator[Any, Any, None]:
        while not self.closed:
            yield self.sim.timeout(self.config.auto_commit_interval)
            if self.closed or self._coord is None or not self.positions:
                continue
            try:
                yield from self._coord.send(
                    ("commit", self.group, self.name, self.topic,
                     dict(self.positions), self.generation),
                    self.config.control_bytes,
                )
            except (MessageLost, ChannelClosed):
                if not self.config.consumer_recovery:
                    return
                # Keep the loop alive: commits resume once the coordinator
                # is reachable again (missed commits just widen replay).

    # ------------------------------------------------------------------ admin
    @property
    def connections(self) -> int:
        """Open channels: the coordinator's plus one per broker session."""
        if self.closed:
            return 0
        return (self._coord is not None) + len(self._sessions)

    def close(self) -> None:
        self.closed = True
        if self._coord is not None and not self._coord.closed:
            self._coord.close()
        for session in self._sessions.values():
            if not session.channel.closed:
                session.channel.close()
