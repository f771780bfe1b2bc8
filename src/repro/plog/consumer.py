"""The fetching client: group membership, long-poll fetch loops, commits.

A consumer joins a group at the coordinator and waits to be *assigned*
partitions; it never picks them itself.  Per assigned partition it runs a
sequential fetch loop — one request in flight, the next issued only after
the previous response is fully processed — which is the pull-based
backpressure that distinguishes this design from Narada's push delivery:
a slow consumer lags in offsets instead of ballooning broker heap.

Responses multiplex over one channel per broker; a reader process
dispatches them to the waiting fetch loop by correlation id.  Rebalances
bump the assignment *generation*; fetch loops from stale generations
terminate at their next wakeup, and committed offsets let the new owner
resume where the old one stopped (at-least-once delivery — the record
stamping in :mod:`repro.powergrid.receiver` guards against counting
redelivered records twice).
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
    #: None while the owning fetch loop is still connecting.
    channel: Optional[Channel]
    #: Triggered once ``channel`` is usable (or failed on connect error).
    ready: Any
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
        #: broker name -> session (shared by that broker's partitions).
        self._sessions: dict[str, _BrokerSession] = {}
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
            # Spawn a fresh loop for *every* assigned partition: loops from
            # the previous generation terminate at their next wakeup (stale
            # generation check), including for partitions we retained.
            self.sim.process(
                self._fetch_loop(partition, generation),
                name=f"{self.name}.fetch.p{partition}",
            )
        for partition in previous - set(partitions):
            self.positions.pop(partition, None)

    # ---------------------------------------------------------------- fetching
    def _fetch_loop(
        self, partition: int, generation: int
    ) -> Generator[Any, Any, None]:
        cfg = self.config
        recover = cfg.consumer_recovery
        backoff = cfg.consumer_retry_backoff
        while not self.closed and self.generation == generation:
            offset = self.positions.get(partition)
            if offset is None:
                return  # partition was reassigned away
            try:
                session = yield from self._session_for(partition)
            except (TransportError, MessageLost):
                if not recover:
                    return
                # Broker down: keep knocking — the log is durable, so the
                # loop resumes at its committed offset once it is back.
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
                        partition,
                        offset,
                        cfg.fetch_max_records,
                        cfg.fetch_max_wait,
                    ),
                    cfg.frame_overhead_bytes,
                )
            except (MessageLost, ChannelClosed) as exc:
                session.pending.pop(corr, None)
                if not recover:
                    return
                if isinstance(exc, ChannelClosed):
                    self._drop_session(session)
                self.fetch_retries += 1
                yield self.sim.timeout(backoff)
                backoff = min(backoff * 2.0, cfg.consumer_retry_max)
                continue
            self.fetches_issued += 1
            if recover:
                try:
                    result = yield from self.sim.wait_for(
                        response, cfg.fetch_max_wait + cfg.fetch_response_grace
                    )
                except TimedOut:
                    # Response lost or broker stalled: re-issue from the
                    # same offset (a late response is dropped harmlessly).
                    session.pending.pop(corr, None)
                    self.fetch_timeouts += 1
                    continue
            else:
                result = yield response
            if result is None:
                # Session died while we were parked (reader saw EOF).
                if not recover:
                    return
                self._drop_session(session)
                self.reconnects += 1
                yield self.sim.timeout(backoff)
                backoff = min(backoff * 2.0, cfg.consumer_retry_max)
                continue
            backoff = cfg.consumer_retry_backoff
            records, next_offset, _hwm = result
            t_arrived = self.sim.now
            if self.closed or self.generation != generation:
                return  # stale: do not advance offsets past a rebalance
            for _offset, value in records:
                yield from self.node.execute(cfg.consumer_record_cpu)
                self.records_consumed += 1
                if self.on_record is not None:
                    self.on_record(value, t_arrived)
            if partition in self.positions:
                self.positions[partition] = next_offset

    def _session_for(
        self, partition: int
    ) -> Generator[Any, Any, _BrokerSession]:
        broker_name = self.deployment.owner_name(partition)
        session = self._sessions.get(broker_name)
        if (
            session is not None
            and self.config.consumer_recovery
            and session.channel is not None
            and session.channel.closed
        ):
            # Stale session from before a broker crash: rebuild it.
            self._drop_session(session)
            session = None
        if session is not None:
            # Another fetch loop owns the connect; wait until it is usable.
            if session.channel is None:
                yield session.ready
            if session.channel is None:
                raise ChannelClosed(f"connect to {broker_name} failed")
            return session
        # Reserve the slot *before* yielding so concurrent fetch loops for
        # partitions on the same broker share one connection.
        session = _BrokerSession(None, self.sim.event())
        self._sessions[broker_name] = session
        try:
            channel = yield from self.deployment.connect(self.node, partition)
        except (TransportError, MessageLost):
            del self._sessions[broker_name]
            session.ready.succeed()
            raise
        session.channel = channel
        session.ready.succeed()
        self.sim.process(
            self._response_reader(session), name=f"{self.name}.responses"
        )
        return session

    def _drop_session(self, session: _BrokerSession) -> None:
        """Forget a dead broker session so the next fetch reconnects."""
        for name, existing in list(self._sessions.items()):
            if existing is session:
                del self._sessions[name]
        if session.channel is not None and not session.channel.closed:
            session.channel.close()

    def _response_reader(
        self, session: _BrokerSession
    ) -> Generator[Any, Any, None]:
        while not self.closed:
            delivery = yield session.channel.receive()
            if delivery.payload is EOF:
                # ``None`` tells parked fetch loops the session is gone —
                # they reconnect (recovery) or terminate (legacy).
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
                event.succeed((frame[2], frame[3], frame[4]))

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
    def close(self) -> None:
        self.closed = True
        if self._coord is not None and not self._coord.closed:
            self._coord.close()
        for session in self._sessions.values():
            if session.channel is not None and not session.channel.closed:
                session.channel.close()
