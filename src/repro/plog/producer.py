"""The publishing client: per-partition batching, linger, acks.

A producer keys every record (the grid generator's id), hashes the key to
a partition, and appends the record to that partition's *batch*.  A batch
is flushed when it reaches ``batch_max_records``/``batch_max_bytes`` or
``linger`` seconds after its first record — so at the grid workload's one
message per 1.5 s per generator, a dedicated producer degenerates to
batches of one after a 50 ms linger, while shared producers (many
generators per process) amortise the request cost exactly the way the
paper's "quantity of messages is the dominant overhead" observation
predicts.

With ``acks=1`` the producer stamps a record's ``t_after_send`` when the
broker's append acknowledgement arrives — the plog analogue of Narada's
publish round-trip (PRT).  With ``acks=0`` the stamp lands as soon as the
bytes are in the socket buffer.

Recovery (``config.producer_retry.enabled``): a batch whose send fails, or
whose acknowledgement does not arrive within ``produce_ack_timeout``, is
retried with exponential backoff; a dead channel is reconnected first, and
with ``config.failover`` the reconnect reroutes the batch to a partition on
a surviving broker.  Retries give at-least-once semantics — an ack lost
after a successful append yields a duplicate append, which the recording
receiver deduplicates — so loss under a fault window converges to zero
instead of accumulating in ``send_failures``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.faults.recovery import RttEstimator
from repro.plog.config import PlogConfig
from repro.plog.partitioner import partition_for
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


@dataclass
class _PendingRecord:
    key: Any
    value: Any
    nbytes: float
    #: Optional :class:`repro.core.records.MessageRecord` to stamp.
    record: Any = None


@dataclass
class _PendingAck:
    """Records awaiting a produce_ack, plus (retry mode only) the event the
    flusher parks on.  ``event`` stays ``None`` in legacy one-shot mode so
    the no-fault schedule is untouched."""

    records: list[_PendingRecord]
    event: Any = None
    channel: Optional[Channel] = None


@dataclass
class _Batch:
    records: list[_PendingRecord] = field(default_factory=list)
    nbytes: float = 0.0
    #: Epoch at the time of the first append; the linger timer only fires
    #: for the epoch it was armed with (a size-triggered flush bumps it).
    epoch: int = 0


class PlogProducer:
    """One publishing client bound to a deployment."""

    def __init__(
        self,
        sim: "Simulator",
        deployment: "PlogDeployment",
        node: "Node",
        name: str,
        config: Optional[PlogConfig] = None,
    ):
        self.sim = sim
        self.deployment = deployment
        self.node = node
        self.name = name
        self.config = config or deployment.config
        #: partition -> open channel to the owning broker.
        self._channels: dict[int, Channel] = {}
        self._batches: dict[tuple[str, int], _Batch] = {}
        self._epochs: dict[tuple[str, int], int] = {}
        self._corr = 0
        #: corr id -> records awaiting a produce_ack.
        self._pending_acks: dict[int, _PendingAck] = {}
        #: logical partition -> partition actually routed to (failover).
        self._routes: dict[int, int] = {}
        #: Per-partition count of in-flight (spawned, unfinished) flushes,
        #: bounded by ``config.max_in_flight``.
        self._inflight: dict[tuple[str, int], int] = {}
        #: Batches waiting for a window slot, FIFO per partition.
        self._flush_queue: dict[tuple[str, int], deque] = {}
        #: Idempotence: next base sequence per (topic, partition).  The
        #: producer id is the producer's name; together with these the
        #: broker recognises a retried batch and re-acks instead of
        #: re-appending.
        self._seqs: dict[tuple[str, int], int] = {}
        #: Ack-RTT estimator driving adaptive retry timing (Karn-sampled:
        #: only first-attempt round trips are observed).
        self._rtt: Optional[RttEstimator] = (
            RttEstimator(initial_rto=self.config.produce_ack_timeout)
            if self.config.producer_retry.adaptive
            else None
        )
        self.records_sent = 0
        self.batches_sent = 0
        self.acks_received = 0
        self.send_failures = 0
        self.retries = 0
        self.reconnects = 0
        #: Batches that waited client-side for an in-flight window slot.
        self.batches_windowed = 0
        #: ``produce_err`` responses (leadership moved / ISR too small).
        self.produce_errors = 0
        self.closed = False

    # ------------------------------------------------------------ connecting
    def connect_for(self, topic: str, key: Any) -> Generator[Any, Any, int]:
        """Ensure a channel to the broker owning ``key``'s partition.

        Returns the partition.  Raises
        :class:`~repro.transport.base.TransportError` /
        :class:`~repro.transport.base.ChannelClosed` when the broker
        refuses the connection (e.g. out of memory) — callers count that
        as a refused client, exactly like the Narada fleet.
        """
        partition = partition_for(key, self.deployment.n_partitions)
        if partition not in self._channels:
            yield from self._open_channel(partition)
        return partition

    def _open_channel(
        self, partition: int
    ) -> Generator[Any, Any, Channel]:
        """(Re)connect ``partition``'s channel; with failover, reroute to a
        partition owned by a surviving broker first."""
        actual = partition
        if self.config.failover:
            actual = self.deployment.live_partition(partition)
        self._routes[partition] = actual
        channel = yield from self.deployment.connect(self.node, actual)
        self._channels[partition] = channel
        if self.config.acks:
            self.sim.process(
                self._ack_reader(channel), name=f"{self.name}.acks"
            )
        return channel

    # --------------------------------------------------------------- sending
    def send(
        self,
        topic: str,
        key: Any,
        value: Any,
        nbytes: float,
        record: Any = None,
    ) -> None:
        """Append one record to its partition batch (non-blocking).

        ``connect_for`` must have been called for ``key`` first.
        """
        if self.closed:
            raise ChannelClosed(f"producer {self.name} is closed")
        partition = partition_for(key, self.deployment.n_partitions)
        if partition not in self._channels:
            raise ChannelClosed(
                f"producer {self.name} has no channel for partition {partition}"
            )
        bkey = (topic, partition)
        batch = self._batches.get(bkey)
        if batch is None:
            batch = _Batch(epoch=self._epochs.get(bkey, 0))
            self._batches[bkey] = batch
            self.sim.call_at(
                self.sim.now + self.config.linger,
                lambda: self._linger_fired(bkey, batch.epoch),
            )
        batch.records.append(_PendingRecord(key, value, nbytes, record))
        batch.nbytes += nbytes
        if (
            len(batch.records) >= self.config.batch_max_records
            or batch.nbytes >= self.config.batch_max_bytes
        ):
            self._start_flush(bkey)

    def _linger_fired(self, bkey: tuple[str, int], epoch: int) -> None:
        if self._epochs.get(bkey, 0) != epoch:
            return  # that batch already flushed on size
        self._start_flush(bkey)

    def _start_flush(self, bkey: tuple[str, int]) -> None:
        batch = self._batches.pop(bkey, None)
        if batch is None or not batch.records:
            return
        self._epochs[bkey] = self._epochs.get(bkey, 0) + 1
        # Idempotence requires strict per-partition send order (the broker
        # tracks contiguous sequence runs), so the window clamps to one.
        window = 1 if self.config.idempotent else self.config.max_in_flight
        if window and self._inflight.get(bkey, 0) >= window:
            # Window full (some in-flight batch is slow or retrying): queue
            # client-side.  The batch keeps its slot in FIFO order, so a
            # single stuck batch head-of-line-blocks at most this
            # partition's window — not the producer's whole send path.
            self._flush_queue.setdefault(bkey, deque()).append(batch)
            self.batches_windowed += 1
            return
        self._launch_flush(bkey, batch)

    def _launch_flush(self, bkey: tuple[str, int], batch: "_Batch") -> None:
        self._inflight[bkey] = self._inflight.get(bkey, 0) + 1
        self.sim.process(
            self._flush_slot(bkey, batch), name=f"{self.name}.flush"
        )

    def _flush_slot(
        self, bkey: tuple[str, int], batch: "_Batch"
    ) -> Generator[Any, Any, None]:
        try:
            yield from self._flush(bkey, batch)
        finally:
            self._inflight[bkey] -= 1
            queue = self._flush_queue.get(bkey)
            if queue:
                self._launch_flush(bkey, queue.popleft())

    def _flush(
        self, bkey: tuple[str, int], batch: _Batch
    ) -> Generator[Any, Any, None]:
        topic, partition = bkey
        policy = self.config.producer_retry
        acks = self.config.acks
        wire_batch = [(r.key, r.value, r.nbytes) for r in batch.records]
        nbytes = (
            batch.nbytes
            + self.config.frame_overhead_bytes
            + self.config.batch_overhead_bytes
        )
        seq_base: Optional[int] = None
        if self.config.idempotent:
            # The base sequence is claimed once per batch and pinned across
            # retries — that is the whole point: the broker recognises the
            # retry as the same batch.
            seq_base = self._seqs.get(bkey, 0)
            self._seqs[bkey] = seq_base + len(batch.records)
        attempt = 0
        while True:
            attempt += 1
            channel = self._channels.get(partition)
            if policy.enabled and (channel is None or channel.closed):
                try:
                    channel = yield from self._open_channel(partition)
                    self.reconnects += 1
                except (TransportError, ChannelClosed):
                    channel = None
            corr = 0
            ack_event = None
            sent = False
            if channel is not None:
                self._corr += 1
                corr = self._corr
                if acks:
                    if policy.enabled:
                        ack_event = self.sim.event()
                    self._pending_acks[corr] = _PendingAck(
                        batch.records, ack_event, channel
                    )
                target = self._routes.get(partition, partition)
                attempt_started = self.sim.now
                if seq_base is None:
                    frame = ("produce", corr, topic, target, wire_batch, acks)
                else:
                    frame = (
                        "produce", corr, topic, target, wire_batch, acks,
                        self.name, seq_base,
                    )
                try:
                    yield from channel.send(frame, nbytes)
                    sent = True
                except (MessageLost, ChannelClosed):
                    self._pending_acks.pop(corr, None)
            if sent:
                if not acks:
                    # Fire-and-forget: the round trip ends at the socket.
                    self.batches_sent += 1
                    self.records_sent += len(batch.records)
                    for pending in batch.records:
                        if pending.record is not None:
                            pending.record.t_after_send = self.sim.now
                            pending.record.mark(
                                "published", self.sim.now, "plog", self.name
                            )
                    return
                if not policy.enabled:
                    # Legacy one-shot: the ack reader stamps records later.
                    self.batches_sent += 1
                    self.records_sent += len(batch.records)
                    return
                ack_timeout = self.config.produce_ack_timeout
                if self._rtt is not None:
                    ack_timeout = self._rtt.rto
                # The timeout clock starts when the request is handed to
                # the transport: ``channel.send`` blocks for the one-way
                # transit, so the deadline covers what is *left* of the
                # round-trip budget, not a fresh window after delivery.
                elapsed = self.sim.now - attempt_started
                try:
                    acked = yield from self.sim.wait_for(
                        ack_event, max(ack_timeout - elapsed, 1e-3)
                    )
                except TimedOut:
                    acked = None
                if acked:
                    if self._rtt is not None and attempt == 1:
                        # Karn's rule: only unambiguous (first-attempt)
                        # round trips feed the estimator.
                        self._rtt.observe(self.sim.now - attempt_started)
                    self.batches_sent += 1
                    self.records_sent += len(batch.records)
                    return
                # Timed out or the channel died: retry the whole batch.
                # If the append actually landed and only the ack was lost,
                # the retry makes a duplicate — at-least-once by design,
                # unless ``config.idempotent`` pinned a sequence on the
                # batch, in which case the broker absorbs the retry and
                # re-acks (exactly-once appends).
                if self._rtt is not None and acked is None:
                    # Genuine timeout (not a channel death): back the RTO
                    # off — Karn's rule gives the estimator no sample while
                    # first attempts keep timing out, so this is the only
                    # way it climbs out of a latency step.
                    self._rtt.backoff()
                self._pending_acks.pop(corr, None)
            if not policy.enabled or attempt > policy.retries:
                self.send_failures += len(batch.records)
                return
            self.retries += 1
            yield self.sim.timeout(
                policy.delay(
                    attempt, self.sim, f"plog.retry.{self.name}",
                    rto=self._rtt.rto if self._rtt is not None else None,
                )
            )

    def _ack_reader(self, channel: Channel) -> Generator[Any, Any, None]:
        while not self.closed:
            delivery = yield channel.receive()
            if delivery.payload is EOF:
                # Channel died: fail this channel's in-flight batches so
                # their flushers stop waiting and retry over a new channel.
                for corr in [
                    c
                    for c, p in self._pending_acks.items()
                    if p.channel is channel
                ]:
                    pending = self._pending_acks.pop(corr)
                    if pending.event is not None and not pending.event.triggered:
                        pending.event.succeed(False)
                return
            frame = delivery.payload
            if frame[0] == "produce_err":
                self.produce_errors += 1
                pending = self._pending_acks.pop(frame[1], None)
                if pending is not None and pending.event is not None:
                    if not pending.event.triggered:
                        pending.event.succeed(False)
                if frame[2] == "not_leader" and not channel.closed:
                    # Leadership moved: drop the channel so retries
                    # reconnect via the deployment's refreshed leader map
                    # (the EOF also fails this channel's other in-flight
                    # batches, sending them down the same path).
                    channel.close()
                continue
            if frame[0] != "produce_ack":  # pragma: no cover - protocol guard
                continue
            self.acks_received += 1
            pending = self._pending_acks.pop(frame[1], None)
            if pending is None:
                continue
            for record in pending.records:
                if record.record is not None:
                    record.record.t_after_send = self.sim.now
                    record.record.mark(
                        "published", self.sim.now, "plog", self.name
                    )
            if pending.event is not None and not pending.event.triggered:
                pending.event.succeed(True)

    # ----------------------------------------------------------------- admin
    def flush(self) -> Generator[Any, Any, None]:
        """Drain lingering batches and in-flight requests (close barrier).

        Kafka's ``close()`` flushes before tearing channels down; without
        this a record sent within ``linger`` of the producer's shutdown is
        silently dropped.  Bounded by the retry policy: exhausted flushes
        count as ``send_failures`` and release their window slot.
        """
        for bkey in list(self._batches):
            self._start_flush(bkey)
        poll = max(self.config.linger, 0.001)
        while any(self._inflight.values()) or any(self._flush_queue.values()):
            yield self.sim.timeout(poll)

    def close(self) -> None:
        self.closed = True
        for channel in self._channels.values():
            channel.close()
        self._channels.clear()
