"""The partitioned-log broker.

The architectural contrast with :class:`repro.narada.Broker` is the whole
point of this subsystem:

* **no thread per connection** — every channel delivers into one shared
  request queue served by a fixed pool of I/O threads, so connection count
  costs heap (socket/session state) but not native thread stacks.  The
  Narada wall at ~3600 threads simply does not exist here; the analogous
  wall is heap-bound at ~20k connections;
* **no per-subscriber routing work** — a produce request appends a batch to
  one partition log (sequential write, byte-oriented cost) and a fetch
  ships a contiguous offset range.  Per-message broker CPU is amortised by
  batching on both sides;
* **pull, not push** — consumers long-poll: a fetch session with no
  available data parks (without holding an I/O thread) until an append to
  any of its partitions wakes it or ``fetch_max_wait`` expires.

Wire protocol (tuples over a transport channel):

==========================================================  ==============
``("produce", corr, topic, part, batch, acks)``             client → broker
``("produce", corr, topic, part, batch, acks,``
``  pid, seq_base)``                                        idempotent form
``("produce_ack", corr, base_offset)``                      broker → client
``("fetch", corr, topic, {part: offset}, max_n,``
``  max_wait)``                                             client → broker
``("fetch_resp", corr, {part: (records,``
``  next_offset, hwm)})``                                   broker → client
``("join", group, member, topic)``                          client → coord
``("leave", group, member)``                                client → coord
``("commit", group, member, topic, {part: offset},``
``  generation)``                                           client → coord
``("assign", group, generation, parts, offsets)``           coord → client
==========================================================  ==============

``batch`` is ``[(key, value, nbytes), ...]``; fetch-response ``records``
is ``[(offset, value), ...]``.  A fetch is a *session* with one broker: it
names every partition the consumer reads there, ``max_n`` caps each
partition's batch, and the response carries an entry only for the
partitions whose position moved.  An empty session parks until any of its
partitions has data or ``max_wait`` passes, and one response pays one
``request_cpu`` however many partitions it carries (Kafka's FetchRequest).

Replication (``replication_factor > 1``) adds three frames:

==========================================================  ==============
``("rfetch", corr, {(topic, part): offset}, max_n,``
``  max_wait, follower)``                                   follower → leader
``("rfetch_resp", corr, {(topic, part): (records4,``
``  leader_end, hwm, epoch, producer_snapshot)})``          leader → follower
``("produce_err", corr, reason)``                           broker → client
==========================================================  ==============

``records4`` is ``[(offset, key, value, nbytes), ...]`` — a replica fetch
ships full records so the follower's log is byte-identical.  It is a
session too: one per (follower, leader) pair, naming every partition the
follower replicates from that leader, answered with an entry for each of
those the broker still leads.  A replica fetch at offset ``N``
acknowledges everything below ``N``; the leader's high watermark is the
``min`` over the ISR's acknowledged ends, consumers only read below it, and
``acks=-1`` produce responses park until it passes the batch.
``produce_err`` reasons: ``not_leader`` (an election moved the partition —
reconnect via the deployment's leader map) and ``not_enough_replicas``
(ISR below ``min_insync_replicas``).

Every response is handed to a transient sender process instead of being
sent inline from the I/O thread (``_send_async``).  This mirrors Kafka's
network/request-handler thread split and matters under loss: with an
acked datagram transport, an inline response send head-of-line-blocks an
I/O thread for up to the full retransmission budget, and four blocked
threads are a collapsed broker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.cluster.jvm import OutOfMemoryError
from repro.cluster.server import JvmServer
from repro.plog.config import ACKS_ALL, PlogConfig
from repro.plog.idempotence import PartitionProducerState
from repro.plog.log import PartitionLog
from repro.plog.replication import PartitionState, ReplicaProgress
from repro.sim import Store
from repro.transport.base import EOF, Channel, ChannelClosed, MessageLost

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.plog.group import GroupCoordinator
    from repro.sim.kernel import Simulator


@dataclass
class PlogBrokerStats:
    """Counters the experiments read off."""

    connections_accepted: int = 0
    connections_refused: int = 0
    produce_batches: int = 0
    records_appended: int = 0
    records_dropped: int = 0
    fetches: int = 0
    empty_fetches: int = 0
    records_fetched: int = 0
    long_polls_parked: int = 0
    #: Produce requests bounced with ``produce_err`` (not the leader, or
    #: ISR below ``min_insync_replicas``).
    produce_rejects: int = 0
    #: Replica-fetch requests served as leader.
    replica_fetches: int = 0
    #: Records appended via replica fetch (this broker as follower).
    records_replicated: int = 0
    isr_shrinks: int = 0
    isr_expands: int = 0
    #: Idempotent-producer retries recognised and absorbed (re-acked
    #: without a second append).
    duplicate_batches: int = 0
    duplicate_records: int = 0


@dataclass(eq=False)
class _FetchWaiter:
    """A parked long-poll fetch session, indexed under each of its
    partitions and answered once, by the first of them to get data."""

    channel: Channel
    corr: int
    #: (topic, partition) -> offset the session fetches from.
    offsets: dict[tuple[str, int], int]
    max_records: int
    active: bool = True
    #: Follower name when this is a parked replica fetch (woken by appends,
    #: not by high-watermark advances).
    replica: Optional[str] = None
    #: The ``max_wait`` timer; cancelled once the fetch is answered or its
    #: connection closes.
    expiry: Any = field(repr=False, default=None)


class PlogBroker(JvmServer):
    """One broker instance owning a subset of a topic's partitions."""

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        name: str,
        config: Optional[PlogConfig] = None,
    ):
        super().__init__(sim, node, name, config or PlogConfig(), PlogBrokerStats())
        self.logs: dict[tuple[str, int], PartitionLog] = {}
        #: Replication state per hosted partition (leader or follower).
        self.states: dict[tuple[str, int], PartitionState] = {}
        #: Idempotent-producer dedup state per hosted partition.  Updated
        #: at append time on the leader, merged from replica-fetch
        #: snapshots on followers, and — like the logs — durable across
        #: ``crash()``/``restart()``.
        self.producer_states: dict[tuple[str, int], PartitionProducerState] = {}
        #: Parked sessions by partition; a session sits in the list of each
        #: of its partitions until it is answered.
        self._waiters: dict[tuple[str, int], list[_FetchWaiter]] = {}
        #: Parked sessions, each counted once.
        self._parked = 0
        self._requests: Store = Store(sim)
        self._io_started = False
        self._isr_scan_started = False
        self.coordinator: Optional["GroupCoordinator"] = None
        #: Controller callback fired on every ISR change of a led partition
        #: (the stand-in for a metadata-store write).
        self.isr_listener: Optional[Any] = None
        #: Deployment callback fired with a leader's name when this broker
        #: starts following it, so a replica-fetch session to it runs.
        self.follow_listener: Optional[Any] = None

    # ------------------------------------------------------------ partitions
    def create_partition(
        self,
        topic: str,
        partition: int,
        replicas: Optional[tuple[str, ...]] = None,
        leader: Optional[str] = None,
    ) -> PartitionLog:
        key = (topic, partition)
        if key in self.logs:
            raise ValueError(f"partition {key} already exists on {self.name}")
        log = PartitionLog(
            segment_max_bytes=self.config.segment_max_bytes,
            retention_bytes=self.config.retention_bytes,
            record_overhead_bytes=self.config.per_record_overhead_bytes,
        )
        self.logs[key] = log
        replicas = replicas if replicas is not None else (self.name,)
        leader = leader if leader is not None else replicas[0]
        state = PartitionState(topic, partition, replicas, leader)
        if leader == self.name:
            # Kafka starts with the full replica set in sync (everything is
            # empty), so acks=all is meaningful from the first append.
            for follower in replicas:
                if follower != self.name:
                    state.progress[follower] = ReplicaProgress(in_isr=True)
        self.states[key] = state
        return log

    # --------------------------------------------------------------- serving
    def serve(self, transport: Any, port: int) -> None:
        """Accept client connections on ``transport``/``port``."""
        self._start_io_pool()
        if not self._isr_scan_started and any(
            state.replicated for state in self.states.values()
        ):
            self._isr_scan_started = True
            self.sim.process(self._isr_scan(), name=f"{self.name}.isr-scan")
        super().serve(transport, port)

    def _start_io_pool(self) -> None:
        if not self._io_started:
            self._io_started = True
            for i in range(self.config.io_threads):
                self.jvm.spawn_thread(self._io_loop(), name=f"{self.name}.io{i}")

    def _serve_channel(self, channel: Channel) -> None:
        """No thread per connection: deliveries feed the shared I/O pool."""
        channel.on_deliver = lambda d: self._requests.put_nowait((channel, d))

    def _io_loop(self) -> Generator[Any, Any, None]:
        """One worker of the shared I/O pool."""
        while self.alive:
            channel, delivery = yield self._requests.get()
            if delivery.payload is EOF:
                self._disconnected(channel)
                continue
            yield from self.node.execute(
                channel.cost_model.recv_cost(delivery.nbytes)
            )
            yield from self._handle(channel, delivery.payload)

    def _on_channel_closed(self, channel: Channel) -> None:
        for waiter in self._parked_waiters():
            if waiter.channel is channel or waiter.channel is channel.peer:
                self._unpark(waiter)
        if self.coordinator is not None:
            self.coordinator.on_disconnect(channel)

    # -------------------------------------------------------------- protocol
    def _handle(self, channel: Channel, frame: tuple) -> Generator[Any, Any, None]:
        kind = frame[0]
        if kind == "produce":
            # Idempotent producers append (pid, base sequence) to the frame.
            if len(frame) == 6:
                _, corr, topic, partition, batch, acks = frame
                pid = seq_base = None
            else:
                _, corr, topic, partition, batch, acks, pid, seq_base = frame
            yield from self._on_produce(
                channel, corr, topic, partition, batch, acks, pid, seq_base
            )
        elif kind == "fetch":
            _, corr, topic, offsets, max_records, max_wait = frame
            yield from self._on_fetch(
                channel, corr, topic, offsets, max_records, max_wait
            )
        elif kind == "rfetch":
            _, corr, offsets, max_records, max_wait, follower = frame
            yield from self._on_replica_fetch(
                channel, corr, offsets, max_records, max_wait, follower
            )
        elif kind in ("join", "leave", "commit"):
            if self.coordinator is None:
                raise ValueError(f"broker {self.name} is not the coordinator")
            yield from self.node.execute(self.config.group_request_cpu)
            self.coordinator.handle(channel, frame)
        else:
            raise ValueError(f"unknown frame kind {frame[0]!r}")

    # --------------------------------------------------------------- produce
    def _on_produce(
        self,
        channel: Channel,
        corr: int,
        topic: str,
        partition: int,
        batch: list,
        acks: int,
        pid: Optional[str] = None,
        seq_base: Optional[int] = None,
    ) -> Generator[Any, Any, None]:
        key = (topic, partition)
        log = self.logs[key]
        state = self.states.get(key)
        if state is not None and state.leader != self.name:
            # An election moved leadership: bounce the request so the
            # producer reconnects via the deployment's refreshed leader map.
            self.stats.produce_rejects += 1
            yield from self.node.execute(self.config.request_cpu)
            if acks:
                self._send_async(
                    channel, ("produce_err", corr, "not_leader"),
                    self.config.control_bytes,
                )
            return
        if (
            acks == ACKS_ALL
            and state is not None
            and state.replicated
            and state.isr_size < self.config.min_insync_replicas
        ):
            self.stats.produce_rejects += 1
            yield from self.node.execute(self.config.request_cpu)
            self._send_async(
                channel, ("produce_err", corr, "not_enough_replicas"),
                self.config.control_bytes,
            )
            return
        pstate: Optional[PartitionProducerState] = None
        if pid is not None and seq_base is not None:
            pstate = self.producer_states.setdefault(
                key, PartitionProducerState()
            )
            dup = pstate.duplicate(pid, seq_base, len(batch))
            if dup is not None:
                # A retry of a batch already in the log: absorb it and
                # re-acknowledge — the producer's retry loop cannot tell a
                # fresh ack from a replayed one, which is the point.
                self.stats.duplicate_batches += 1
                self.stats.duplicate_records += len(batch)
                yield from self.node.execute(self.config.request_cpu)
                if not acks:
                    return
                required, dup_offset = dup
                if (
                    acks == ACKS_ALL
                    and state is not None
                    and state.replicated
                    and state.hwm < required
                ):
                    # The original append may still be awaiting replication:
                    # the re-ack parks on the same high-watermark condition,
                    # or an ack could claim durability the ISR doesn't have.
                    state.pending_acks.append((required, channel, corr, dup_offset))
                    return
                self._send_async(
                    channel, ("produce_ack", corr, dup_offset),
                    self.config.control_bytes,
                )
                return
        payload_bytes = sum(nbytes for _, _, nbytes in batch)
        stored_bytes = payload_bytes + self.config.per_record_overhead_bytes * len(batch)
        yield from self.node.execute(self.config.append_cpu(len(batch), payload_bytes))
        try:
            self.jvm.alloc(stored_bytes, "log append")
        except OutOfMemoryError:
            self.stats.records_dropped += len(batch)
            return
        result = log.append(batch)
        if result.evicted_bytes:
            self.jvm.free(result.evicted_bytes)
        if pstate is not None:
            pstate.record(pid, seq_base, len(batch), result.base_offset)
        self.stats.produce_batches += 1
        self.stats.records_appended += len(batch)
        for _, value, _ in batch:
            record = getattr(value, "_record", None)
            if record is not None:
                record.mark("broker_in", self.sim.now, "plog", self.name)
        if state is not None and state.replicated:
            # New data for parked replica fetches (they wake on the end
            # offset, consumers only on the high watermark).
            self._wake_fetchers(topic, partition, replica=True)
        self._advance_hwm(key)
        if not acks:
            return
        required = result.base_offset + len(batch)
        if (
            acks == ACKS_ALL
            and state is not None
            and state.replicated
            and state.hwm < required
        ):
            # acks=all: the response parks until every in-sync replica has
            # the batch (the high watermark passes its last offset).
            state.pending_acks.append((required, channel, corr, result.base_offset))
            return
        self._send_async(
            channel, ("produce_ack", corr, result.base_offset),
            self.config.control_bytes,
        )

    # ----------------------------------------------------------------- fetch
    def _on_fetch(
        self,
        channel: Channel,
        corr: int,
        topic: str,
        offsets: dict[int, int],
        max_records: int,
        max_wait: float,
    ) -> Generator[Any, Any, None]:
        keyed = {(topic, partition): offset for partition, offset in offsets.items()}
        if max_wait <= 0 or any(
            self._readable_end(key) > offset for key, offset in keyed.items()
        ):
            yield from self._respond_fetch(channel, corr, keyed, max_records)
            return
        # Long poll: park without holding an I/O thread.
        self._park(_FetchWaiter(channel, corr, keyed, max_records), max_wait)

    def _park(self, waiter: _FetchWaiter, max_wait: float) -> None:
        waiter.expiry = self.sim.call_at(
            self.sim.now + max_wait, lambda: self._expire_waiter(waiter)
        )
        for key in waiter.offsets:
            self._waiters.setdefault(key, []).append(waiter)
        self._parked += 1
        self.stats.long_polls_parked += 1

    def _readable_end(self, key: tuple[str, int]) -> int:
        """First offset consumers may *not* read: the high watermark on a
        replicated partition, the log end otherwise."""
        state = self.states.get(key)
        if state is None or not state.replicated:
            return self.logs[key].end_offset
        return min(state.hwm, self.logs[key].end_offset)

    def _wake_fetchers(
        self, topic: str, partition: int, replica: bool = False
    ) -> None:
        waiters = self._waiters.get((topic, partition))
        if not waiters:
            return
        for waiter in [w for w in waiters if (w.replica is not None) == replica]:
            self._unpark(waiter)
            self.sim.process(
                self._respond_waiter(waiter), name=f"{self.name}.fetch-wake"
            )

    def _parked_waiters(self) -> list[_FetchWaiter]:
        """Every parked session once, in parking order per partition."""
        return list(dict.fromkeys(w for ws in self._waiters.values() for w in ws))

    def _unpark(self, waiter: _FetchWaiter) -> None:
        """Take a session out of every partition's list and cancel its
        expiry; a no-op once it is answered."""
        if not waiter.active:
            return
        waiter.active = False
        self._parked -= 1
        self.sim.cancel(waiter.expiry)  # a no-op when called from _expire_waiter
        for key in waiter.offsets:
            waiters = self._waiters[key]
            waiters.remove(waiter)
            if not waiters:
                del self._waiters[key]

    def _expire_waiter(self, waiter: _FetchWaiter) -> None:
        if not waiter.active:
            return
        self._unpark(waiter)
        self.sim.process(
            self._respond_waiter(waiter), name=f"{self.name}.fetch-expire"
        )

    def _respond_waiter(self, waiter: _FetchWaiter) -> Generator[Any, Any, None]:
        respond = (
            self._respond_fetch if waiter.replica is None
            else self._respond_replica_fetch
        )
        yield from respond(
            waiter.channel, waiter.corr, waiter.offsets, waiter.max_records
        )

    def _respond_fetch(
        self,
        channel: Channel,
        corr: int,
        offsets: dict[tuple[str, int], int],
        max_records: int,
    ) -> Generator[Any, Any, None]:
        """Answer a fetch session: a batch for each partition whose position
        moves, one ``fetch_cpu`` charge for the whole response."""
        batches: dict[int, tuple[list, int, int]] = {}
        nbytes = self.config.frame_overhead_bytes
        n_records = 0
        marks = []
        for key, offset in offsets.items():
            log = self.logs[key]
            readable = self._readable_end(key)
            stored = (
                [r for r in log.read(offset, max_records) if r.offset < readable]
                if readable > offset else []
            )
            next_offset = stored[-1].offset + 1 if stored else max(offset, log.start_offset)
            if next_offset == offset:
                continue
            batches[key[1]] = ([(r.offset, r.value) for r in stored], next_offset, readable)
            nbytes += self.config.batch_overhead_bytes + sum(r.nbytes for r in stored)
            n_records += len(stored)
            marks.extend(
                record
                for r in stored
                if (record := getattr(r.value, "_record", None)) is not None
            )
        self.stats.fetches += 1
        if n_records:
            self.stats.records_fetched += n_records
        else:
            self.stats.empty_fetches += 1
        yield from self.node.execute(self.config.fetch_cpu(n_records, nbytes))
        self._send_async(channel, ("fetch_resp", corr, batches), nbytes, marks=marks)

    # ----------------------------------------------------------- replication
    def _on_replica_fetch(
        self,
        channel: Channel,
        corr: int,
        offsets: dict[tuple[str, int], int],
        max_records: int,
        max_wait: float,
        follower: str,
    ) -> Generator[Any, Any, None]:
        led = {
            key: offset
            for key, offset in offsets.items()
            if key in self.states and self.states[key].leader == self.name
        }
        if not led:
            # Leads none of them (any more): stay silent — the follower's
            # response timeout makes it re-resolve leadership and reconnect.
            yield from self.node.execute(self.config.request_cpu)
            return
        self.stats.replica_fetches += 1
        for key, offset in led.items():
            self._record_follower_progress(
                self.states[key], self.logs[key], follower, offset
            )
        if max_wait <= 0 or any(
            self.logs[key].end_offset > offset for key, offset in led.items()
        ):
            yield from self._respond_replica_fetch(channel, corr, led, max_records)
            return
        self._park(
            _FetchWaiter(channel, corr, led, max_records, replica=follower),
            max_wait,
        )

    def _respond_replica_fetch(
        self,
        channel: Channel,
        corr: int,
        offsets: dict[tuple[str, int], int],
        max_records: int,
    ) -> Generator[Any, Any, None]:
        """Answer a replica-fetch session: every partition's records past its
        offset, log end, HWM and epoch, one ``fetch_cpu`` charge in all."""
        partitions: dict[tuple[str, int], tuple] = {}
        nbytes = self.config.frame_overhead_bytes
        n_records = 0
        for key, offset in offsets.items():
            log = self.logs[key]
            state = self.states[key]
            stored = log.read(offset, max_records)
            if stored:
                nbytes += self.config.batch_overhead_bytes + sum(r.nbytes for r in stored)
                n_records += len(stored)
            # Piggyback the idempotence state so a promoted follower still
            # recognises producer retries (the follower merges entries only
            # as the described batches become locally replicated).
            pstate = self.producer_states.get(key)
            partitions[key] = (
                [(r.offset, r.key, r.value, r.nbytes) for r in stored],
                log.end_offset, state.hwm, state.epoch,
                pstate.snapshot() if pstate is not None else None,
            )
        yield from self.node.execute(self.config.fetch_cpu(n_records, nbytes))
        self._send_async(channel, ("rfetch_resp", corr, partitions), nbytes)

    def _record_follower_progress(
        self, state: PartitionState, log: PartitionLog, follower: str, offset: int
    ) -> None:
        """A replica fetch at ``offset`` proves the follower holds
        everything below ``offset`` (its log end at request time)."""
        prog = state.progress.get(follower)
        if prog is None:
            prog = state.progress[follower] = ReplicaProgress()
        # A partition sits in one single-in-flight replica-fetch session of
        # its follower, so ``offset`` is the follower's true end — including
        # after a truncation, which is why this is an assignment and not a
        # max().
        prog.next_offset = offset
        if offset >= log.end_offset:
            prog.caught_up_at = self.sim.now
            if not prog.in_isr:
                prog.in_isr = True
                self.stats.isr_expands += 1
                self._notify_isr(state)
        self._advance_hwm((state.topic, state.partition))

    def _advance_hwm(self, key: tuple[str, int]) -> None:
        state = self.states.get(key)
        log = self.logs[key]
        if state is None or not state.replicated:
            new = log.end_offset
        elif state.leader != self.name:
            return  # follower HWMs move via replica-fetch responses
        else:
            new = log.end_offset
            for prog in state.progress.values():
                if prog.in_isr and prog.next_offset < new:
                    new = prog.next_offset
        if state is not None and new > state.hwm:
            state.hwm = new
            self._wake_fetchers(key[0], key[1])
            if state.pending_acks:
                self._fire_pending_acks(state)

    def _fire_pending_acks(self, state: PartitionState) -> None:
        ready = [entry for entry in state.pending_acks if entry[0] <= state.hwm]
        if not ready:
            return
        state.pending_acks = [
            entry for entry in state.pending_acks if entry[0] > state.hwm
        ]
        for _required, channel, corr, base_offset in ready:
            self._send_async(
                channel, ("produce_ack", corr, base_offset),
                self.config.control_bytes,
            )

    def _isr_scan(self) -> Generator[Any, Any, None]:
        """Leader-side lag rule: a follower that has not been caught up to
        the log end for ``replica_lag_max`` leaves the ISR."""
        cfg = self.config
        while True:
            yield self.sim.timeout(cfg.isr_check_interval)
            if not self.alive or self.jvm.dead:
                continue
            for key, state in self.states.items():
                if state.leader != self.name or not state.replicated:
                    continue
                end = self.logs[key].end_offset
                changed = False
                for prog in state.progress.values():
                    if not prog.in_isr:
                        continue
                    if prog.next_offset >= end:
                        prog.caught_up_at = self.sim.now
                        continue
                    if self.sim.now - prog.caught_up_at > cfg.replica_lag_max:
                        prog.in_isr = False
                        self.stats.isr_shrinks += 1
                        changed = True
                if changed:
                    self._notify_isr(state)
                    self._advance_hwm(key)

    def drop_follower(self, topic: str, partition: int, follower: str) -> None:
        """Controller fast path: remove a crashed follower from the ISR
        immediately instead of waiting out the lag window."""
        state = self.states.get((topic, partition))
        if state is None or state.leader != self.name:
            return
        prog = state.progress.get(follower)
        if prog is None or not prog.in_isr:
            return
        prog.in_isr = False
        self.stats.isr_shrinks += 1
        self._notify_isr(state)
        self._advance_hwm((topic, partition))

    def become_leader(
        self, topic: str, partition: int, epoch: int, isr: frozenset
    ) -> None:
        """Controller promotion after winning an election.

        The carried-over ISR members' progress floors at our HWM — every
        ISR member is guaranteed to hold at least that much — and their
        true ends arrive with their first replica fetch, so the HWM never
        advances past data a surviving replica might not hold.
        """
        key = (topic, partition)
        state = self.states[key]
        state.leader = self.name
        state.epoch = epoch
        state.pending_acks.clear()
        state.progress = {}
        for name in isr:
            if name != self.name:
                state.progress[name] = ReplicaProgress(
                    next_offset=state.hwm,
                    caught_up_at=self.sim.now,
                    in_isr=True,
                )
        self._notify_isr(state)
        self._advance_hwm(key)

    def become_follower(
        self, topic: str, partition: int, leader: str, epoch: int
    ) -> None:
        state = self.states.get((topic, partition))
        if state is None:
            return
        state.leader = leader
        if epoch > state.epoch:
            state.epoch = epoch
        state.progress = {}
        state.pending_acks.clear()
        if self.follow_listener is not None:
            self.follow_listener(leader)

    def wake_consumer_fetchers(self, topic: str, partition: int) -> None:
        """Follower-side hook: its HWM advanced, parked long-polls may now
        have readable data (read-from-follower is HWM-bounded too)."""
        self._wake_fetchers(topic, partition)

    def append_internal(self, topic: str, partition: int, entries: list) -> None:
        """Append control entries (e.g. ``__offsets`` commits) to a local
        partition through the replication bookkeeping, without the produce
        protocol.  CPU for the triggering request was already charged."""
        key = (topic, partition)
        log = self.logs.get(key)
        if log is None:
            return
        batch = [(None, entry, float(self.config.control_bytes)) for entry in entries]
        stored_bytes = sum(b[2] for b in batch) + (
            self.config.per_record_overhead_bytes * len(batch)
        )
        try:
            self.jvm.alloc(stored_bytes, "internal append")
        except OutOfMemoryError:
            self.stats.records_dropped += len(batch)
            return
        result = log.append(batch)
        if result.evicted_bytes:
            self.jvm.free(result.evicted_bytes)
        state = self.states.get(key)
        if state is not None and state.replicated:
            self._wake_fetchers(topic, partition, replica=True)
        self._advance_hwm(key)

    def _notify_isr(self, state: PartitionState) -> None:
        if self.isr_listener is not None:
            self.isr_listener(state.topic, state.partition, state.isr_names())

    def _send_async(
        self,
        channel: Channel,
        frame: tuple,
        nbytes: float,
        marks: Optional[list] = None,
    ) -> None:
        """Hand a response to a transient sender process.

        The I/O thread moves on immediately; the sender pays the wire cost
        (and, on acked transports, the stop-and-wait retransmission stalls)
        off the request path — Kafka's network-thread/request-handler
        split.  Under a loss burst this is the difference between a broker
        that keeps serving and four I/O threads wedged in retransmits.
        """
        def _send() -> Generator[Any, Any, None]:
            try:
                yield from channel.send(frame, nbytes)
            except (MessageLost, ChannelClosed):
                return
            for record in marks or ():
                record.mark("broker_out", self.sim.now, "plog", self.name)

        self.sim.process(_send(), name=f"{self.name}.respond")

    # ----------------------------------------------------------------- admin
    def partition_count(self) -> int:
        return len(self.logs)

    def _crashed(self) -> None:
        """The I/O pool and every parked request die with the process; each
        severed connection's heap is freed by the dying I/O threads, or by
        the restarted pool draining stale EOFs.  Partition logs survive —
        the commit log is durable storage, so a restarted broker resumes
        serving existing offsets."""
        self._io_started = False
        for waiter in self._parked_waiters():
            self._unpark(waiter)
        for state in self.states.values():
            # Parked acks=all responses die with their channels; producers
            # that retry re-send the batch to the new leader.
            state.pending_acks.clear()

    def _restarted(self) -> None:
        """A fresh I/O thread pool."""
        self._start_io_pool()
