"""Leader/follower partition replication and the cluster controller.

This is the fault-tolerance layer of the plog subsystem, modelled on
Kafka's replication protocol:

* every partition has ``replication_factor`` replicas; the first replica in
  the layout is the *preferred leader*.  Producers and consumers only ever
  talk to the leader; a follower runs one :class:`ReplicaFetcher` session
  per leader broker it follows, which pulls the batches of all those
  partitions in one request over the same simulated LAN (replication
  traffic pays the same latency/loss/CPU costs as client traffic);
* the leader tracks each follower's progress.  A replica fetch at offset
  ``N`` acknowledges everything below ``N``, so the leader's *high
  watermark* (HWM) — the offset below which every in-sync replica has the
  data — is ``min`` over the ISR's ends.  Consumers only read below the
  HWM and ``acks=all`` produce requests only complete once the HWM passes
  the batch, which is exactly why a leader crash loses no acked record:
  some surviving ISR member is guaranteed to hold it;
* the **ISR** (in-sync replica set) shrinks when a follower has not been
  caught up to the leader's end for ``replica_lag_max`` seconds and
  expands when it catches back up — so a slow or dead follower degrades
  durability visibly (under-replicated partition) instead of stalling
  producers forever;
* the :class:`ClusterController` is the control plane: a periodic liveness
  scan (period ``failure_detect_interval``) detects broker death, elects a
  new leader for each orphaned partition — the surviving ISR member with
  the lowest broker index, a deterministic rule — and re-elects the group
  coordinator when its broker dies.  The new coordinator recovers
  committed offsets by replaying its local replica of the internal
  ``__offsets`` partition, then consumers rejoin and a rebalance restores
  the group.  The controller reads its authoritative ISR view from change
  notifications the leaders push (the stand-in for Kafka's ZooKeeper /
  KRaft metadata writes), so elections never consult a dead broker.

Everything here is inert at ``replication_factor=1``: no fetchers, no
controller, HWM == log end — the pre-replication schedule is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.cluster.jvm import OutOfMemoryError
from repro.plog.config import OFFSETS_TOPIC
from repro.plog.idempotence import PartitionProducerState
from repro.sim.events import TimedOut
from repro.transport.base import (
    EOF,
    Channel,
    ChannelClosed,
    MessageLost,
    TransportError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.plog.broker import PlogBroker
    from repro.plog.deployment import PlogDeployment
    from repro.sim.kernel import Simulator


@dataclass
class ReplicaProgress:
    """Leader-side view of one follower."""

    #: Next offset the follower will fetch == its log end (a fetch at ``N``
    #: proves the follower holds everything below ``N``).
    next_offset: int = 0
    #: Last time the follower's fetch reached the leader's end offset.
    caught_up_at: float = 0.0
    in_isr: bool = False


@dataclass
class PartitionState:
    """Replication state of one partition replica (kept on every replica).

    On the leader, ``progress`` and ``pending_acks`` are live; on a
    follower they are empty and ``hwm`` trails the leader's (learned from
    replica-fetch responses, clamped to the local log end).
    """

    topic: str
    partition: int
    #: All replica broker names; ``replicas[0]`` is the preferred leader.
    replicas: tuple[str, ...]
    #: Current leader's broker name (``None`` while the partition is
    #: offline — no live ISR member to elect).
    leader: Optional[str]
    #: Bumped by the controller on every election; a fencing token.
    epoch: int = 0
    #: High watermark: consumers read below it, ``acks=all`` waits on it.
    hwm: int = 0
    #: follower name -> progress (leader only).
    progress: dict[str, ReplicaProgress] = field(default_factory=dict)
    #: Parked ``acks=all`` produce responses: (required_hwm, channel, corr,
    #: base_offset), released once ``hwm >= required_hwm`` (leader only).
    pending_acks: list[tuple[int, Channel, int, int]] = field(default_factory=list)

    @property
    def replicated(self) -> bool:
        return len(self.replicas) > 1

    def isr_names(self) -> frozenset[str]:
        """Current ISR as seen by the leader (leader is always a member)."""
        members = {name for name, p in self.progress.items() if p.in_isr}
        if self.leader is not None:
            members.add(self.leader)
        return frozenset(members)

    @property
    def isr_size(self) -> int:
        return 1 + sum(1 for p in self.progress.values() if p.in_isr)


class ReplicaFetcher:
    """One follower broker's fetch session with one leader broker.

    Each round it long-polls the leader with one ``rfetch`` naming every
    partition the follower currently follows from it, and installs each
    partition's entry of the response into the local log (:meth:`_apply`).
    The partition set is read afresh from the follower's replication state
    every round, so an election moves a partition to another leader's
    session at that session's next round.  The loop ends once the follower
    follows nothing from this leader; ``become_follower`` naming the leader
    again restarts it (:meth:`start`).  While its broker is dead it idles.
    A response that does not arrive within the long-poll window plus a
    grace period is treated as a dead leader connection — the pending
    receive is cancelled, the channel dropped, and the session reconnects.
    """

    def __init__(
        self,
        deployment: "PlogDeployment",
        broker: "PlogBroker",
        leader: str,
    ):
        self.deployment = deployment
        self.broker = broker
        self.sim: "Simulator" = broker.sim
        self.leader = leader
        self._channel: Optional[Channel] = None
        self._corr = 0
        self.running = False
        self.fetches = 0
        self.records_replicated = 0
        self.truncations = 0
        self.reconnects = 0

    def start(self) -> None:
        """Run the session loop, unless it already runs."""
        if not self.running:
            self.running = True
            self.sim.process(
                self._run(), name=f"{self.broker.name}.replica.{self.leader}"
            )

    def _offsets(self) -> dict[tuple[str, int], int]:
        """Local log end of every partition followed from this leader."""
        broker = self.broker
        return {
            key: broker.logs[key].end_offset
            for key, state in broker.states.items()
            if state.leader == self.leader
        }

    # ------------------------------------------------------------------ loop
    def _run(self) -> Generator[Any, Any, None]:
        cfg = self.broker.config
        while True:
            offsets = self._offsets()
            if not offsets:
                self._drop_channel()
                self.running = False
                return
            if not self.broker.alive or self.broker.jvm.dead:
                self._drop_channel()
                yield self.sim.timeout(cfg.replica_fetch_backoff)
                continue
            if self._channel is None or self._channel.closed:
                self._drop_channel()
                try:
                    self._channel = yield from self.deployment.connect_to_broker(
                        self.broker.node, self.leader
                    )
                    self.reconnects += 1
                except (TransportError, ChannelClosed, MessageLost):
                    yield self.sim.timeout(cfg.replica_fetch_backoff)
                    continue
            ok = yield from self._fetch_once(offsets, cfg)
            if not ok:
                self._drop_channel()
                yield self.sim.timeout(cfg.replica_fetch_backoff)

    def _fetch_once(
        self, offsets: dict[tuple[str, int], int], cfg
    ) -> Generator[Any, Any, bool]:
        """One request/response round trip; False = connection is suspect."""
        channel = self._channel
        self._corr += 1
        corr = self._corr
        try:
            yield from channel.send(
                (
                    "rfetch",
                    corr,
                    offsets,
                    cfg.replica_fetch_max_records,
                    cfg.replica_fetch_wait,
                    self.broker.name,
                ),
                cfg.frame_overhead_bytes,
            )
        except (MessageLost, ChannelClosed):
            return False
        self.fetches += 1
        # One deadline for the round trip, however many stale frames arrive.
        give_up_at = self.sim.now + cfg.replica_fetch_wait + cfg.fetch_response_grace
        while True:
            recv = channel.receive()
            try:
                delivery = yield from self.sim.wait_for(recv, give_up_at - self.sim.now)
            except TimedOut:
                # Response lost or the leader stalled: withdraw the pending
                # receive so a late delivery is not silently swallowed by
                # an abandoned event, then rebuild the connection.
                channel.inbox.cancel_get(recv)
                return False
            frame = delivery.payload
            if frame is EOF:
                return False
            if frame[0] != "rfetch_resp" or frame[1] != corr:
                continue  # stale response from a previous (timed-out) round
            yield from self.broker.node.execute(
                channel.cost_model.recv_cost(delivery.nbytes)
            )
            for key, entry in frame[2].items():
                if not (yield from self._apply(key, *entry)):
                    return False
            return True

    def _apply(
        self,
        key: tuple[str, int],
        records: list,
        leader_end: int,
        leader_hwm: int,
        epoch: int,
        producer_snapshot: Optional[dict] = None,
    ) -> Generator[Any, Any, bool]:
        """Install one partition's entry of a replica-fetch response into
        the local log; False = the session must reconnect."""
        broker = self.broker
        if not broker.alive:
            return False  # a crash happened while we waited
        state = broker.states[key]
        if state.leader != self.leader:
            return True  # an election moved it to another session meanwhile
        log = broker.logs[key]
        if epoch > state.epoch:
            state.epoch = epoch
        if leader_end < log.end_offset:
            # We hold records the leader never had (appended under a lost
            # leadership, or acked only locally): truncate to the leader's
            # end before resuming, like Kafka on a leader-epoch change.
            before = log.total_bytes
            dropped = log.truncate_to(leader_end)
            if dropped:
                self.truncations += 1
                broker.jvm.free(before - log.total_bytes)
            return True  # refetch from the truncated end next round
        if records and records[0][0] > log.end_offset:
            # The range we were missing fell out of the leader's retention;
            # fast-forward past the gap so offsets stay aligned.
            freed = log.reset_to(records[0][0])
            if freed:
                broker.jvm.free(freed)
        if records:
            batch = [(rkey, value, nbytes) for _offset, rkey, value, nbytes in records]
            payload_bytes = sum(nbytes for _, _, nbytes in batch)
            stored = payload_bytes + broker.config.per_record_overhead_bytes * len(batch)
            yield from broker.node.execute(
                broker.config.append_cpu(len(batch), payload_bytes)
            )
            try:
                broker.jvm.alloc(stored, "replica append")
            except OutOfMemoryError:
                return False
            result = log.append(batch)
            if result.evicted_bytes:
                broker.jvm.free(result.evicted_bytes)
            self.records_replicated += len(batch)
            broker.stats.records_replicated += len(batch)
        if producer_snapshot:
            # Merge the leader's idempotence state, gated by what this
            # replica's log actually holds — a promotion mid-catch-up must
            # not dedup retries of records we never replicated.
            pstate = broker.producer_states.setdefault(
                key, PartitionProducerState()
            )
            pstate.merge_snapshot(producer_snapshot, log.end_offset)
        new_hwm = min(leader_hwm, log.end_offset)
        if new_hwm > state.hwm:
            state.hwm = new_hwm
            broker.wake_consumer_fetchers(*key)
        return True

    def _drop_channel(self) -> None:
        if self._channel is not None and not self._channel.closed:
            self._channel.close()
        self._channel = None


class MembershipController:
    """Reusable control-plane base: a periodic broker-liveness scan.

    A single periodic process scans broker liveness every
    ``_detect_interval`` seconds — so detection latency is bounded and,
    crucially, *deterministic*: the scan draws no randomness and visits
    brokers in a fixed order, so the same seed yields the same
    failure/return transitions at the same times.  Subclasses supply the
    member list, the interval and the two transition hooks; the plog
    :class:`ClusterController` layers leader election on top, and
    :class:`repro.federation.controller.FederationController` layers
    tree re-parenting on top of the same scan.

    Any object with ``name``, ``alive`` and ``jvm.dead`` can be a member
    (the same duck-typed surface the fault injector relies on).
    """

    #: Process name of the monitor loop (subclasses override).
    monitor_name = "membership.controller"

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._alive: dict[str, bool] = {}

    # ---------------------------------------------------- subclass surface
    def _members(self):
        """The scanned brokers, in the (fixed) scan order."""
        raise NotImplementedError  # pragma: no cover

    @property
    def _detect_interval(self) -> float:
        raise NotImplementedError  # pragma: no cover

    def _on_broker_failure(self, broker) -> None:
        raise NotImplementedError  # pragma: no cover

    def _on_broker_return(self, broker) -> None:
        raise NotImplementedError  # pragma: no cover

    # -------------------------------------------------------------- liveness
    def _broker_up(self, broker) -> bool:
        return broker.alive and not broker.jvm.dead

    def _start_monitor(self) -> None:
        for broker in self._members():
            self._alive.setdefault(broker.name, True)
        self.sim.process(self._monitor(), name=self.monitor_name)

    def _monitor(self) -> Generator[Any, Any, None]:
        interval = self._detect_interval
        while True:
            yield self.sim.timeout(interval)
            for broker in self._members():
                up = self._broker_up(broker)
                if up and not self._alive[broker.name]:
                    self._alive[broker.name] = True
                    self._on_broker_return(broker)
                elif not up and self._alive[broker.name]:
                    self._alive[broker.name] = False
                    self._on_broker_failure(broker)


class ClusterController(MembershipController):
    """The control plane: failure detection, leader election, coordinator
    failover.

    The liveness scan itself lives in :class:`MembershipController`; this
    subclass owns what the transitions *mean* for a replicated log —
    partition leader election and group-coordinator failover.
    """

    monitor_name = "plog.controller"

    def __init__(self, sim: "Simulator", deployment: "PlogDeployment"):
        super().__init__(sim)
        self.deployment = deployment
        self.config = deployment.config
        #: Authoritative ISR view, fed by leader notifications.
        self.isr_view: dict[tuple[str, int], frozenset[str]] = {}
        self._epochs: dict[tuple[str, int], int] = {}
        self.elections = 0
        self.failed_elections = 0
        self.coordinator_elections = 0
        #: (time, topic, partition, new_leader) — the determinism witness.
        self.election_log: list[tuple[float, str, int, str]] = []
        self.coordinator_log: list[tuple[float, str]] = []

    def start(self) -> None:
        for broker in self.deployment.brokers:
            self._alive[broker.name] = True
            broker.isr_listener = self._on_isr_change
            for key, state in broker.states.items():
                if state.leader == broker.name:
                    self.isr_view[key] = state.isr_names()
                    self._epochs[key] = state.epoch
        self._start_monitor()

    # ------------------------------------------------------------- liveness
    def _members(self) -> list["PlogBroker"]:
        return self.deployment.brokers

    @property
    def _detect_interval(self) -> float:
        return self.config.failure_detect_interval

    # ------------------------------------------------------------ elections
    def _on_isr_change(
        self, topic: str, partition: int, isr: frozenset[str]
    ) -> None:
        self.isr_view[(topic, partition)] = isr

    def _replicas_of(self, key: tuple[str, int]) -> tuple[str, ...]:
        for broker in self.deployment.brokers:
            state = broker.states.get(key)
            if state is not None:
                return state.replicas
        return ()  # pragma: no cover - every key has replicas

    def _on_broker_failure(self, broker: "PlogBroker") -> None:
        # Re-elect every partition the dead broker led.
        for key, state in broker.states.items():
            if state.leader == broker.name:
                self._elect(key)
        # Proactively drop the dead broker from surviving leaders' ISRs so
        # acks=all stalls for at most the detection interval, not the full
        # replica lag window.
        for survivor in self.deployment.brokers:
            if survivor is broker or not self._broker_up(survivor):
                continue
            for key, state in survivor.states.items():
                if state.leader == survivor.name and broker.name in state.progress:
                    survivor.drop_follower(key[0], key[1], broker.name)
        if self.deployment.coordinator_broker() is broker:
            self._elect_coordinator()

    def _on_broker_return(self, broker: "PlogBroker") -> None:
        # The returnee re-enters as a follower everywhere; its fetchers
        # truncate and catch up, and leaders re-admit it to the ISR once it
        # is caught up.  Offline partitions it replicates can now elect.
        for key, state in broker.states.items():
            current = self.deployment.leader_name(key[0], key[1])
            if current is None:
                self._elect(key)
            elif current != broker.name and state.leader != current:
                broker.become_follower(
                    key[0], key[1], current, self._epochs.get(key, state.epoch)
                )
        if not self._broker_up(self.deployment.coordinator_broker()):
            self._elect_coordinator()
        elif self.deployment.coordinator_broker() is not broker:
            # Stale coordinator state on the returnee (it used to host the
            # group coordinator before crashing): drop it so the discovery
            # path stays unambiguous.
            if broker.coordinator is not None and broker is not self.deployment.coordinator_broker():
                broker.coordinator = None

    def _elect(self, key: tuple[str, int]) -> None:
        topic, partition = key
        isr = self.isr_view.get(key)
        if isr is None:
            isr = frozenset(self._replicas_of(key))
        candidates = [
            broker
            for broker in self.deployment.brokers
            if broker.name in isr and self._broker_up(broker)
        ]
        if not candidates:
            # No live in-sync replica: the partition goes offline rather
            # than electing a stale replica and silently losing acked data
            # (Kafka with unclean.leader.election.enable=false).
            self.failed_elections += 1
            self.deployment.set_leader(topic, partition, None)
            return
        new_leader = candidates[0]  # deployment order == lowest broker index
        epoch = self._epochs.get(key, 0) + 1
        self._epochs[key] = epoch
        survivors = frozenset(
            b.name for b in candidates
        )
        new_leader.become_leader(topic, partition, epoch, survivors)
        for broker in self.deployment.brokers:
            if broker is new_leader or not self._broker_up(broker):
                continue
            if key in broker.states:
                broker.become_follower(topic, partition, new_leader.name, epoch)
        self.deployment.set_leader(topic, partition, new_leader)
        self.isr_view[key] = survivors
        self.elections += 1
        self.election_log.append((self.sim.now, topic, partition, new_leader.name))

    # ---------------------------------------------------------- coordinator
    def _elect_coordinator(self) -> None:
        from repro.plog.group import GroupCoordinator

        offsets_key = (OFFSETS_TOPIC, 0)
        isr = self.isr_view.get(offsets_key, frozenset())
        candidates = [
            broker
            for broker in self.deployment.brokers
            if self._broker_up(broker) and broker.name in isr
        ]
        if not candidates:
            # Fall back to any live broker: group offsets recovered from
            # its (possibly lagging) __offsets replica, membership rebuilt
            # by consumer rejoins either way.
            candidates = [
                broker
                for broker in self.deployment.brokers
                if self._broker_up(broker)
            ]
        if not candidates:
            return  # whole cluster down; retried when a broker returns
        new_broker = candidates[0]
        if (
            new_broker is self.deployment.coordinator_broker()
            and self._broker_up(new_broker)
        ):
            return
        # Move leadership of the __offsets partition with the coordinator
        # so commit mirroring keeps appending locally.
        if offsets_key in new_broker.states:
            epoch = self._epochs.get(offsets_key, 0) + 1
            self._epochs[offsets_key] = epoch
            survivors = frozenset(
                b.name for b in self.deployment.brokers
                if self._broker_up(b) and (b.name in isr or b is new_broker)
            )
            new_broker.become_leader(OFFSETS_TOPIC, 0, epoch, survivors)
            for broker in self.deployment.brokers:
                if broker is not new_broker and self._broker_up(broker):
                    if offsets_key in broker.states:
                        broker.become_follower(
                            OFFSETS_TOPIC, 0, new_broker.name, epoch
                        )
            self.deployment.set_leader(OFFSETS_TOPIC, 0, new_broker)
            self.isr_view[offsets_key] = survivors
        coordinator = GroupCoordinator(new_broker, self.config.partitions)
        offsets_log = new_broker.logs.get(offsets_key)
        if offsets_log is not None:
            coordinator.recover_from_log(offsets_log)
        self.deployment.install_coordinator(new_broker, coordinator)
        self.coordinator_elections += 1
        self.coordinator_log.append((self.sim.now, new_broker.name))
