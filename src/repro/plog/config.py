"""Calibration constants for the partitioned-log broker model.

The broker is modelled on the same reference node as the paper's testbed
(Pentium III 866 MHz), so costs are directly comparable with
:class:`repro.narada.NaradaConfig`.  Where Narada pays ~2.3 ms of broker
CPU per message (Java 1.4 object streams, per-subscriber selector scans),
a commit log pays a small per-*batch* request cost plus a byte-oriented
per-record cost: appends are sequential writes and fetches ship contiguous
offset ranges, which is exactly why this design scales fan-in where a
routing broker does not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.faults.recovery import RetryPolicy

KiB = 1024
MiB = 1024 * 1024

#: ``acks`` value meaning "wait for every in-sync replica".
ACKS_ALL = -1

#: Internal topic holding consumer-group offset commits; replicated across
#: all brokers so a re-elected coordinator can recover committed positions.
OFFSETS_TOPIC = "__offsets"


@dataclass(frozen=True)
class PlogConfig:
    """All knobs of the partitioned-log model (frozen; derive variants with
    :meth:`with_`)."""

    # -- topic layout ------------------------------------------------------
    #: Partitions per topic; records hash to ``stable_hash(key) % partitions``.
    partitions: int = 32

    # -- producer ----------------------------------------------------------
    #: Batching delay: a batch is flushed ``linger`` seconds after its first
    #: record unless it fills up first.
    linger: float = 0.05
    #: Records per batch before an immediate flush.
    batch_max_records: int = 64
    #: Bytes per batch before an immediate flush.
    batch_max_bytes: int = 64 * KiB
    #: 0 = fire-and-forget, 1 = wait for the leader's append acknowledgement,
    #: -1 (``ACKS_ALL``) = wait until every in-sync replica has the batch
    #: (the ack fires when the high watermark passes the batch's last offset).
    acks: int = 1
    #: Per-partition cap on concurrently in-flight (unacknowledged) batches,
    #: à la Kafka ``max.in.flight.requests.per.connection``.  Batches beyond
    #: the window queue client-side instead of spawning more flushes, so one
    #: partition's retry storm cannot monopolise the broker and a backoff
    #: head-of-line-blocks at most ``max_in_flight`` batches, not the world.
    #: 0 disables the window (the pre-replication unbounded behaviour).
    max_in_flight: int = 5

    # -- consumer ----------------------------------------------------------
    #: Max records one fetch returns per partition (the pull-side batch).
    fetch_max_records: int = 512
    #: Long-poll: a fetch session with no data on any of its partitions
    #: parks at the broker for at most this long before returning empty.
    fetch_max_wait: float = 0.25
    #: Client-side CPU to deserialise + process one fetched record.
    consumer_record_cpu: float = 40e-6
    #: Interval between automatic offset commits to the coordinator.
    auto_commit_interval: float = 5.0

    # -- broker CPU (seconds on the reference node) ------------------------
    #: Fixed cost to decode + dispatch one request frame (produce or fetch).
    request_cpu: float = 0.0004
    #: Appending one record to a partition log (index update + copy).
    append_record_cpu: float = 60e-6
    #: Per-byte append cost (sequential write; far below Narada's 1 µs/B
    #: object-stream cost).
    append_byte_cpu: float = 0.3e-6
    #: Shipping one record in a fetch response (zero-copy-style read).
    fetch_record_cpu: float = 20e-6
    #: Per-byte fetch cost.
    fetch_byte_cpu: float = 0.1e-6
    #: Accepting a connection (no thread spawn, just registration).
    accept_cpu: float = 0.0008
    #: Coordinator work per group-membership request.
    group_request_cpu: float = 0.0005
    #: Fixed I/O thread pool serving the shared request queue.
    io_threads: int = 4

    # -- protocol bytes ----------------------------------------------------
    #: Framing per request/response on the wire.
    frame_overhead_bytes: int = 24
    #: Batch header (offsets, CRC, compression metadata).
    batch_overhead_bytes: int = 61
    #: Size of a control frame (join/assign/commit/ack).
    control_bytes: int = 48

    # -- broker JVM / memory ----------------------------------------------
    #: -Xmx, kept at the paper's 1 GiB so walls are comparable.
    heap_bytes: float = 1024 * MiB
    #: Native stack per I/O thread (same JVM-1.4-era default).
    thread_stack_bytes: float = 256 * KiB
    #: Address space for thread stacks (irrelevant at ``io_threads`` ≈ 4,
    #: which is the point).
    native_budget_bytes: float = 900 * MiB
    #: Long-lived heap per client connection (socket buffers + session);
    #: no thread stack, so the wall is heap-bound at ~20k connections
    #: instead of thread-bound at ~3.6k.
    per_connection_heap: float = 48 * KiB
    #: Retained heap per log record beyond its payload bytes.
    per_record_overhead_bytes: float = 64.0

    # -- log segments ------------------------------------------------------
    #: A segment rolls once it holds this many bytes.
    segment_max_bytes: float = 1 * MiB
    #: Per-partition retention: oldest whole segments are evicted once the
    #: partition exceeds this (bounds broker heap for long runs).
    retention_bytes: float = 8 * MiB

    # -- fault recovery ----------------------------------------------------
    #: Producer-side retry of a batch whose send or acknowledgement failed.
    #: The default (retries=0) keeps the pre-fault behaviour: one shot,
    #: failures count into ``send_failures``.
    producer_retry: RetryPolicy = RetryPolicy()
    #: With retries enabled, how long a producer waits for a produce_ack
    #: before treating the attempt as lost and backing off.
    produce_ack_timeout: float = 1.0
    #: Reroute records whose partition's broker is down to a partition on a
    #: surviving broker (sticky until the producer reconnects).
    failover: bool = False
    #: Idempotent producer: stamp every batch with (producer id, per-
    #: partition base sequence) so brokers absorb retried batches instead of
    #: appending them twice — exactly-once appends across retries and
    #: leader failover.  Forces one in-flight batch per partition (strict
    #: per-partition send order, à la Kafka's idempotence ordering rule).
    #: Not meaningful combined with ``failover`` rerouting: sequences are
    #: scoped to the partition the batch was first routed to.
    idempotent: bool = False
    #: Consumer-side recovery: re-issue timed-out fetches, reconnect dead
    #: sessions with capped backoff, keep committing through coordinator
    #: hiccups.  Off by default so the no-fault schedule is untouched.
    consumer_recovery: bool = False
    #: Consumer: extra wait beyond ``fetch_max_wait`` before a fetch with no
    #: response is re-issued (covers a lost response or a stalled broker).
    fetch_response_grace: float = 1.0
    #: Consumer reconnect/refetch backoff: first delay and its cap (the
    #: consumer never gives up while it holds an assignment — a monitoring
    #: pipeline's reader should outlive transient broker outages).
    consumer_retry_backoff: float = 0.2
    consumer_retry_max: float = 2.0

    # -- consumer groups ---------------------------------------------------
    #: Coordinator waits this long after a membership change before
    #: computing the new assignment (coalesces join storms).
    rebalance_delay: float = 0.5

    # -- replication -------------------------------------------------------
    #: Copies of each partition (1 = unreplicated, the pre-replication
    #: behaviour; N > 1 places replicas on the N round-robin-next brokers,
    #: first replica = preferred leader).
    replication_factor: int = 1
    #: ``acks=-1`` produce requests fail with ``not_enough_replicas`` when
    #: the ISR has shrunk below this (Kafka ``min.insync.replicas``).
    min_insync_replicas: int = 1
    #: Records per partition of a replica fetch (followers catch up in
    #: bigger bites than consumers).
    replica_fetch_max_records: int = 2048
    #: Long-poll ceiling for a replica fetch with no new data.
    replica_fetch_wait: float = 0.25
    #: Follower backoff after a failed replica fetch (leader unreachable,
    #: lost response) before reconnecting and retrying.
    replica_fetch_backoff: float = 0.1
    #: A follower that has not been caught up to the leader's end for this
    #: long is dropped from the ISR (Kafka ``replica.lag.time.max.ms``).
    replica_lag_max: float = 1.0
    #: Leader-side period of the ISR shrink scan.
    isr_check_interval: float = 0.25
    #: Controller liveness-scan period: bounds failure-detection latency for
    #: leader election and coordinator failover.
    failure_detect_interval: float = 0.25

    def with_(self, **changes) -> "PlogConfig":
        """Convenience wrapper around :func:`dataclasses.replace`."""
        return replace(self, **changes)

    def append_cpu(self, records: int, nbytes: float) -> float:
        """Broker CPU to append one batch."""
        return (
            self.request_cpu
            + self.append_record_cpu * records
            + self.append_byte_cpu * nbytes
        )

    def fetch_cpu(self, records: int, nbytes: float) -> float:
        """Broker CPU to serve one fetch response."""
        return (
            self.request_cpu
            + self.fetch_record_cpu * records
            + self.fetch_byte_cpu * nbytes
        )
