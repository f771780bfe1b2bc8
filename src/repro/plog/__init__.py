"""A partitioned commit-log broker — the third middleware candidate.

Neither system the paper tested meets the §I soft real-time SLA at the
"tens of thousands of generators" scale it motivates: a single Narada
broker runs out of memory before 4000 connections (thread-per-connection),
the tested DBN broadcasts all data, and R-GMA's mediator pipeline adds
seconds of process time.  This package implements the design that modern
broker studies show *does* scale fan-in pub/sub: a Kafka-style partitioned
commit log.

* topics are split into N partitions; records are hashed to a partition by
  generator id (:mod:`repro.plog.partitioner`);
* each partition is an append-only segmented log with offset-based reads
  (:mod:`repro.plog.log`);
* the broker serves all connections from a small fixed pool of I/O threads
  over a shared request queue — no per-connection thread, so no native
  thread wall (:mod:`repro.plog.broker`);
* producers batch records per partition with a linger timer and optional
  acknowledgements (:mod:`repro.plog.producer`);
* consumers *pull* batches with long-poll fetches, one session per broker
  naming all of a consumer's partitions there — one in-flight fetch per
  broker is the backpressure (:mod:`repro.plog.consumer`);
* consumer groups get partitions range-assigned by a coordinator and are
  rebalanced when membership changes (:mod:`repro.plog.group`);
* a deployment spreads *partitions* (not full traffic, unlike the flawed
  Narada DBN) across Hydra nodes (:mod:`repro.plog.deployment`);
* with ``replication_factor > 1``, partitions get leader/follower replicas
  with ISR tracking and high-watermark semantics, a controller elects new
  leaders (and re-elects the group coordinator) on broker crash, and
  ``acks=all`` producers lose no acknowledged record to a single broker
  death (:mod:`repro.plog.replication`).

Everything runs on the existing deterministic substrate (``repro.sim``,
``repro.cluster``, ``repro.transport``), so runs are bit-reproducible.
"""

from repro.plog.config import ACKS_ALL, OFFSETS_TOPIC, PlogConfig
from repro.plog.partitioner import partition_for, stable_hash
from repro.plog.log import AppendResult, PartitionLog
from repro.plog.replication import (
    ClusterController,
    PartitionState,
    ReplicaFetcher,
    ReplicaProgress,
)
from repro.plog.broker import PlogBroker
from repro.plog.group import GroupCoordinator
from repro.plog.producer import PlogProducer
from repro.plog.consumer import PlogConsumer
from repro.plog.deployment import PlogDeployment

__all__ = [
    "ACKS_ALL",
    "AppendResult",
    "ClusterController",
    "GroupCoordinator",
    "OFFSETS_TOPIC",
    "PartitionLog",
    "PartitionState",
    "PlogBroker",
    "PlogConfig",
    "PlogConsumer",
    "PlogDeployment",
    "PlogProducer",
    "ReplicaFetcher",
    "ReplicaProgress",
    "partition_for",
    "stable_hash",
]
