"""Calibration constants for the Narada broker model.

Absolute latencies in the paper come from NaradaBrokering v1.1.3 on a
Pentium III 866 MHz under the Sun 1.4.2 JVM.  These constants were chosen so
the model's headline numbers land in the paper's reported ranges (see
EXPERIMENTS.md): TCP RTT of a few milliseconds at 800 connections growing
smoothly to ~25 ms at 3000 (Fig 7), >99 % of messages inside 100 ms
(§III.E.2), UDP mean RTT several times TCP's with a retransmission tail
(Figs 3–4), and an out-of-memory wall between 3000 and 4000 connections for
a single broker.

Era-plausibility: ~2.3 ms of broker CPU per message ≈ 430 msg/s per broker
core, in line with 2004-era Java MOM throughput on sub-GHz hardware, and a
dominant per-*message* (not per-byte) cost, which is exactly the RMM
observation the paper cites in §IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class NaradaConfig:
    """All knobs of the broker model (a frozen dataclass: derive variants
    with :func:`dataclasses.replace`)."""

    # -- broker per-message CPU costs (seconds on the reference node) -----
    #: Fixed routing cost: protocol decode, topic lookup, dispatch.
    routing_cpu: float = 0.0009
    #: Per-byte cost of deserialising + re-serialising a message (Java 1.4
    #: object streams were byte-expensive).
    per_byte_cpu: float = 1.0e-6
    #: Evaluating one subscription's selector against a message.
    selector_eval_cpu: float = 25e-6
    #: Delivering to one matched subscriber (copy + enqueue + socket write).
    deliver_cpu: float = 0.0005
    #: Processing one JMS acknowledgement from a consumer.
    ack_cpu: float = 0.00025
    #: Handling a new connection (accept, session setup).
    accept_cpu: float = 0.003
    #: Extra per-message dispatch cost on the shared NIO selector thread.
    nio_dispatch_cpu: float = 0.0005
    #: Extra per-message cost per open connection: thread-per-connection
    #: scheduling/scan overhead on the 2.4-kernel O(n) scheduler.  This term
    #: is what tilts RTT upward with connection count beyond pure queueing
    #: (paper Fig 7's smooth increase).
    per_connection_cpu: float = 0.1e-6

    # -- protocol bytes ----------------------------------------------------
    #: Framing the broker wire protocol adds per message.
    frame_overhead_bytes: int = 24
    #: Size of a JMS ack / control message on the wire.
    control_bytes: int = 48

    # -- broker JVM / memory ----------------------------------------------
    #: -Xmx for the broker JVM (paper: 1 GiB).
    heap_bytes: float = 1024 * 1024 * 1024
    #: Native stack per connection-serving thread.
    thread_stack_bytes: float = 256 * 1024
    #: Address space left for stacks next to the 1 GiB heap on a 2 GiB node.
    native_budget_bytes: float = 900 * 1024 * 1024
    #: Long-lived heap per client connection (buffers, session state).
    per_connection_heap: float = 96 * 1024
    #: Transient heap per in-flight message (freed after delivery).
    per_message_heap: float = 4096

    # -- persistence / durability ------------------------------------------
    #: Extra CPU for PERSISTENT delivery (synchronous store write).
    persist_cpu: float = 0.004

    # -- durable subscriptions -----------------------------------------------
    #: Max messages retained per disconnected durable subscription.
    durable_buffer_max: int = 10_000

    # -- broker network -----------------------------------------------------
    #: CPU to forward one message to a neighbouring broker (send side).
    forward_cpu: float = 0.00025
    #: CPU to receive a forwarded event (binary relay: cheaper than a full
    #: client publish decode).
    forward_recv_cpu: float = 0.0009
    #: The v1.1.3 deficiency: forward every event to every neighbour
    #: regardless of remote interest (paper §III.E.2).  Set False for the
    #: fixed subscription-aware routing (the ablation).
    broadcast_flaw: bool = True
    #: Seen-set capacity for flood deduplication.
    dedup_capacity: int = 50_000

    def with_(self, **changes) -> "NaradaConfig":
        """Convenience wrapper around :func:`dataclasses.replace`."""
        return replace(self, **changes)

    def message_cpu(self, nbytes: float) -> float:
        """Total broker-side decode cost for a message of ``nbytes``."""
        return self.routing_cpu + self.per_byte_cpu * nbytes
