"""The switched LAN model.

The paper's testbed is eight nodes on an isolated 100 Mbps switch, with an
observed application data rate of 7–8 Mbyte/s (paper §III.A).  We model a
store-and-forward switch: a frame is serialised onto the sender's NIC
transmit queue, propagates through the switch, and is serialised again on the
receiver's NIC receive path.  Each NIC direction is a FIFO queue in *virtual
time*: instead of simulating every frame as a process, a link keeps the time
its queue drains (``_next_free``) and computes each transfer's queueing +
serialisation delay in O(1).  Queueing delay at the receive side of a loaded
broker node is the dominant latency term in the paper's scaling experiments.

Datagram ("UDP") transfers can be dropped, either randomly (configured loss
probability per fragment) or deterministically when the virtual queue exceeds
the socket buffer.  Stream transfers are never dropped here — reliability is
the transport layer's job (see :mod:`repro.transport.tcp`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Ethernet maximum transmission unit (payload bytes per frame).
MTU = 1500
#: Per-frame overhead: Ethernet + IP + TCP headers, preamble, inter-frame gap.
FRAME_OVERHEAD_TCP = 78
#: Per-frame overhead for UDP datagram fragments.
FRAME_OVERHEAD_UDP = 66
#: LAN jitter draws a host pair takes from its stream at a time (``_Route``).
JITTER_BLOCK = 64


@dataclass
class LinkStats:
    """Counters a link accumulates for reporting."""

    frames: int = 0
    bytes: int = 0
    drops_random: int = 0
    drops_overflow: int = 0
    #: Datagrams dropped by an injected network partition (repro.faults).
    drops_fault: int = 0


class Link:
    """One direction of one NIC: FIFO serialisation in virtual time."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        bandwidth_bps: float = 100e6,
        buffer_bytes: float = 256 * 1024,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.buffer_bytes = buffer_bytes
        self._next_free = 0.0
        self.stats = LinkStats()

    @property
    def queued_bytes(self) -> float:
        """Bytes currently waiting in the virtual queue."""
        backlog_seconds = max(0.0, self._next_free - self.sim.now)
        return backlog_seconds * self.bandwidth_bps / 8.0

    def serialize(
        self, nbytes: float, droppable: bool = False, earliest: Optional[float] = None
    ) -> Optional[float]:
        """Queue ``nbytes`` onto the link, enqueued at ``earliest`` (default:
        now; a receive side is enqueued when the frame reaches its port).

        Returns the absolute time the last bit leaves the link, or ``None``
        when ``droppable`` and the queue would overflow the buffer.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if earliest is None:
            earliest = self.sim.now
        if droppable:
            backlog = max(0.0, self._next_free - earliest)
            if backlog * self.bandwidth_bps / 8.0 + nbytes > self.buffer_bytes:
                self.stats.drops_overflow += 1
                return None
        start = max(earliest, self._next_free)
        self._next_free = start + nbytes * 8.0 / self.bandwidth_bps
        self.stats.frames += 1
        self.stats.bytes += int(nbytes)
        return self._next_free


class Lan:
    """A full-duplex switched LAN connecting named hosts.

    Parameters
    ----------
    sim:
        Owning simulator.
    bandwidth_bps:
        Per-port line rate (paper: 100 Mbps).
    switch_latency:
        Fixed propagation + switching delay per frame burst (seconds).
    jitter_mean:
        Mean of the exponential jitter added per transfer (OS scheduling,
        interrupt coalescing).  Seeded per host pair.
    loopback_delay:
        Delay for same-host transfers (kernel loopback, no NIC involved).
    """

    def __init__(
        self,
        sim: "Simulator",
        bandwidth_bps: float = 100e6,
        switch_latency: float = 150e-6,
        jitter_mean: float = 80e-6,
        loopback_delay: float = 30e-6,
        buffer_bytes: float = 256 * 1024,
    ):
        if jitter_mean < 0:
            raise ValueError("jitter_mean must be >= 0")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.switch_latency = switch_latency
        self.jitter_mean = jitter_mean
        self.loopback_delay = loopback_delay
        self.buffer_bytes = buffer_bytes
        self._tx: dict[str, Link] = {}
        self._rx: dict[str, Link] = {}
        self._routes: dict[tuple[str, str], _Route] = {}
        #: Optional injected link faults (see :mod:`repro.faults.link`);
        #: installed by a fault scheduler, consulted per transfer.
        self.faults = None

    def attach(self, host: str) -> None:
        """Register ``host`` on the switch (idempotent)."""
        if host not in self._tx:
            self._tx[host] = Link(
                self.sim, f"{host}.tx", self.bandwidth_bps, self.buffer_bytes
            )
            self._rx[host] = Link(
                self.sim, f"{host}.rx", self.bandwidth_bps, self.buffer_bytes
            )

    def hosts(self) -> list[str]:
        return sorted(self._tx)

    def tx_link(self, host: str) -> Link:
        return self._tx[host]

    def rx_link(self, host: str) -> Link:
        return self._rx[host]

    # ------------------------------------------------------------ transfers
    def frame_count(self, nbytes: float) -> int:
        """Number of MTU-sized fragments a payload occupies."""
        return max(1, math.ceil(nbytes / MTU))

    def wire_bytes(self, nbytes: float, overhead: int) -> float:
        """Payload plus per-frame protocol overhead."""
        return nbytes + self.frame_count(nbytes) * overhead

    def transmit(
        self,
        src: str,
        dst: str,
        nbytes: float,
        *,
        droppable: bool = False,
        loss_probability: float = 0.0,
        overhead: int = FRAME_OVERHEAD_TCP,
    ) -> Optional[Event]:
        """Move ``nbytes`` of payload from ``src`` to ``dst``.

        Returns an event firing at delivery time, or ``None`` when the
        transfer was dropped (only possible with ``droppable=True``).
        The event's value is the one-way delay in seconds.
        """
        delay = self.transfer_delay(
            src, dst, nbytes, droppable, loss_probability, overhead
        )
        if delay is None:
            return None
        ev = self.sim.event()
        ev.succeed(delay, delay=delay)
        return ev

    def transfer_delay(
        self,
        src: str,
        dst: str,
        nbytes: float,
        droppable: bool = False,
        loss_probability: float = 0.0,
        overhead: int = FRAME_OVERHEAD_TCP,
    ) -> Optional[float]:
        """:meth:`transmit` without the event: the one-way delay in seconds
        from now, or ``None`` when the transfer was dropped.

        The caller schedules the arrival itself, at ``now + delay``, exactly
        where :meth:`transmit` would (a stream channel carries its segment
        as that entry's value).
        """
        route = self._routes.get((src, dst))
        if route is None:
            if src not in self._tx or dst not in self._tx:
                raise KeyError(f"unknown host in transfer {src!r} -> {dst!r}")
            if src == dst:
                return self.loopback_delay
            route = self._routes[(src, dst)] = _Route(self, src, dst)

        now = self.sim._now
        tx = route.tx
        fault_delay = 0.0
        p_frag = loss_probability
        if self.faults is not None:
            dropped, fault_delay = self.faults.verdict(src, dst, droppable)
            if dropped:
                tx.stats.drops_fault += 1
                return None
            extra_loss = self.faults.loss_probability(src, dst)
            if extra_loss > 0.0:
                # Independent loss processes compose multiplicatively.
                p_frag = 1.0 - (1.0 - p_frag) * (1.0 - extra_loss)

        if droppable and p_frag > 0.0:
            # Per-fragment random loss; one lost fragment loses the datagram.
            frags = self.frame_count(nbytes)
            p_msg = 1.0 - (1.0 - p_frag) ** frags
            if self.sim.rng.random(route.loss_stream) < p_msg:
                tx.stats.drops_random += 1
                return None

        wire = self.wire_bytes(nbytes, overhead)
        tx_done = tx.serialize(wire, droppable)
        if tx_done is None:
            return None
        # The frame reaches the destination port after the switch latency;
        # receive-side serialisation starts no earlier than that.
        arrival_at_rx = tx_done + self.switch_latency
        rx_start_lag = max(0.0, arrival_at_rx - now)
        # Model the rx queue in its own virtual time, offset by the lag.
        rx_done = route.rx.serialize(wire, droppable, now + rx_start_lag)
        if rx_done is None:
            tx.stats.drops_overflow += 1  # counted where it is observed
            return None
        delivery = rx_done + route.jitter(self.jitter_mean) + fault_delay
        return delivery - now


class _Route:
    """One (src, dst) host pair of a :class:`Lan`, built on its first transfer.

    It holds the two NIC links and the pair's named random streams.  LAN
    jitter is drawn ``JITTER_BLOCK`` at a time: ``standard_exponential``
    fills a block with the same draws that scalar ``exponential`` calls take
    one by one, and ``draw * mean`` is the product ``exponential(mean)``
    returns, so every delay is bit-identical to a scalar draw per transfer.
    Drawing ahead is safe only because nothing else draws from a
    ``lan.jitter.`` stream (``tests/cluster/test_lan_jitter_block.py``
    guards that).
    """

    __slots__ = ("tx", "rx", "loss_stream", "_jitter_stream", "_block", "_next")

    def __init__(self, lan: Lan, src: str, dst: str):
        self.tx = lan._tx[src]
        self.rx = lan._rx[dst]
        self.loss_stream = f"lan.loss.{src}->{dst}"
        self._jitter_stream = lan.sim.rng.stream(f"lan.jitter.{src}->{dst}")
        self._block: list[float] = []
        self._next = 0

    def jitter(self, mean: float) -> float:
        """The pair's next exponential jitter draw with the given mean."""
        i = self._next
        block = self._block
        if i == len(block):
            block = self._block = self._jitter_stream.standard_exponential(
                JITTER_BLOCK
            ).tolist()
            i = 0
        self._next = i + 1
        return block[i] * mean
