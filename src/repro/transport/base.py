"""Common transport abstractions: channels, endpoints, cost model.

A :class:`Channel` is one end of a bidirectional conversation between two
hosts.  ``send`` is a *generator* (used with ``yield from`` inside a process)
that charges the sender's CPU, pushes bytes through the LAN model and
delivers the payload into the peer's inbox; it returns the one-way latency.
Receivers pull from their end's :meth:`Channel.receive`.

The per-operation CPU charges live in :class:`CostModel` so experiments can
calibrate or ablate them in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.sim import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.network import Lan
    from repro.cluster.node import Node
    from repro.sim.kernel import Simulator


class TransportError(Exception):
    """Base class for transport failures."""


class ChannelClosed(TransportError):
    """Raised when sending on, or receiving from, a closed channel."""


class MessageLost(TransportError):
    """An unreliable send exhausted its retries (datagram lost)."""


@dataclass(frozen=True)
class CostModel:
    """CPU charges for protocol processing on the reference PIII node.

    ``syscall`` covers the fixed cost of a send/recv system call plus
    protocol bookkeeping; ``per_byte`` covers copy + checksum work.  The
    defaults put a 1 KB message at ~60 µs of CPU per hop end, which, with the
    paper's 75 msg/s workload per simulated host, leaves CPU idle above 85 %
    on the generator nodes (§III.B) while letting a broker node saturate as
    fan-in grows.
    """

    syscall: float = 35e-6
    per_byte: float = 18e-9

    def send_cost(self, nbytes: float) -> float:
        return self.syscall + self.per_byte * nbytes

    def recv_cost(self, nbytes: float) -> float:
        return self.syscall + self.per_byte * nbytes


@dataclass
class Delivery:
    """What lands in a channel inbox."""

    payload: Any
    nbytes: float
    sent_at: float
    delivered_at: float


#: Sentinel pushed into inboxes when the peer closes the channel.
EOF = object()


class Channel:
    """One end of a bidirectional point-to-point conversation."""

    def __init__(self, sim: "Simulator", node: "Node", label: str):
        self.sim = sim
        self.node = node
        self.label = label
        self.inbox: Store = Store(sim)
        self.peer: Optional["Channel"] = None
        self.closed = False
        #: Optional push-mode hook: invoked (payload, nbytes) on delivery.
        self.on_deliver: Optional[Callable[[Delivery], None]] = None

    @property
    def host(self) -> str:
        return self.node.name

    @property
    def peer_host(self) -> str:
        assert self.peer is not None
        return self.peer.node.name

    # ------------------------------------------------------------- sending
    def send(self, payload: Any, nbytes: float) -> Generator[Any, Any, Any]:
        """Transfer ``payload`` to the peer.

        Returns the *delivery event*, which fires with the one-way latency as
        its value once the payload lands in the peer inbox.  Stream sends
        return as soon as the data is in the socket buffer (the event fires
        later); acknowledged-datagram sends only return after the ack round
        trip (the event has already fired), and raise
        :class:`~repro.transport.base.MessageLost` when retries run out.
        The receipt is triggered with :meth:`~repro.sim.events.Event.settle`:
        it costs a kernel event only when someone is waiting on it at
        delivery time; awaited later, it returns its value at once.

        Concrete transports override :meth:`_transfer`; this wrapper charges
        sender CPU and enforces the closed check.
        """
        if self.closed or self.peer is None:
            raise ChannelClosed(f"send on closed channel {self.label}")
        yield from self.node.execute(self.cost_model.send_cost(nbytes))
        delivery_event = yield from self._transfer(payload, nbytes)
        return delivery_event

    # Concrete transports set this; annotated here for clarity.
    cost_model: CostModel = CostModel()

    def _transfer(self, payload: Any, nbytes: float) -> Generator[Any, Any, Any]:
        raise NotImplementedError  # pragma: no cover

    # ----------------------------------------------------------- receiving
    def receive(self):
        """Event yielding the next :class:`Delivery` (or raising on close)."""
        ev = self.inbox.get()
        return ev

    def _deliver(self, payload: Any, nbytes: float, sent_at: float) -> None:
        """Called by the peer's transfer machinery at delivery time."""
        d = Delivery(
            payload=payload,
            nbytes=nbytes,
            sent_at=sent_at,
            delivered_at=self.sim.now,
        )
        if self.on_deliver is not None:
            self.on_deliver(d)
        else:
            self.inbox.put_nowait(d)

    # -------------------------------------------------------------- close
    def close(self) -> None:
        """Close both ends; pending receivers see EOF deliveries.

        The EOF follows the same path as data: push-mode ends (a broker's
        shared selector/request queue via ``on_deliver``) see it there, so
        reactor-style servers learn about client disconnects; pull-mode ends
        see it in their inbox.
        """
        for end in (self, self.peer):
            if end is not None and not end.closed:
                end.closed = True
                d = Delivery(EOF, 0, self.sim.now, self.sim.now)
                if end.on_deliver is not None:
                    end.on_deliver(d)
                else:
                    end.inbox.put_nowait(d)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self.closed else "open"
        return f"<{type(self).__name__} {self.label} {state}>"
