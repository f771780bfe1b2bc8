"""Blocking TCP: connection handshake + reliable in-order delivery.

The paper's verdict: "TCP is a very stable transport protocol and has
excellent performance" (§III.E.1).  On a lossless switched LAN the protocol
reduces to serialisation + queueing + a per-segment CPU charge, which is what
this model implements.  Reliability machinery (retransmission) never fires
because the LAN never drops stream traffic; what distinguishes transports in
the comparison experiment is their *ack behaviour* (UDP) and *server
threading* (NIO), not TCP's sliding window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.sim.events import Event
from repro.transport.base import (
    Channel,
    ChannelClosed,
    CostModel,
    TransportError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.network import Lan
    from repro.cluster.node import Node
    from repro.sim.kernel import Simulator

#: Bytes on the wire for SYN / SYN-ACK / ACK handshake frames.
HANDSHAKE_FRAME_BYTES = 64


class TcpChannel(Channel):
    """One end of an established TCP connection.

    A send is one heap entry: the segment's wire arrival, scheduled where
    :meth:`~repro.cluster.network.Lan.transmit` would schedule it
    (``now + delay``), carrying the segment as its value, with
    :meth:`_arrive` as its only callback (``Simulator.batch``).
    """

    #: Threading hint servers use: "blocking" = thread per connection.
    server_mode = "blocking"

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        label: str,
        lan: "Lan",
        cost_model: CostModel,
    ):
        super().__init__(sim, node, label)
        self.lan = lan
        self.cost_model = cost_model
        # In-order delivery: segments are sequenced at send time and
        # reassembled at the receiver — LAN jitter may complete wire events
        # out of order, but a stream must never reorder.
        self._send_seq = 0
        self._deliver_seq = 0
        self._arrived: dict[int, tuple[Any, float, float, Event]] = {}

    def send(self, payload: Any, nbytes: float) -> Generator[Any, Any, Event]:
        """Charge the sender's CPU, then hand the bytes to the kernel.

        Blocking TCP ``send()`` returns once the data is in the socket buffer
        (these messages are far below the buffer size), so the sender does
        not wait for delivery: the returned receipt settles later.
        """
        if self.closed or self.peer is None:
            raise ChannelClosed(f"send on closed channel {self.label}")
        yield from self.node.execute(self.cost_model.send_cost(nbytes))
        sim = self.sim
        delay = self.lan.transfer_delay(self.node.name, self.peer.node.name, nbytes)
        assert delay is not None  # stream traffic is never dropped
        seq = self._send_seq
        self._send_seq = seq + 1
        done = Event(sim)
        sim.batch(delay, self._arrive, (seq, payload, nbytes, sim._now, done))
        return done

    def _arrive(self, wire: Event) -> None:
        """A segment is off the wire.  Deliver it if it is next in line,
        then every later segment that came off the wire before it and was
        held back; otherwise hold it back."""
        seq, payload, nbytes, sent_at, done = wire._value
        arrived = self._arrived
        if seq == self._deliver_seq and not arrived:
            # Next in line with nothing held back: the common case.
            self._deliver_seq = seq + 1
            self.peer._deliver(payload, nbytes, sent_at)
            done.settle(self.sim._now - sent_at)
            return
        arrived[seq] = (payload, nbytes, sent_at, done)
        peer = self.peer
        while self._deliver_seq in arrived:
            payload, nbytes, sent_at, done = arrived.pop(self._deliver_seq)
            self._deliver_seq += 1
            peer._deliver(payload, nbytes, sent_at)
            done.settle(self.sim._now - sent_at)


class TcpTransport:
    """Connection factory: ``listen`` on a node, ``connect`` from another."""

    channel_class = TcpChannel

    def __init__(self, sim: "Simulator", lan: "Lan", cost_model: Optional[CostModel] = None):
        self.sim = sim
        self.lan = lan
        self.cost_model = cost_model or CostModel()
        self._listeners: dict[tuple[str, int], tuple["Node", Callable[[Channel], None]]] = {}

    def listen(
        self, node: "Node", port: int, acceptor: Callable[[Channel], None]
    ) -> None:
        """Register ``acceptor`` to be called with the server-side channel of
        every new connection to ``node:port``."""
        key = (node.name, port)
        if key in self._listeners:
            raise TransportError(f"port {port} already bound on {node.name}")
        self._listeners[key] = (node, acceptor)

    def unlisten(self, node: "Node", port: int) -> None:
        self._listeners.pop((node.name, port), None)

    def connect(
        self, client_node: "Node", server_host: str, port: int
    ) -> Generator[Any, Any, Channel]:
        """Three-way handshake; returns the client-side channel.

        Raises :class:`TransportError` when nothing listens on the target.
        """
        key = (server_host, port)
        if key not in self._listeners:
            raise TransportError(f"connection refused: {server_host}:{port}")
        server_node, acceptor = self._listeners[key]

        # SYN →
        syn = self.lan.transmit(
            client_node.name, server_host, HANDSHAKE_FRAME_BYTES
        )
        assert syn is not None
        yield syn
        # Server-side accept cost, then channel pair creation.
        yield from server_node.execute(self.cost_model.syscall)
        label = f"tcp:{client_node.name}->{server_host}:{port}"
        client_end = self.channel_class(
            self.sim, client_node, label + "#c", self.lan, self.cost_model
        )
        server_end = self.channel_class(
            self.sim, server_node, label + "#s", self.lan, self.cost_model
        )
        client_end.peer = server_end
        server_end.peer = client_end
        # ← SYN-ACK (the final ACK piggybacks on first data, not modelled).
        synack = self.lan.transmit(
            server_host, client_node.name, HANDSHAKE_FRAME_BYTES
        )
        assert synack is not None
        # The acceptor learns about the connection when the handshake
        # completes server-side; it may raise (e.g. OutOfMemory in a
        # thread-per-connection server), which propagates to the connector
        # as a refused connection.
        acceptor(server_end)
        yield synack
        return client_end
