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

from repro.cluster.network import FRAME_OVERHEAD_TCP
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
    """One end of an established TCP connection."""

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

    def _transfer(self, payload: Any, nbytes: float) -> Generator[Any, Any, Event]:
        """Hand bytes to the kernel; returns the delivery event immediately.

        Blocking TCP ``send()`` returns once the data is in the socket buffer
        (these messages are far below the buffer size), so the sender does
        not wait for delivery.
        """
        sent_at = self.sim.now
        seq = self._send_seq
        self._send_seq += 1
        wire_ev = self.lan.transmit(
            self.host, self.peer_host, nbytes, overhead=FRAME_OVERHEAD_TCP
        )
        assert wire_ev is not None  # stream traffic is never dropped
        done = self.sim.event()

        def on_wire(_ev: Event) -> None:
            self._arrived[seq] = (payload, nbytes, sent_at, done)
            self._flush_in_order()

        wire_ev.add_callback(on_wire)
        if False:  # pragma: no cover - keeps this a generator function
            yield
        return done

    def _flush_in_order(self) -> None:
        """Deliver every consecutive segment that has arrived."""
        peer = self.peer
        assert peer is not None
        while self._deliver_seq in self._arrived:
            payload, nbytes, sent_at, done = self._arrived.pop(self._deliver_seq)
            self._deliver_seq += 1
            peer._deliver(payload, nbytes, sent_at)
            done.settle(self.sim.now - sent_at)


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
