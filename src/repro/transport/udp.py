"""UDP datagrams, with the optional ack protocol JMS forces onto them.

The paper's surprise result (§III.E.1): "The results of UDP test are
surprisingly high [RTT].  The possible reason is that we used JMS over UDP.
UDP is connectionless which has no guarantee whether a packet will be
received or not, but JMS requires an acknowledgement.  The way that Narada
acknowledges the messages severely slows the performance down."

Model: a raw datagram may be lost (random per-fragment loss or socket-buffer
overflow).  In ``acked`` mode — which Narada needs to give JMS semantics on
UDP — every datagram is followed by an ack datagram from the receiver, the
sender retransmits on an RTO timer, and gives up after ``max_retries``
(surfacing as message loss: the paper measured 0.06 %).  Each ack is a real
datagram: it consumes LAN capacity and CPU on both ends, doubling the
per-message work and inflating RTT mean and deviation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.cluster.network import FRAME_OVERHEAD_UDP
from repro.sim.events import Event, TimedOut
from repro.transport.base import (
    Channel,
    CostModel,
    MessageLost,
    TransportError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.network import Lan
    from repro.cluster.node import Node
    from repro.sim.kernel import Simulator

ACK_BYTES = 32


class UdpChannel(Channel):
    """A pseudo-connection: a (src, dst, port) association for datagrams."""

    server_mode = "datagram"

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        label: str,
        lan: "Lan",
        cost_model: CostModel,
        loss_probability: float,
        acked: bool,
        rto: float,
        max_retries: int,
    ):
        super().__init__(sim, node, label)
        self.lan = lan
        self.cost_model = cost_model
        self.loss_probability = loss_probability
        self.acked = acked
        self.rto = rto
        self.max_retries = max_retries
        #: Counters for loss accounting.
        self.datagrams_sent = 0
        self.datagrams_lost = 0
        self.retransmissions = 0

    # ------------------------------------------------------------ transfer
    def _transfer(self, payload: Any, nbytes: float) -> Generator[Any, Any, Event]:
        if self.acked:
            ev = yield from self._send_acked(payload, nbytes)
            return ev
        ev = self._send_raw(payload, nbytes)
        if ev is None:
            self.datagrams_lost += 1
            raise MessageLost(f"datagram dropped on {self.label}")
        return ev

    def _send_raw(
        self, payload: Any, nbytes: float, dedupe: Optional[dict] = None
    ) -> Optional[Event]:
        """Fire one datagram; returns its delivery event or None if dropped.

        ``dedupe`` (shared across retransmissions of one logical message)
        suppresses duplicate inbox deliveries when a datagram arrived but its
        ack was lost — real receivers discard duplicates by message id.
        """
        self.datagrams_sent += 1
        sent_at = self.sim.now
        wire_ev = self.lan.transmit(
            self.host,
            self.peer_host,
            nbytes,
            droppable=True,
            loss_probability=self.loss_probability,
            overhead=FRAME_OVERHEAD_UDP,
        )
        if wire_ev is None:
            return None
        done = self.sim.event()
        peer = self.peer
        assert peer is not None

        def on_wire(_ev: Event) -> None:
            if dedupe is None or not dedupe.get("delivered"):
                if dedupe is not None:
                    dedupe["delivered"] = True
                peer._deliver(payload, nbytes, sent_at)
            done.settle(self.sim.now - sent_at)

        wire_ev.add_callback(on_wire)
        return done

    def _send_acked(self, payload: Any, nbytes: float) -> Generator[Any, Any, Event]:
        """Stop-and-wait with retransmission; raises MessageLost on give-up."""
        attempts = 0
        dedupe: dict = {"delivered": False}
        while True:
            delivery = self._send_raw(payload, nbytes, dedupe)
            # A dropped datagram is never acked.  Otherwise the receiver side
            # acks after it arrives: a return datagram scheduled at delivery
            # time, costing CPU on the receiving node.
            ack = self.sim.event() if delivery is None else self._schedule_ack(delivery)
            try:
                yield from self.sim.wait_for(ack, self.rto)
                return delivery  # type: ignore[return-value]
            except TimedOut:
                attempts += 1
                self.retransmissions += 1
                if attempts > self.max_retries:
                    self.datagrams_lost += 1
                    raise MessageLost(
                        f"{self.label}: no ack after {attempts} attempts"
                    ) from None

    def _schedule_ack(self, delivery: Event) -> Event:
        """Ack datagram flowing back; may itself be lost."""
        ack_received = self.sim.event()
        peer = self.peer
        assert peer is not None

        def on_delivered(_ev: Event) -> None:
            # Receiver CPU to generate the ack.
            def ack_job() -> Generator[Any, Any, None]:
                yield from peer.node.execute(self.cost_model.send_cost(ACK_BYTES))
                wire = self.lan.transmit(
                    self.peer_host,
                    self.host,
                    ACK_BYTES,
                    droppable=True,
                    loss_probability=self.loss_probability,
                    overhead=FRAME_OVERHEAD_UDP,
                )
                if wire is None:
                    return  # ack lost; sender will retransmit
                yield wire
                if not ack_received.triggered:
                    ack_received.succeed()

            self.sim.process(ack_job(), name=f"{self.label}.ack")

        delivery.add_callback(on_delivered)
        return ack_received


class UdpTransport:
    """Datagram channel factory.

    Parameters
    ----------
    loss_probability:
        Per-fragment random loss on the (otherwise clean) LAN — models NIC
        and kernel buffer misses under burst load.
    acked:
        When True, channels run the stop-and-wait ack protocol (JMS mode).
    rto:
        Retransmission timeout (seconds).
    max_retries:
        Retransmissions before the message is declared lost.
    """

    def __init__(
        self,
        sim: "Simulator",
        lan: "Lan",
        cost_model: Optional[CostModel] = None,
        loss_probability: float = 0.004,
        acked: bool = True,
        rto: float = 0.2,
        max_retries: int = 2,
    ):
        self.sim = sim
        self.lan = lan
        self.cost_model = cost_model or CostModel()
        self.loss_probability = loss_probability
        self.acked = acked
        self.rto = rto
        self.max_retries = max_retries
        self._listeners: dict[tuple[str, int], tuple["Node", Callable[[Channel], None]]] = {}

    def listen(
        self, node: "Node", port: int, acceptor: Callable[[Channel], None]
    ) -> None:
        key = (node.name, port)
        if key in self._listeners:
            raise TransportError(f"port {port} already bound on {node.name}")
        self._listeners[key] = (node, acceptor)

    def unlisten(self, node: "Node", port: int) -> None:
        self._listeners.pop((node.name, port), None)

    def connect(
        self, client_node: "Node", server_host: str, port: int
    ) -> Generator[Any, Any, Channel]:
        """No handshake on UDP: create the association immediately.

        Still a generator for interface parity with TCP (a Narada client
        performs an application-level hello, modelled as one datagram)."""
        key = (server_host, port)
        if key not in self._listeners:
            raise TransportError(f"no UDP listener at {server_host}:{port}")
        server_node, acceptor = self._listeners[key]
        label = f"udp:{client_node.name}->{server_host}:{port}"

        def mk(node: "Node", suffix: str) -> UdpChannel:
            return UdpChannel(
                self.sim,
                node,
                label + suffix,
                self.lan,
                self.cost_model,
                self.loss_probability,
                self.acked,
                self.rto,
                self.max_retries,
            )

        client_end = mk(client_node, "#c")
        server_end = mk(server_node, "#s")
        client_end.peer = server_end
        server_end.peer = client_end
        hello = self.lan.transmit(client_node.name, server_host, ACK_BYTES)
        if hello is not None:
            yield hello
        acceptor(server_end)
        return client_end
