"""HTTP request/response framing over TCP.

R-GMA "uses SOAP messaging over HTTP/HTTPS and Java Servlet technology to
exchange request/response" (paper §II.A) and the tests ran over plain HTTP
because of HTTPS encryption overhead (§III.F).  This module provides the
client connection (with keep-alive) and the server accept plumbing; the
servlet *container* semantics (thread pools, connector limits) live in
:mod:`repro.rgma.servlet`, which plugs in as the server's dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.sim.events import TimedOut
from repro.transport.base import EOF, Channel, ChannelClosed, CostModel, TransportError
from repro.transport.tcp import TcpTransport

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.sim.kernel import Simulator

#: Request line + headers (Host, Content-Length, SOAPAction, ...).
REQUEST_HEADER_BYTES = 280
#: Status line + headers.
RESPONSE_HEADER_BYTES = 180


class HttpTimeout(TransportError):
    """No response arrived within the client's request timeout."""


@dataclass
class HttpRequest:
    """A request as seen by the server dispatcher."""

    path: str
    body: Any
    body_bytes: float
    channel: Channel
    _response_event: Any = field(default=None, repr=False)


@dataclass
class HttpResponse:
    status: int
    body: Any
    body_bytes: float
    latency: float = 0.0


class HttpServer:
    """Accepts connections on (node, port) and feeds requests to a dispatcher.

    ``dispatcher(request, respond)`` is called for every request;
    ``respond(status, body, body_bytes)`` must eventually be invoked —
    typically from a servlet-container worker thread — to send the response.
    """

    def __init__(
        self,
        sim: "Simulator",
        transport: TcpTransport,
        node: "Node",
        port: int,
        dispatcher: Callable[[HttpRequest, Callable[..., None]], None],
        accept_hook: Optional[Callable[[Channel], None]] = None,
    ):
        self.sim = sim
        self.transport = transport
        self.node = node
        self.port = port
        self.dispatcher = dispatcher
        self.accept_hook = accept_hook
        self.requests_served = 0
        transport.listen(node, port, self._on_connect)

    def close(self) -> None:
        self.transport.unlisten(self.node, self.port)

    def _on_connect(self, server_end: Channel) -> None:
        if self.accept_hook is not None:
            self.accept_hook(server_end)  # may raise (connector limit / OOM)
        self.sim.process(self._read_loop(server_end), name=f"http:{self.node.name}")

    def _read_loop(self, channel: Channel) -> Generator[Any, Any, None]:
        while True:
            delivery = yield channel.receive()
            if delivery.payload is EOF:
                return
            # Parse cost on the server node.
            yield from self.node.execute(
                self.transport.cost_model.recv_cost(delivery.nbytes)
            )
            request: HttpRequest = delivery.payload
            self.requests_served += 1

            def respond(
                status: int, body: Any, body_bytes: float, _ch: Channel = channel
            ) -> None:
                self.sim.process(
                    self._send_response(_ch, status, body, body_bytes),
                    name="http.respond",
                )

            self.dispatcher(request, respond)

    def _send_response(
        self, channel: Channel, status: int, body: Any, body_bytes: float
    ) -> Generator[Any, Any, None]:
        if channel.closed:
            return
        payload = HttpResponse(status=status, body=body, body_bytes=body_bytes)
        yield from channel.send(payload, body_bytes + RESPONSE_HEADER_BYTES)


class HttpClient:
    """A keep-alive HTTP/1.1 client bound to one origin server."""

    def __init__(
        self,
        sim: "Simulator",
        transport: TcpTransport,
        node: "Node",
        server_host: str,
        port: int,
    ):
        self.sim = sim
        self.transport = transport
        self.node = node
        self.server_host = server_host
        self.port = port
        self._channel: Optional[Channel] = None

    def request(
        self, path: str, body: Any, body_bytes: float, timeout: Optional[float] = None
    ) -> Generator[Any, Any, HttpResponse]:
        """Round-trip a request; returns the :class:`HttpResponse`.

        The connection is established lazily and reused (keep-alive); a
        closed connection is re-established once.  With ``timeout`` set, a
        response overdue by ``timeout`` seconds raises :class:`HttpTimeout`
        and drops the connection — a late response would desynchronise
        keep-alive framing, so the socket cannot be reused.
        """
        started = self.sim.now
        for attempt in (0, 1):
            if self._channel is None or self._channel.closed:
                self._channel = yield from self.transport.connect(
                    self.node, self.server_host, self.port
                )
            channel = self._channel
            req = HttpRequest(
                path=path, body=body, body_bytes=body_bytes, channel=channel
            )
            try:
                yield from channel.send(req, body_bytes + REQUEST_HEADER_BYTES)
            except ChannelClosed:
                self._channel = None
                if attempt:
                    raise
                continue
            if timeout is not None:
                try:
                    delivery = yield from self.sim.wait_for(channel.receive(), timeout)
                except TimedOut:
                    channel.close()
                    self._channel = None
                    raise HttpTimeout(
                        f"no response from {self.server_host}:{self.port} "
                        f"within {timeout}s"
                    ) from None
            else:
                delivery = yield channel.receive()
            if delivery.payload is EOF:
                self._channel = None
                if attempt:
                    raise TransportError("connection closed mid-request")
                continue
            yield from self.node.execute(
                self.transport.cost_model.recv_cost(delivery.nbytes)
            )
            response: HttpResponse = delivery.payload
            response.latency = self.sim.now - started
            return response
        raise TransportError("unreachable")  # pragma: no cover

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None
