"""Transport protocols over the simulated LAN.

NaradaBrokering "supports a number of underlying data transport protocols,
including blocking and non-blocking TCP, UDP, multicast, SSL, HTTP, HTTPS and
Parallel TCP streams" (paper §II.B); the comparison tests exercise UDP, NIO
and TCP (Table II) and R-GMA runs over HTTP (§III.F).  This package models
the four that the evaluation depends on:

* :mod:`repro.transport.tcp` — blocking TCP: connection handshake, reliable
  ordered delivery.
* :mod:`repro.transport.nio` — same wire protocol; differs on the *server
  threading model* (shared selector), which is where the paper's TCP-vs-NIO
  gap comes from.
* :mod:`repro.transport.udp` — unreliable datagrams with optional
  transport-level acknowledgement + retransmission (the "JMS over UDP"
  pathology of §III.E.1).
* :mod:`repro.transport.http` — request/response framing on TCP for R-GMA.
"""

from repro.transport.base import (
    Channel,
    ChannelClosed,
    CostModel,
    MessageLost,
    TransportError,
)
from repro.transport.tcp import TcpTransport
from repro.transport.nio import NioTransport
from repro.transport.udp import UdpTransport
from repro.transport.http import HttpClient, HttpRequest, HttpResponse, HttpServer

__all__ = [
    "Channel",
    "ChannelClosed",
    "CostModel",
    "HttpClient",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "MessageLost",
    "NioTransport",
    "TcpTransport",
    "TransportError",
    "UdpTransport",
]
