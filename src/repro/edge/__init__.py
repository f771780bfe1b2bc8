"""repro.edge — long-poll gateway tier in front of the brokers.

Millions of grid operators don't speak JMS: in production they sit behind
an HTTP front door (R-GMA itself is servlet-shaped, arXiv cs/0308024).
This package models that tier: :class:`EdgeGateway` processes accept huge
client populations over :mod:`repro.transport.http`, park 60 s long-poll
requests per subscription, and multiplex them onto a *small* pool of
upstream broker connections — one pooled subscription per distinct topic
per gateway, à la pgbouncer, reusing the covering-subscription idea from
:mod:`repro.federation.routing`.  The pooled subscription is the
middleware's own receiver (:mod:`repro.powergrid.receiver`) with the
gateway's ingest in place of its recorder.  Missed windows replay from a
per-topic :class:`ReplayRing`, so a client whose poll timed out or whose
gateway crashed re-polls with a cursor and catches up exactly once.
"""

from repro.edge.client import EdgeClient, EdgeClientStats
from repro.edge.config import EdgeConfig
from repro.edge.gateway import EdgeGateway
from repro.edge.replay import ReplayRing

__all__ = [
    "EdgeClient",
    "EdgeClientStats",
    "EdgeConfig",
    "EdgeGateway",
    "ReplayRing",
]
