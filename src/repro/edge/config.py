"""Gateway-tier tunables.

One frozen dataclass: a run spec carries the whole configuration (its
``repr`` is part of the sweep-cache key), so a sweep point run with a
different gateway budget never satisfies a lookup for another.
"""

from __future__ import annotations

from dataclasses import dataclass

MiB = 1024 * 1024


@dataclass(frozen=True)
class EdgeConfig:
    """Behaviour and budgets of one :class:`~repro.edge.gateway.EdgeGateway`."""

    #: Server-side park time for an empty long-poll before it returns 204.
    long_poll_timeout: float = 60.0
    #: Modeled body bytes of one ``/edge/poll`` request (topic + cursor).
    poll_request_bytes: float = 96.0
    #: Modeled body bytes per event in a poll response.
    event_bytes: float = 140.0
    #: Entries retained per topic in the replay ring.
    replay_capacity: int = 4096
    #: Heap retained per parked client connection (socket buffers + parked
    #: request state); multiplied by the poll's cohort weight.
    parked_heap_bytes: float = 9216.0
    #: Fraction of the gateway heap parked connections may occupy before
    #: new polls are shed with 503.
    shed_heap_fraction: float = 0.85
    #: Cap on events returned by a single poll response.
    max_events_per_poll: int = 64
    #: Base + jitter for the 503 Retry-After hint (seconds).
    retry_after: float = 1.0
    retry_after_jitter: float = 2.0
    #: Failover catch-up overlap: a client that switches gateways asks for
    #: everything created since ``last_created - catch_up_margin`` and
    #: deduplicates the overlap client-side.
    catch_up_margin: float = 1.0
    #: Gateway JVM heap.
    heap_bytes: float = 1024 * MiB
    #: CPU charged on the gateway per event written into a response, and
    #: per poll request handled.
    cpu_per_event: float = 20e-6
    cpu_per_poll: float = 30e-6

    def __post_init__(self) -> None:
        # Out of range, each of these runs but misbehaves silently (a
        # capacity-0 ring is always empty, so every cursor read is
        # "truncated"; a 0-event page still carries one event; ...).
        # Written as "holds" tests so that NaN fails them too.
        rules = {
            "replay_capacity": (self.replay_capacity >= 1, ">= 1"),
            "max_events_per_poll": (self.max_events_per_poll >= 1, ">= 1"),
            "long_poll_timeout": (self.long_poll_timeout > 0, "> 0"),
            "shed_heap_fraction": (0 < self.shed_heap_fraction <= 1, "in (0, 1]"),
        }
        for name in ("poll_request_bytes", "event_bytes", "parked_heap_bytes",
                     "cpu_per_event", "cpu_per_poll"):
            rules[name] = (getattr(self, name) >= 0, ">= 0")
        problems = [
            f"{name}={getattr(self, name)!r} (need {need})"
            for name, (holds, need) in rules.items()
            if not holds
        ]
        if problems:
            raise ValueError("invalid EdgeConfig: " + ", ".join(problems))
