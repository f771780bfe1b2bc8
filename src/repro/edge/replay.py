"""Per-topic replay ring: the gateway's catch-up window.

Every upstream event lands in a bounded ring and gets a monotonically
increasing sequence number.  A long-poll carries a cursor ``(epoch, seq)``:
``seq`` is the next ring sequence the client has not seen, ``epoch``
identifies the gateway incarnation that issued it (a restarted or different
gateway starts a fresh ring, so foreign cursors are meaningless there and
the client falls back to a *time* cursor — everything created since its
last delivered event, minus a skew margin).

Retained seqs are contiguous: :meth:`ReplayRing.append` hands out
``_next_seq`` and eviction pops from the left, so the ring always holds
``end_seq - len(ring) … end_seq - 1`` in order.  A cursor read therefore
computes where ``cursor`` sits and copies only the events it returns — a
caught-up poll touches nothing, however full the ring.
:meth:`ReplayRing.read_since_created` stays a linear scan on purpose: its
traffic is the failover path only — 42 / 27 / 44 catch-up reads against
30 646 / 69 248 / 63 174 cursor reads in ``edge_gateway_crash`` /
``scenario_edge_storm`` / ``edge_scaling`` at ``--scale smoke --seed 1``,
each over a ring holding at most 280 events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class ReplayEvent:
    """One retained upstream event."""

    seq: int
    payload: Any
    nbytes: float
    #: Sim time the event entered the gateway.
    t_in: float
    #: Sim time the originating record was created (global clock — the
    #: portable cursor for cross-gateway failover catch-up).
    created: float


def _check_limit(limit: Optional[int]) -> None:
    if limit is not None and limit < 1:
        raise ValueError(f"read limit must be >= 1 or None, got {limit!r}")


class ReplayRing:
    """Bounded per-topic event history with cursor and time reads."""

    def __init__(self, topic: str, capacity: int, epoch: str):
        if capacity < 1:
            raise ValueError(f"replay ring capacity must be >= 1, got {capacity!r}")
        self.topic = topic
        self.capacity = capacity
        #: Identifies the gateway incarnation that owns this ring.
        self.epoch = epoch
        self._events: deque[ReplayEvent] = deque()
        self._next_seq = 0
        self.appended = 0
        self.evicted = 0

    # ------------------------------------------------------------------ write
    def append(self, payload: Any, nbytes: float, t_in: float, created: float) -> ReplayEvent:
        event = ReplayEvent(self._next_seq, payload, nbytes, t_in, created)
        self._next_seq += 1
        self._events.append(event)
        self.appended += 1
        if len(self._events) > self.capacity:
            self._events.popleft()
            self.evicted += 1
        return event

    # ------------------------------------------------------------------- read
    @property
    def end_seq(self) -> int:
        """The cursor a fully caught-up client holds."""
        return self._next_seq

    @property
    def oldest_seq(self) -> Optional[int]:
        return self._events[0].seq if self._events else None

    def __len__(self) -> int:
        return len(self._events)

    def read(
        self, cursor: int, limit: Optional[int] = None
    ) -> tuple[list[ReplayEvent], int, bool]:
        """Events at/after ``cursor``; returns ``(events, next_cursor,
        truncated)``.

        ``truncated`` is True when ``cursor`` fell off the ring's tail —
        the client was away longer than the retained window, so events were
        irrecoverably missed at this gateway.  Costs O(events returned).
        """
        _check_limit(limit)
        events = self._events
        size = len(events)
        oldest = self._next_seq - size
        truncated = cursor < oldest
        start = max(cursor - oldest, 0)
        stop = size if limit is None else min(size, start + limit)
        if start >= stop:
            return [], max(cursor, self._next_seq), truncated
        # Deque indexing walks from the nearer end; readers sit near the tail.
        out = [events[i] for i in range(start, stop)]
        return out, out[-1].seq + 1, truncated

    def read_since_created(
        self,
        since: float,
        limit: Optional[int] = None,
        matches: Optional[Callable[[ReplayEvent], bool]] = None,
    ) -> tuple[list[ReplayEvent], int]:
        """Events whose originating record was created at/after ``since``.

        The failover path: a client arriving from another gateway has no
        usable ``seq`` cursor here, only the created-time of its last
        delivered event (the one clock both gateways share).  Returns the
        matching events and the ``next_cursor`` that resumes normal cursor
        reads afterwards.
        """
        _check_limit(limit)
        out: list[ReplayEvent] = []
        for event in self._events:
            if event.created >= since and (matches is None or matches(event)):
                out.append(event)
                if limit is not None and len(out) >= limit:
                    break
        next_cursor = out[-1].seq + 1 if out else self._next_seq
        return out, next_cursor
