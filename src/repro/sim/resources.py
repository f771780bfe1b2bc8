"""Shared resources: stores and semaphores.

These model the queueing structures middleware is made of: socket buffers,
broker dispatch queues, servlet thread pools.  All waiting is FIFO, which
keeps latency behaviour deterministic and easy to reason about.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class StoreFull(Exception):
    """Raised by :meth:`Store.put_nowait` when a bounded store is full."""


class Store:
    """FIFO item queue with optional capacity.

    ``put`` blocks while the store is full; ``get`` blocks while it is empty.
    ``put_nowait`` either enqueues or raises :class:`StoreFull` — that is the
    drop point for lossy components (UDP sockets, overloaded brokers).
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("Store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` has been accepted."""
        ev = Event(self.sim)
        if len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
            self._wake_getters()
        else:
            self._putters.append((ev, item))
        return ev

    def put_nowait(self, item: Any) -> None:
        """Enqueue immediately or raise :class:`StoreFull`.

        A getter waits only while the store is empty, so a waiting getter
        takes ``item`` straight away — what ``_wake_getters`` would do.
        """
        if self._getters and not self.items:
            self._getters.popleft().succeed(item)
            return
        if len(self.items) >= self.capacity:
            raise StoreFull(f"store at capacity {self.capacity}")
        self.items.append(item)
        self._wake_getters()

    def get(self) -> Event:
        """Event that fires with the next item."""
        ev = Event(self.sim)
        if self.items:
            ev.succeed(self.items.popleft())
            self._admit_putters()
        else:
            self._getters.append(ev)
        return ev

    def get_nowait(self) -> Any:
        """Dequeue immediately or raise ``IndexError``."""
        item = self.items.popleft()
        self._admit_putters()
        return item

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending ``get`` (e.g. its waiter timed out).

        No-op when the event already received an item or was never queued.
        """
        try:
            self._getters.remove(event)
        except ValueError:
            pass

    def _wake_getters(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            getter.succeed(self.items.popleft())

    def _admit_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter, item = self._putters.popleft()
            self.items.append(item)
            putter.succeed()
        self._wake_getters()


class Resource:
    """Counting semaphore with FIFO waiters (e.g. a thread pool).

    Usage::

        yield pool.acquire()
        try:
            ...
        finally:
            pool.release()
    """

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity < 1:
            raise ValueError("Resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self) -> Event:
        ev = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def cancel(self, event: Event) -> None:
        """Withdraw a pending ``acquire`` whose waiter no longer wants the unit.

        No-op when the event was already handed a unit or was never queued.
        """
        try:
            self._waiters.remove(event)
        except ValueError:
            pass

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            # Hand the unit directly to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1
