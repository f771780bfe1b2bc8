"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes wait on events by ``yield``-ing them; the kernel resumes the process
when the event is *processed* (its callbacks run).

Lifecycle::

    pending  --succeed()/fail()-->  triggered  --kernel pop-->  processed
    pending  --settle(), nobody listening----------------->  processed
    Timeout (triggered)  --Simulator.cancel()------------>  processed (failed
                                                            with Cancelled,
                                                            defused)

:meth:`Event.settle` is the primitive for occurrences that are usually
*unobserved* — a fire-and-forget process finishing, a transport's delivery
receipt.  It takes a heap entry only when a callback is registered at that
moment; otherwise the event is processed in place, and a later ``yield`` on
it continues immediately at the same timestamp (exactly as for any other
processed event).  See :mod:`repro.sim.kernel` for the rule this follows.
There is deliberately no ``fail_now``: an empty ``callbacks`` list does not
make a *failure* unobservable, because the kernel's pop is what surfaces an
unhandled exception out of ``run()``.

:class:`AnyOf` is the one fan-in wait.  Middleware code reaches it through
:meth:`repro.sim.kernel.Simulator.wait_for` (a reply *or* a deadline).

Hot-path note: ``callbacks`` is ``None`` both *before* any waiter registers
(lazy — a :class:`Timeout` nobody waits on never allocates the list) and
*after* the kernel processed the event; ``_processed`` distinguishes the two.
Use :meth:`Event.add_callback` rather than mutating ``callbacks`` directly —
it handles the lazy state and refuses processed events.  A bare
``Event(sim)`` still starts with an empty list so existing
``ev.callbacks.append(...)`` call sites keep working.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.kernel import Simulator

#: Sentinel for "event has no value yet".
_PENDING = object()


class Cancelled(Exception):
    """The value of a timer withdrawn by :meth:`repro.sim.kernel.Simulator.cancel`.

    Raised into a process that yields a cancelled timer, and into the
    waiters of a condition built over one.
    """


class TimedOut(Exception):
    """The deadline of a ``Simulator.wait_for`` came first; ``timeout`` is the wait."""

    def __init__(self, timeout: float):
        super().__init__(f"no outcome within {timeout}s")
        self.timeout = timeout


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        Owning simulator.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables invoked (with this event) when the event is processed.
        #: ``None`` once processed — or, on lazy subclasses, before the first
        #: :meth:`add_callback`.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._processed: bool = False
        self._defused: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the kernel queue."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception when it failed)."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    # -- callbacks ---------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when this event is processed.

        Allocates the callback list on first use (the common yield-timeout
        case never needs one when nothing waits).
        """
        callbacks = self.callbacks
        if callbacks is None:
            if self._processed:
                raise RuntimeError(f"{self!r} already processed")
            self.callbacks = [fn]
        else:
            callbacks.append(fn)

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``.

        ``Simulator._schedule`` inlined: this is the hot trigger (CPU job
        completions, store hand-offs, every ``transmit``).
        """
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now + delay, seq, self))
        return self

    def succeed_at(self, when: float, value: Any = None) -> "Event":
        """``succeed(value)`` at absolute time ``when`` (>= now), exactly.

        ``succeed(delay=when - now)`` lands on ``now + (when - now)``, which
        can be an ulp off ``when`` when ``now`` is small against it; this
        entry's time is ``when`` itself.
        """
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        sim = self.sim
        if when < sim._now:
            raise ValueError(f"succeed_at({when}) is in the past (now={sim._now})")
        self._ok = True
        self._value = value
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (when, seq, self))
        return self

    def settle(self, value: Any = None) -> "Event":
        """Succeed at the current instant; schedule only if someone listens.

        With a callback registered this is ``succeed(value)``: one heap
        entry, callbacks run at the kernel pop, same-instant order kept.
        With none, popping the entry would run nothing and resume nobody, so
        the event is marked processed here and costs no kernel event.
        """
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        if self.callbacks:
            self.sim._schedule(self)
        else:
            self.callbacks = None
            self._processed = True
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def defuse(self) -> "Event":
        """Mark a failed event as handled so the kernel does not re-raise it."""
        self._defused = True
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self._processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` units after creation.

    The workhorse of every timed behaviour in the models: link serialisation
    time, CPU service time, publish intervals, poll intervals.  It is born
    triggered, so its one constructor — :meth:`Simulator.timeout` (and
    :meth:`Simulator.batch`, which pre-installs a callback) — writes its
    slots directly (no ``_PENDING`` churn) and leaves ``callbacks``
    unallocated until a waiter registers.
    """

    __slots__ = ("delay",)


class AnyOf(Event):
    """Triggered as soon as any child event is processed.

    The value maps each processed, successful child to its value.  A child
    that fails first fails the condition (and is defused); one that fails
    after the trigger but before the waiters resume is defused too, since
    :meth:`~repro.sim.kernel.Simulator.wait_for` raises it at the resume.
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = tuple(events)
        for event in self._events:
            if event.sim is not sim:
                raise ValueError("cannot mix events from different simulators")
        if not self._events:
            self.succeed({})
            return
        on_child = self._on_child
        for event in self._events:
            if event._processed:
                on_child(event)
                return  # already triggered; don't register on the rest
            event.add_callback(on_child)

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            if not event._ok and not self._processed:
                event.defuse()
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self.succeed({e: e._value for e in self._events if e._processed and e._ok})
