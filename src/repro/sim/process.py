"""Coroutine processes.

A :class:`Process` wraps a Python generator that yields :class:`Event`
instances.  The process suspends on each yielded event and resumes (with the
event's value, or with its exception raised) when the event is processed.
A process is itself an event, succeeding with the generator's return value,
so processes can wait on each other by yielding the :class:`Process`.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Process(Event):
    """A running coroutine inside the simulation."""

    __slots__ = ("_send", "_throw", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        try:
            # Bound methods cached once: the resume loop calls one of them per
            # context switch, and the attribute chain is measurable at scale.
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise TypeError(
                f"Process requires a generator, got {generator!r}"
            ) from None
        # ``Event.__init__``'s slots, written here (one Process per spawn).
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off at the current time via an immediately-scheduled event,
        # built born-triggered the way ``Simulator.timeout`` builds a Timeout
        # (one start entry per spawned process; no ``_PENDING`` churn).
        init = Event.__new__(Event)
        init.sim = sim
        init.callbacks = [self._resume]
        init._value = None
        init._ok = True
        init._processed = False
        init._defused = False
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, seq, init))

    # -- kernel resume path --------------------------------------------------
    def _resume(self, event: Event) -> None:
        sim = self.sim
        send = self._send
        while True:
            try:
                if event._ok:
                    yielded = send(event._value)
                else:
                    # Mark handled: the exception reaches the generator.
                    event.defuse()
                    yielded = self._throw(event._value)
            except StopIteration as stop:
                # Fire-and-forget processes have no waiter: no heap entry.
                # (A failure below always takes one, so run() surfaces it.)
                self.settle(stop.value)
                return
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(exc)
                return

            if not isinstance(yielded, Event):
                err = RuntimeError(
                    f"process {self.name!r} yielded non-event {yielded!r}"
                )
                self.fail(err)
                return
            if yielded.sim is not sim:
                self.fail(
                    RuntimeError(
                        f"process {self.name!r} yielded event from another simulator"
                    )
                )
                return
            if yielded._processed:
                # Already done: loop immediately with its outcome.
                event = yielded
                continue
            # Inlined Event.add_callback (hot: one call per suspension).
            callbacks = yielded.callbacks
            if callbacks is None:
                yielded.callbacks = [self._resume]
            else:
                callbacks.append(self._resume)
            return
