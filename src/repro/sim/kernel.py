"""The simulation kernel: an event heap and a clock.

One :class:`Simulator` instance owns all simulated state for an experiment.
Time is a float in **seconds** of simulated time throughout :mod:`repro`.

An event is processed in three places, each written out in full with the
heap and the pop function bound to locals: :meth:`Simulator.run` without
``until``, :meth:`Simulator.run` with ``until``, and
:meth:`Simulator.run_process`.  Every paper-scale experiment is bounded by
these loops, and per-event attribute lookups and method-call frames were
their largest cost.  The three copies share one semantics — pop in
``(time, seq)`` order, skip a cancelled timer without moving the clock,
mark the event processed, run its callbacks, and raise a failure nobody
defused — and a change to one is a change to all three.

What gets a heap entry
----------------------
Per-event cost is near the ``heapq`` floor, so the remaining lever is the
*number* of events.  The rule the models above follow:

    An occurrence gets a heap entry iff it can change which callback runs
    next.

Everything that shares a timestamp runs in scheduling order (the sequence
number), so a zero-delay entry is not free bookkeeping — it is a statement
about same-instant order, and it is kept exactly where that order matters:

* ``Store`` getter wake-ups and the contended hand-off in
  ``Resource.release`` (the servlet worker pools) — the woken process must
  run *after* whatever was already scheduled at this instant, or FIFO
  service order changes;
* process start — ``sim.process(...)`` returns before the new process runs
  its first step, and siblings start in spawn order;
* any failure (``Event.fail``, a process that raises) — the kernel's pop is
  what surfaces an unhandled exception from :meth:`Simulator.run`, so an
  empty callback list does not make a failure unobservable.

and dropped where popping the entry could only re-enter the same process at
the same instant, or nobody at all:

* a CPU hand-off — ``cluster.Node`` is a FIFO single server that starts its
  next job itself: an idle CPU is taken on the spot, and when a job ends or
  is killed the next queued job's completion is scheduled directly, so a
  job costs one entry (its completion) however it reached the CPU;
* an idle tick — an R-GMA producer's stream loop parks while no consumer
  has a tuple newer than its cursor and is woken, by an insert, a
  republish or an attach, straight at the tick its always-ticking chain
  would have reached (:meth:`repro.sim.events.Event.succeed_at`, exact to
  the float);
* a success nobody listens to — a fire-and-forget process finishing, a
  transport delivery receipt nobody awaits — via
  :meth:`repro.sim.events.Event.settle`, which schedules only when a callback
  is registered at that moment and otherwise marks the event processed in
  place.  A later ``yield`` on it continues immediately, same timestamp.

* a deadline that lost its race — :meth:`Simulator.cancel` withdraws a
  :class:`~repro.sim.events.Timeout` whose pop could only run a callback that
  returns at once (an expired long-poll already answered, the deadline of a
  :meth:`Simulator.wait_for` the event won).  It drops the callbacks, and
  everything they keep alive, immediately; the heap entry goes lazily — it
  is skipped when popped, and the heap is rebuilt without cancelled entries
  once they are more than half of it and over 100 (asyncio's rule), so a
  cancel costs O(1) amortised.  The entry was counted when it was scheduled
  and stays counted; a cancelled entry never moves the clock.

Removing an entry whose pop runs nothing cannot reorder the entries that
remain.  Starting a CPU job on the spot, or at the instant the job ahead of
it ends, starts the same service at the same ``now`` for the same duration;
its timer is only created earlier *within* that instant, so it could trade
places only with an unrelated timer expiring at exactly the same float time.
A parked stream loop's tick lands on the same float as before, but its entry
is created at the wake-up, so it could trade places with another entry due
at exactly that float (DESIGN.md §7 names the two such ties).  No registered
experiment has such a tie: every output is byte-identical (DESIGN.md §7 has
the event counts).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.events import AnyOf, Cancelled, Event, TimedOut, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngStreams

#: Cancelled entries tolerated in the heap before a rebuild is considered.
_REBUILD_MIN_CANCELLED = 100


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all randomness.  Every consumer of randomness draws from
        a named stream derived from this seed (see :class:`RngStreams`), which
        keeps runs bit-reproducible and streams independent of each other.

    Notes
    -----
    Events scheduled at the same time are processed in scheduling order
    (a monotone sequence number breaks ties), which makes the simulation
    fully deterministic without relying on heap stability.
    """

    __slots__ = ("rng", "_now", "_queue", "_seq", "_active_process", "_cancelled")

    def __init__(self, seed: int = 0):
        self.rng = RngStreams(seed)
        self._now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        #: Cancelled timers still sitting in ``_queue``.  They are the only
        #: heap entries whose event is already marked processed.
        self._cancelled: int = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def pending_events(self) -> int:
        """Live heap entries (cancelled timers excluded) — a read-only
        probe."""
        return len(self._queue) - self._cancelled

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the tie-breaking sequence counter)."""
        return self._seq

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now.

        Builds the :class:`Timeout` through ``__new__`` and writes its slots
        here, saving a call frame: this is the single most-called
        constructor in a run.  :meth:`batch` is the one other copy.
        """
        if delay < 0:
            raise ValueError(f"negative Timeout delay {delay!r}")
        t = Timeout.__new__(Timeout)
        t.sim = self
        t.callbacks = None
        t._value = value
        t._ok = True
        t._processed = False
        t._defused = False
        t.delay = delay
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now + delay, seq, t))
        return t

    def batch(
        self, delay: float, fn: Callable[[Event], Any], value: Any = None
    ) -> Timeout:
        """Schedule ``fn(event)`` ``delay`` seconds from now as ONE heap entry.

        The batch-event fast path: where a per-message design pays one heap
        entry plus one process resume per delivery, a cohort tick pays one
        heap entry and one Python call for the whole batch — ``fn`` fans out
        N deliveries internally as array ops.  ``fn`` is installed directly
        as the event's only callback, so the run loop's inlined dispatch
        reaches it without ``add_callback`` or :class:`Process` machinery.
        The event's value is ``value`` (a TCP segment's wire arrival carries
        the segment in it).
        """
        if delay < 0:
            raise ValueError(f"negative batch delay {delay!r}")
        t = Timeout.__new__(Timeout)
        t.sim = self
        t.callbacks = [fn]
        t._value = value
        t._ok = True
        t._processed = False
        t._defused = False
        t.delay = delay
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now + delay, seq, t))
        return t

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Launch ``generator`` as a process; returns its :class:`Process`."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def wait_for(self, event: Event, timeout: float) -> Generator[Event, Any, Any]:
        """``value = yield from sim.wait_for(event, timeout)``: asyncio's
        ``wait_for`` — the event's value, its exception, or :class:`TimedOut`.

        One tie rule, decided when the waiter resumes: the event wins if it
        has *triggered* by then, processed or not (DESIGN.md §7).  The losing
        deadline is cancelled; the one :class:`AnyOf` hop keeps same-instant
        order.  A :class:`Timeout` is triggered from birth: never the event.
        """
        if isinstance(event, Timeout):
            raise TypeError(f"wait_for cannot race a Timeout: {event!r}")
        deadline = self.timeout(timeout)
        try:
            yield AnyOf(self, (event, deadline))
        finally:
            if event.triggered:
                self.cancel(deadline)  # it lost: its pop would run nothing
        if not event.triggered:
            raise TimedOut(timeout)
        if not event._ok:
            event.defuse()
            raise event._value
        return event._value

    def call_at(self, when: float, fn: Callable[[], None]) -> Timeout:
        """Run ``fn()`` at absolute time ``when`` (>= now); the returned
        timer can be withdrawn with :meth:`cancel`."""
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        ev = self.timeout(when - self._now)
        ev.add_callback(lambda _e: fn())
        return ev

    def cancel(self, timer: Timeout) -> None:
        """Withdraw ``timer``: it will never run a callback.

        Its callbacks are dropped at once; its heap entry is skipped when
        popped (see the module docstring).  The timer then reads as a
        processed, defused failure with :class:`Cancelled`, so a later
        ``yield`` on it raises instead of waiting forever.  Cancelling a
        timer that already fired is a no-op; cancelling one a process is
        waiting on raises — interrupt the process instead.
        """
        if not isinstance(timer, Timeout):
            raise TypeError(f"only a Timeout can be cancelled, not {timer!r}")
        if timer._processed:
            return
        for callback in timer.callbacks or ():
            if isinstance(getattr(callback, "__self__", None), Process):
                raise RuntimeError(
                    f"cannot cancel {timer!r}: process "
                    f"{callback.__self__.name!r} is waiting on it"
                )
        timer.callbacks = None
        timer._processed = True
        timer._ok = False
        timer._defused = True
        timer._value = Cancelled()
        self._cancelled = cancelled = self._cancelled + 1
        queue = self._queue
        if cancelled > _REBUILD_MIN_CANCELLED and 2 * cancelled > len(queue):
            # In place: a running loop holds ``queue`` as a local.  Keys
            # (time, seq) are unique, so the survivors pop in the same order.
            queue[:] = [entry for entry in queue if not entry[2]._processed]
            heapify(queue)
            self._cancelled = 0

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now + delay, seq, event))

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        compose predictably.
        """
        queue = self._queue
        pop = heappop
        if until is None:
            now = self._now
            while queue:
                # One of the three copies of the event step (module
                # docstring).  ``now`` is authoritative inside the loop;
                # ``self._now`` follows every live pop, so a cancelled
                # timer's pop can restore ``now`` from it (cancelled entries
                # never move the clock).
                now, _, event = pop(queue)
                callbacks = event.callbacks
                if callbacks is not None:
                    event._processed = True
                    self._now = now
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                elif event._processed:
                    self._cancelled -= 1
                    now = self._now
                else:
                    event._processed = True
                    self._now = now
                    if not event._ok and not event._defused:
                        raise event._value
            self._now = now
            return
        if until < self._now:
            raise ValueError(f"run(until={until}) is in the past (now={self._now})")
        now = self._now
        while queue and queue[0][0] <= until:
            now, _, event = pop(queue)
            callbacks = event.callbacks
            if callbacks is not None:
                event._processed = True
                self._now = now
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            elif event._processed:
                self._cancelled -= 1
            else:
                event._processed = True
                if not event._ok and not event._defused:
                    self._now = now
                    raise event._value
        self._now = max(now, until)

    def run_process(self, generator: Generator[Event, Any, Any]) -> Any:
        """Convenience: run ``generator`` as a process to completion.

        Returns the process's return value.  Used heavily in tests.
        """
        proc = self.process(generator)
        queue = self._queue
        pop = heappop
        while queue and not proc._processed:
            now, _, event = pop(queue)
            if event._processed:
                self._cancelled -= 1
                continue
            self._now = now
            callbacks = event.callbacks
            event._processed = True
            if callbacks is not None:
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                raise event._value
        if not proc._processed:
            raise RuntimeError("process did not finish (deadlock or starvation)")
        if not proc.ok:
            raise proc.value
        return proc.value
