"""Simulator.cancel: a withdrawn timer runs nothing and keeps nothing alive."""

import gc
import weakref

import pytest

from repro.sim import Cancelled, Simulator


class Target:
    def __init__(self):
        self.fired = []

    def on_fire(self, event):
        self.fired.append(event)


def test_cancelled_timer_never_runs_and_drops_its_callbacks():
    sim = Simulator()
    fired = []
    target = Target()
    timer = sim.timeout(5.0)
    timer.add_callback(target.on_fire)
    timer.add_callback(lambda e: fired.append(e))
    ref = weakref.ref(target)
    del target
    gc.collect()
    assert ref() is not None  # the pending timer keeps it alive
    sim.cancel(timer)
    gc.collect()
    assert ref() is None  # ... and the cancel let it go at once
    sim.run()
    assert fired == []


def test_cancel_does_not_change_events_scheduled():
    sim = Simulator()
    timers = [sim.timeout(float(i)) for i in range(5)]
    before = sim.events_scheduled
    for timer in timers[1:]:
        sim.cancel(timer)
    assert sim.events_scheduled == before
    sim.run()
    assert sim.events_scheduled == before


def test_cancelling_a_fired_timer_is_a_noop():
    sim = Simulator()
    timer = sim.timeout(1.0, value="v")
    sim.run()
    sim.cancel(timer)
    sim.cancel(timer)
    assert timer.processed and timer.ok and timer.value == "v"
    assert sim.pending_events == 0


def test_cancelling_twice_is_a_noop():
    sim = Simulator()
    timer = sim.timeout(1.0)
    sim.cancel(timer)
    sim.cancel(timer)
    assert sim.pending_events == 0
    sim.run()


def test_cancelling_a_timer_a_process_waits_on_raises():
    sim = Simulator()
    timer = sim.timeout(3.0)

    def sleeper():
        yield timer

    sim.process(sleeper())
    sim.run(until=1.0)
    with pytest.raises(RuntimeError, match="waiting on it"):
        sim.cancel(timer)
    sim.run()
    assert sim.now == 3.0  # the refused cancel left the timer intact


def test_only_timers_can_be_cancelled():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.cancel(sim.event())


def test_yielding_a_cancelled_timer_raises_into_the_process():
    sim = Simulator()
    timer = sim.timeout(3.0)
    sim.cancel(timer)

    def waiter():
        try:
            yield timer
        except Cancelled:
            return "cancelled"
        return "fired"

    assert sim.run_process(waiter()) == "cancelled"


def test_wait_for_cancels_the_deadline_that_lost():
    sim = Simulator()
    reply = sim.event()

    def request():
        yield from sim.wait_for(reply, 60.0)
        return sim.now

    sim.call_at(1.0, lambda: reply.succeed("ok"))
    assert sim.run_process(request()) == 1.0
    assert sim.pending_events == 0


def test_cancelled_entries_move_no_clock_and_are_skipped():
    sim = Simulator()
    sim.timeout(1.0)
    late = sim.timeout(5.0)
    sim.cancel(late)
    assert sim.pending_events == 1
    sim.cancel(sim.timeout(0.5))
    assert sim.pending_events == 1  # the cancelled head entry is not live
    sim.run()
    assert sim.now == 1.0  # neither cancelled entry moved the clock


def test_heap_is_rebuilt_once_cancelled_entries_dominate():
    sim = Simulator()
    timers = [sim.timeout(float(i)) for i in range(300)]
    for timer in timers[:200]:
        sim.cancel(timer)
    # The 151st cancel crossed "more than half and over 100": rebuilt to
    # 149 entries; the next 49 cancels wait lazily for the next rebuild.
    assert len(sim._queue) == 149
    assert sim.pending_events == 100
    seen = []
    for timer in timers[200:]:
        timer.add_callback(lambda e: seen.append(sim.now))
    sim.run()
    assert seen == [float(i) for i in range(200, 300)]
    assert sim.pending_events == 0 and sim._cancelled == 0
