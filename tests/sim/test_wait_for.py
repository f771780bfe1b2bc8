"""Simulator.wait_for: one deadline primitive, one tie rule.

The hypothesis twin races the same event against the same deadline twice:
once through ``wait_for`` and once through the hand-rolled race it replaces
(``yield any_of([event, deadline])`` and then ``event.triggered`` at resume,
deadline left live).  Both must agree on value or timeout, on the instant the
waiter resumes, on every other callback's order, and on ``events_scheduled``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, TimedOut

TIMED_OUT = "timed out"


def hand_rolled(sim, event, timeout):
    deadline = sim.timeout(timeout)
    yield sim.any_of([event, deadline])
    if not event.triggered:
        return TIMED_OUT
    return event.value


def primitive(sim, event, timeout):
    try:
        return (yield from sim.wait_for(event, timeout))
    except TimedOut:
        return TIMED_OUT


def race(waiter, start, timeout, trigger_at, armed_after, hops, observers):
    sim = Simulator()
    event = sim.event()
    trace = []

    def trigger():
        # ``hops`` zero-delay entries between the trigger's pop and the
        # event's own trigger: it lands before, at or after the resume.
        def hop(k):
            if k == 0:
                event.succeed("value")
                return
            nxt = sim.event()
            nxt.callbacks.append(lambda _e: hop(k - 1))
            nxt.succeed()

        hop(hops)

    def arm():
        if trigger_at is not None:
            sim.call_at(trigger_at, trigger)

    def wait():
        yield sim.timeout(start)
        result = yield from waiter(sim, event, timeout)
        trace.append(("resumed", sim.now))
        return result

    if not armed_after:
        arm()  # the trigger's entry is older than the deadline's
    proc = sim.process(wait())
    if armed_after:
        sim.call_at(start, arm)  # ... or younger, at the wait's own instant
    for i, when in enumerate(observers):
        sim.call_at(when, lambda i=i: trace.append((i, sim.now)))
    sim.run()
    return proc.value, trace, sim.events_scheduled


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_wait_for_matches_the_hand_rolled_race(data):
    tenths = st.integers(min_value=0, max_value=30).map(lambda k: k / 10)
    start = data.draw(tenths, label="start")
    timeout = data.draw(tenths, label="timeout")
    expiry = start + timeout  # the deadline's exact float time
    trigger_at = data.draw(
        st.one_of(st.none(), st.just(expiry), tenths), label="trigger_at"
    )
    armed_after = trigger_at is not None and trigger_at >= start and data.draw(
        st.booleans(), label="armed_after"
    )
    hops = data.draw(st.integers(min_value=0, max_value=3), label="hops")
    observers = data.draw(
        st.lists(st.one_of(st.just(expiry), tenths), max_size=4), label="observers"
    )
    args = (start, timeout, trigger_at, armed_after, hops, observers)
    assert race(primitive, *args) == race(hand_rolled, *args)


def test_an_event_triggered_at_the_deadline_instant_wins():
    sim = Simulator()
    event = sim.event()

    def wait():
        return (yield from sim.wait_for(event, 2.0))

    proc = sim.process(wait())
    # Younger than the deadline: pops after it, before the waiter resumes.
    sim.call_at(2.0, lambda: event.succeed("late but in time"))
    sim.run()
    assert proc.value == "late but in time"


def test_a_win_leaves_no_pending_deadline():
    sim = Simulator()
    reply = sim.event()
    sim.call_at(1.0, lambda: reply.succeed("ok"))

    def request():
        value = yield from sim.wait_for(reply, 60.0)
        return value, sim.now

    assert sim.run_process(request()) == ("ok", 1.0)
    assert sim.pending_events == 0


@pytest.mark.parametrize("fail_at", [1.0, 2.0], ids=["before", "at_deadline"])
def test_a_failed_event_raises_its_own_exception(fail_at):
    sim = Simulator()
    event = sim.event()

    def wait():
        with pytest.raises(RuntimeError, match="kaboom"):
            yield from sim.wait_for(event, 2.0)
        return sim.now

    proc = sim.process(wait())
    sim.call_at(fail_at, lambda: event.fail(RuntimeError("kaboom")))
    sim.run()  # defused: the failure does not surface out of run()
    assert proc.value == fail_at
    assert sim.pending_events == 0


def test_timed_out_carries_the_timeout():
    sim = Simulator()
    event = sim.event()

    def wait():
        with pytest.raises(TimedOut) as info:
            yield from sim.wait_for(event, 2.5)
        return info.value.timeout, sim.now

    assert sim.run_process(wait()) == (2.5, 2.5)
    event.succeed("too late")
    sim.run()  # a late trigger reaches the abandoned race harmlessly


def test_a_timeout_cannot_be_the_event():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.run_process(sim.wait_for(sim.timeout(1.0), 5.0))
