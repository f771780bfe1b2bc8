"""Unit tests for the simulation kernel: clock, events, ordering, run()."""

import pytest

from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_does_not_process_later_events():
    sim = Simulator()
    fired = []
    ev = sim.timeout(5.0)
    ev.add_callback(lambda e: fired.append(sim.now))
    sim.run(until=4.0)
    assert fired == []
    assert sim.now == 4.0
    sim.run(until=6.0)
    assert fired == [5.0]


def test_run_until_in_past_raises():
    sim = Simulator()
    sim.run(until=3.0)
    with pytest.raises(ValueError):
        sim.run(until=2.0)


def test_run_process_returns_when_its_finishing_instant_has_run():
    """Entries due at the instant the process finishes run before
    ``run_process`` returns — queued behind it or scheduled at that instant;
    a later one does not."""
    sim = Simulator()
    log = []

    def proc():
        wake = sim.timeout(1.0)
        sim.call_at(1.0, lambda: log.append(("queued behind", sim.now)))
        yield wake
        sim.call_at(sim.now, lambda: log.append(("scheduled at", sim.now)))
        return "done"

    sim.call_at(2.0, lambda: log.append(("later", sim.now)))
    assert sim.run_process(proc()) == "done"
    assert log == [("queued behind", 1.0), ("scheduled at", 1.0)]
    assert sim.now == 1.0 and sim.pending_events == 1
    sim.run()
    assert log[-1] == ("later", 2.0)


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []
    for i in range(10):
        ev = sim.timeout(1.0)
        ev.add_callback(lambda e, i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_event_succeed_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("payload")
    sim.run()
    assert ev.processed and ev.ok and ev.value == "payload"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("x"))


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_failed_undefused_event_raises_at_kernel():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_failed_defused_event_is_silent():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    ev.defuse()
    sim.run()
    assert ev.processed and not ev.ok


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_call_at_runs_fn_at_time():
    sim = Simulator()
    seen = []
    sim.call_at(7.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.0]


def test_call_at_in_past_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.call_at(1.0, lambda: None)


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


# ------------------------------------------------------------------ settle
def test_settle_without_listener_is_processed_in_place():
    sim = Simulator()
    ev = sim.event()
    before = sim.events_scheduled
    ev.settle("v")
    assert sim.events_scheduled == before  # no heap entry
    assert ev.processed and ev.ok and ev.value == "v"
    with pytest.raises(RuntimeError):
        ev.settle("again")
    with pytest.raises(RuntimeError):
        ev.add_callback(lambda e: None)  # processed events take no waiters


def test_settle_with_listener_goes_through_the_heap_in_order():
    sim = Simulator()
    order = []
    first = sim.event()
    first.add_callback(lambda e: order.append("first"))
    first.succeed()
    ev = sim.event()
    ev.add_callback(lambda e: order.append(("settled", e.value)))
    before = sim.events_scheduled
    ev.settle(7)
    assert sim.events_scheduled == before + 1
    assert ev.triggered and not ev.processed and order == []
    sim.run()
    assert order == ["first", ("settled", 7)]
