"""Unit tests for processes: suspension, return values, failures, waiting."""

import pytest

from repro.sim import Simulator


def test_process_runs_and_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        return "done"

    assert sim.run_process(proc()) == "done"
    assert sim.now == 3.0


def test_process_receives_timeout_value():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(1.0, value="tick")
        return got

    assert sim.run_process(proc()) == "tick"


def test_process_waits_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return 42

    def parent():
        value = yield sim.process(child())
        return value

    assert sim.run_process(parent()) == 42
    assert sim.now == 5.0


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()

    def proc():
        ev = sim.timeout(1.0, value="x")
        yield sim.timeout(2.0)  # ev fires (and is processed) at t=1
        got = yield ev
        return (got, sim.now)

    assert sim.run_process(proc()) == ("x", 2.0)


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise RuntimeError("child failed")

    def parent():
        try:
            yield sim.process(child())
        except RuntimeError as exc:
            return f"caught {exc}"

    assert sim.run_process(parent()) == "caught child failed"


def test_unhandled_process_exception_raises_at_kernel():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise ValueError("unhandled")

    sim.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42  # type: ignore[misc]

    sim.process(bad())
    with pytest.raises(RuntimeError, match="non-event"):
        sim.run()


def test_cross_simulator_event_rejected():
    sim1, sim2 = Simulator(), Simulator()

    def proc():
        yield sim2.timeout(1.0)

    sim1.process(proc())
    with pytest.raises(RuntimeError, match="another simulator"):
        sim1.run()


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_run_process_detects_deadlock():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    with pytest.raises(RuntimeError, match="did not finish"):
        sim.run_process(stuck())


# -------------------------------------------------- completion without waiter
def test_fire_and_forget_process_costs_no_completion_event():
    """Start entry + the process's own yields; finishing is free."""
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(proc())
    sim.run()
    assert sim.events_scheduled == 3
    assert p.processed and p.value == "done" and sim.now == 2.0


def test_awaited_process_completion_still_takes_a_heap_entry():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "c"

    def parent():
        value = yield sim.process(child())
        return value

    assert sim.run_process(parent()) == "c"
    # parent start, child start, child timeout, child completion (observed).
    assert sim.events_scheduled == 4


def test_failing_fire_and_forget_process_keeps_its_completion_event():
    """No waiter does not make a failure unobservable: run() must raise."""
    sim = Simulator()

    def proc():
        raise ValueError("at once")
        yield  # pragma: no cover

    sim.process(proc())
    assert sim.events_scheduled == 1
    with pytest.raises(ValueError, match="at once"):
        sim.run()
    assert sim.events_scheduled == 2


def test_waiting_on_finished_process_continues_at_same_instant():
    """yield / AnyOf on an already-finished process: value, same now."""
    sim = Simulator()

    def child(value):
        yield sim.timeout(1.0)
        return value

    a = sim.process(child("a"))
    sim.run()
    assert a.processed and sim.now == 1.0

    def late():
        yield sim.timeout(1.0)
        t0, n0 = sim.now, sim.events_scheduled
        direct = yield a
        any_value = yield sim.any_of([a, sim.timeout(5.0)])
        # Only the condition's own trigger and the 5 s timer were
        # scheduled: the finished process costs nothing more.
        return sim.now - t0, sim.events_scheduled - n0, direct, any_value

    elapsed, events, direct, any_value = sim.run_process(late())
    assert elapsed == 0.0 and events == 2
    assert direct == "a"
    assert any_value == {a: "a"}
