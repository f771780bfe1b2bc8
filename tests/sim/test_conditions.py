"""Tests for the AnyOf condition event and the wait_for race built on it."""

import pytest

from repro.sim import Simulator, TimedOut


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc():
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(10.0, value="slow")
        result = yield sim.any_of([fast, slow])
        return (sim.now, result)

    when, result = sim.run_process(proc())
    assert when == 1.0
    assert list(result.values()) == ["fast"]


def test_any_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        result = yield sim.any_of([])
        return result

    assert sim.run_process(proc()) == {}


def test_condition_with_already_processed_child():
    sim = Simulator()

    def proc():
        ev = sim.timeout(1.0, value="early")
        yield sim.timeout(2.0)
        result = yield sim.any_of([ev, sim.timeout(50.0)])
        return (sim.now, list(result.values()))

    when, values = sim.run_process(proc())
    assert when == 2.0
    assert values == ["early"]


def test_condition_failure_propagates():
    sim = Simulator()

    def failer():
        yield sim.timeout(1.0)
        raise RuntimeError("kaboom")

    def proc():
        with pytest.raises(RuntimeError, match="kaboom"):
            yield sim.any_of([sim.process(failer()), sim.timeout(10.0)])
        return sim.now

    assert sim.run_process(proc()) == 1.0


def test_condition_rejects_foreign_events():
    sim1, sim2 = Simulator(), Simulator()
    with pytest.raises(ValueError):
        sim1.any_of([sim1.timeout(1.0), sim2.timeout(1.0)])


def test_timeout_race_is_usable_as_wait_with_deadline():
    """The ack-or-timeout idiom used throughout the transports."""
    sim = Simulator()

    def proc():
        ack = sim.event()
        sim.call_at(2.0, lambda: ack.succeed("acked"))
        value = yield from sim.wait_for(ack, 5.0)
        when = sim.now
        with pytest.raises(TimedOut):
            yield from sim.wait_for(sim.event(), 5.0)
        return value, when, sim.now

    assert sim.run_process(proc()) == ("acked", 2.0, 7.0)
