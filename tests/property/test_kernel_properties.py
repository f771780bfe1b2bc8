"""Property-based tests for kernel, resources and metrics invariants."""

from heapq import heappop

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import percentile_curve, within_threshold
from repro.sim import Simulator, Store


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
def test_time_never_goes_backwards(delays):
    """Observed event times are non-decreasing regardless of schedule order."""
    sim = Simulator()
    observed = []
    for d in delays:
        ev = sim.timeout(d)
        ev.add_callback(lambda e: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == max(delays)


@given(st.lists(st.integers(), min_size=0, max_size=40))
def test_store_preserves_order_and_content(items):
    """FIFO store: what goes in comes out, same order, nothing lost."""
    sim = Simulator()
    store = Store(sim)

    def producer():
        for item in items:
            yield store.put(item)

    out = []

    def consumer():
        for _ in items:
            value = yield store.get()
            out.append(value)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert out == items


@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_percentile_curve_invariants(rtts):
    curve = percentile_curve(rtts)
    values = [v for _, v in curve]
    # Monotone in percentile; endpoints anchored to the data.
    assert values == sorted(values)
    assert values[-1] == pytest.approx(max(rtts) * 1e3)
    assert values[0] >= min(rtts) * 1e3 - 1e-9


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=100),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_within_threshold_matches_manual_count(rtts, threshold):
    frac = within_threshold(rtts, threshold)
    manual = sum(1 for r in rtts if r <= threshold) / len(rtts)
    assert frac == pytest.approx(manual)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_simulator_deterministic_for_any_seed(seed):
    """Two simulators with the same seed produce identical draw sequences."""
    a, b = Simulator(seed), Simulator(seed)
    for name in ("x", "y"):
        assert [a.rng.random(name) for _ in range(3)] == [
            b.rng.random(name) for _ in range(3)
        ]


@given(
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=8),
)
def test_fleet_block_assignment_partitions_ids(n, k):
    """node_index/id_range form a partition of [0, n)."""
    from repro.powergrid import FleetConfig

    config = FleetConfig(
        n_generators=n, client_nodes=tuple(f"n{i}" for i in range(k))
    )
    covered = []
    for j in range(k):
        lo, hi = config.id_range(j)
        for g in (lo, hi - 1):
            if lo < hi:
                assert config.node_index(g) == j
        covered.extend(range(lo, hi))
    assert covered == list(range(n))


# ----------------------------------------------- one event step, twin-checked
def _reference_run(sim, until=None):
    """``Simulator.run`` as it was with a separate loop for each branch,
    kept verbatim (``self`` -> ``sim``) as the reference for the one loop."""
    queue = sim._queue
    pop = heappop
    if until is None:
        now = sim._now
        while queue:
            now, _, event = pop(queue)
            callbacks = event.callbacks
            if callbacks is not None:
                event._processed = True
                sim._now = now
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            elif event._processed:
                sim._cancelled -= 1
                now = sim._now
            else:
                event._processed = True
                sim._now = now
                if not event._ok and not event._defused:
                    raise event._value
        sim._now = now
        return
    if until < sim._now:
        raise ValueError(f"run(until={until}) is in the past (now={sim._now})")
    now = sim._now
    while queue and queue[0][0] <= until:
        now, _, event = pop(queue)
        callbacks = event.callbacks
        if callbacks is not None:
            event._processed = True
            sim._now = now
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
        elif event._processed:
            sim._cancelled -= 1
        else:
            event._processed = True
            if not event._ok and not event._defused:
                sim._now = now
                raise event._value
    sim._now = max(now, until)


_KINDS = ("log", "bare", "chain", "fail", "raise", "withdraw", "cancel", "burst", "proc")
_half_steps = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.5)
_steps = st.lists(
    st.tuples(
        _half_steps | st.floats(min_value=0.0, max_value=6.0),  # delay
        st.sampled_from(_KINDS),
        st.integers(min_value=0, max_value=3),  # chain length / cancel target
    ),
    max_size=30,
)
_cuts = st.lists(
    _half_steps | st.floats(min_value=0.0, max_value=7.0), max_size=5
).map(sorted)


def _build(sim, steps, log):
    """Schedule ``steps`` on ``sim``; every callback appends to ``log``."""
    timers = []

    def note(tag):
        return lambda _e: log.append((tag, sim.now))

    def chained(tag, left):
        def callback(_e):
            log.append((tag, left, sim.now))
            if left:
                sim.timeout(0.0).add_callback(chained(tag, left - 1))

        return callback

    def canceller(tag, target):
        def callback(_e):
            log.append((tag, sim.now))
            if timers:
                sim.cancel(timers[target % len(timers)])

        return callback

    def burst(tag):
        def callback(_e):
            log.append((tag, sim.now))
            batch = [sim.timeout(j * 0.05) for j in range(120)]
            for j, timer in enumerate(batch):
                timer.add_callback(note((tag, j)))
                if j % 10:
                    sim.cancel(timer)  # 108 cancels force a heap rebuild

        return callback

    def proc(tag, delay, k):
        for j in range(k + 1):
            yield sim.timeout(delay)
            log.append((tag, j, sim.now))

    for i, (delay, kind, k) in enumerate(steps):
        if kind in ("log", "withdraw"):
            timer = sim.timeout(delay)
            timer.add_callback(note(i))
            timers.append(timer)
            if kind == "withdraw":
                sim.cancel(timer)
        elif kind == "bare":
            timers.append(sim.timeout(delay))
        elif kind == "chain":
            sim.timeout(delay).add_callback(chained(i, k))
        elif kind in ("fail", "raise"):
            event = sim.event()
            event.add_callback(note(i))
            event.fail(ValueError(i), delay=delay)
            if kind == "fail":
                event.defuse()
        elif kind == "cancel":
            sim.timeout(delay).add_callback(canceller(i, k))
        elif kind == "burst":
            sim.timeout(delay).add_callback(burst(i))
        else:
            sim.process(proc(i, delay, k))


def _drive(run, sim, cuts):
    """``run(sim, until)`` at every cut, then ``run(sim)``; the state after
    each call (or the error it raised)."""
    states = []
    for until in [*cuts, None]:
        try:
            run(sim, until)
            outcome = None
        except ValueError as exc:
            outcome = exc.args
        states.append((outcome, sim.now, sim.events_scheduled, sim.pending_events))
    return states


@settings(deadline=None, max_examples=300)
@given(steps=_steps, cuts=_cuts)
def test_one_event_step_matches_the_two_loops_it_replaced(steps, cuts):
    """Same pops in the same order, same clock after every call, same
    sequence counter and live-entry count as the former per-branch loops."""
    logs, states = [], []
    for run in (Simulator.run, _reference_run):
        sim, log = Simulator(), []
        _build(sim, steps, log)
        states.append(_drive(run, sim, cuts))
        logs.append(log)
    assert logs[0] == logs[1]
    assert states[0] == states[1]
