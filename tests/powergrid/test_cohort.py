"""Vectorized cohort twins vs their scalar originals — exact parity.

The fleet engine's correctness rests on two claims tested here:
``advance_interval`` wakes at *bit-identical* float timestamps to
``rate_sleep`` under any schedule, and ``CohortDynamics.breaker`` follows
its trip/reclose rule.
"""

import numpy as np

from repro.powergrid import (
    CohortDynamics,
    CohortSpec,
    RateSchedule,
    advance_interval,
    noise,
    warmup_times,
)
from repro.powergrid.rates import rate_sleep
from repro.sim import Simulator


def _scalar_wakes(schedule, gen_id, start, interval, stop):
    """Every post-rate_sleep ``sim.now`` until the publish loops' progress
    guard fails — the per-process generator's exact wake trajectory."""
    sim = Simulator(seed=1)
    wakes = []

    def p():
        yield sim.timeout(start)
        while True:
            t = sim.now
            yield from rate_sleep(sim, schedule, gen_id, interval, stop)
            wakes.append(sim.now)
            if not (sim.now < stop and sim.now > t):
                break

    sim.process(p())
    sim.run()
    return wakes


def _vector_wakes(schedule, gen_ids, starts, interval, stop):
    ids = np.asarray(gen_ids, dtype=np.int64)
    now = np.asarray(starts, dtype=float)
    wakes = [[] for _ in ids]
    alive = np.ones(ids.shape, dtype=bool)
    while alive.any():
        nxt = advance_interval(schedule, ids, now, interval, stop)
        for i in np.nonzero(alive)[0]:
            wakes[i].append(float(nxt[i]))
        alive &= (nxt < stop) & (nxt > now)
        now = nxt
    return wakes


COMPOUND = (
    RateSchedule()
    .window(30.0, 50.0, 0, 64, 3.0)     # fleet-wide burst
    .window(40.0, 46.0, 16, 48, 0.0)    # overlapping regional silence
    .window(60.0, 90.0, 0, 32, 0.5)     # slowdown for the low half
)


def test_advance_interval_matches_rate_sleep_bit_for_bit():
    gen_ids = [0, 7, 16, 20, 31, 40, 47, 63]
    # Irrational-ish staggered starts stress the float paths.
    starts = [0.0, 1.7, 3.33, 7.77, 12.3, 0.05, 19.999, 25.5]
    interval, stop = 10.0, 100.0
    vec = _vector_wakes(COMPOUND, gen_ids, starts, interval, stop)
    for i, (g, s) in enumerate(zip(gen_ids, starts)):
        scalar = _scalar_wakes(COMPOUND, g, s, interval, stop)
        assert vec[i] == scalar, f"gen {g} diverged"  # == : bit-exact


def test_advance_interval_no_schedule_is_plain_interval():
    nxt = advance_interval(None, [0, 1], [5.0, 6.5], 10.0, 100.0)
    assert nxt.tolist() == [15.0, 16.5]
    nxt = advance_interval(RateSchedule(), [0, 1], [5.0, 6.5], 10.0, 100.0)
    assert nxt.tolist() == [15.0, 16.5]


def test_advance_interval_entry_at_stop_makes_no_progress():
    """rate_sleep returns untouched when entered at/after stop_at; the
    vector twin must report the same wake time so the caller's progress
    guard retires the generator identically."""
    schedule = RateSchedule().window(0.0, 50.0, 0, 4, 2.0)
    nxt = advance_interval(schedule, [0, 1], [100.0, 40.0], 10.0, 100.0)
    assert nxt[0] == 100.0  # frozen at stop
    assert nxt[1] == 45.0   # the live one still advances


def test_breaker_trip_and_reclose_semantics():
    spec = CohortSpec(0, 256, capacity_kw=50.0, trip_probability=1.0)
    dyn = CohortDynamics(seed=3, spec=spec)
    ids = spec.gen_ids()
    closed = np.ones(ids.shape, dtype=bool)
    closed = dyn.breaker(noise.key(3, ids, 1), closed)
    # trip_probability=1.0: every closed breaker opens this step.
    assert not closed.any()
    # Open breakers reclose iff u < 0.2 — about a fifth of them.
    closed = dyn.breaker(noise.key(3, ids, 2), closed)
    frac = closed.mean()
    assert 0.1 < frac < 0.3


def test_warmup_times_deterministic_and_in_range():
    a = warmup_times(7, np.arange(1000), 10.0, 20.0)
    b = warmup_times(7, np.arange(1000), 10.0, 20.0)
    assert (a == b).all()
    assert ((a >= 10.0) & (a < 20.0)).all()
    assert len(np.unique(a)) > 990  # per-gen, not shared
    c = warmup_times(8, np.arange(1000), 10.0, 20.0)
    assert (a != c).any()
