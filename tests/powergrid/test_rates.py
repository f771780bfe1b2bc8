"""RateSchedule / rate_sleep: mid-run rate changes at exact timestamps."""

import pytest

from repro.cluster import HydraCluster
from repro.core import RecordBook
from repro.powergrid import FleetConfig, NaradaFleet, RateSchedule, RateWindow
from repro.powergrid.rates import rate_sleep
from repro.sim import Simulator
from repro.transport import TcpTransport


def test_window_validation():
    with pytest.raises(ValueError):
        RateWindow(-1.0, 10.0, 0, 5, 2.0)
    with pytest.raises(ValueError):
        RateWindow(10.0, 10.0, 0, 5, 2.0)
    with pytest.raises(ValueError):
        RateWindow(0.0, 10.0, 5, 5, 2.0)
    with pytest.raises(ValueError):
        RateWindow(0.0, 10.0, 0, 5, -0.5)


def test_multiplier_is_product_of_covering_windows():
    schedule = (
        RateSchedule()
        .window(0.0, 100.0, 0, 10, 2.0)
        .window(50.0, 100.0, 0, 5, 3.0)
    )
    assert schedule.multiplier_at(2, 25.0) == 2.0
    assert schedule.multiplier_at(2, 75.0) == 6.0
    assert schedule.multiplier_at(7, 75.0) == 2.0
    assert schedule.multiplier_at(2, 150.0) == 1.0
    assert schedule.multiplier_at(15, 75.0) == 1.0


def test_next_boundary_sees_only_covering_gen_ids():
    schedule = (
        RateSchedule()
        .window(10.0, 20.0, 0, 5, 2.0)
        .window(30.0, 40.0, 5, 9, 2.0)
    )
    assert schedule.next_boundary(2, 0.0) == 10.0
    assert schedule.next_boundary(2, 10.0) == 20.0
    assert schedule.next_boundary(2, 25.0) is None
    assert schedule.next_boundary(7, 0.0) == 30.0


def _publish_times(schedule, *, until=140.0, start=0.0, gen_id=0, interval=10.0):
    sim = Simulator(seed=1)
    times = []

    def generator():
        yield sim.timeout(start)
        while sim.now < until:
            times.append(sim.now)
            yield from rate_sleep(sim, schedule, gen_id, interval, until)

    sim.process(generator())
    sim.run(until=until + 1.0)
    return times


def test_no_schedule_means_plain_interval():
    assert _publish_times(None, until=50.0) == [0.0, 10.0, 20.0, 30.0, 40.0]
    assert _publish_times(RateSchedule(), until=50.0) == [
        0.0, 10.0, 20.0, 30.0, 40.0,
    ]


def test_rate_change_takes_effect_at_the_event_timestamp():
    """The satellite's proof: a 5x window starting at t=95 bends the very
    sleep in progress — the generator does NOT wait for its next 10 s
    cycle.  Publish at 90, window opens at 95 with half an interval owed,
    burn it 5x faster -> next publish at 96, then every 2 s."""
    schedule = RateSchedule().window(95.0, 115.0, 0, 10, 5.0)
    times = _publish_times(schedule, until=120.0)
    assert times[:10] == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]
    inside = [t for t in times if 95.0 < t <= 115.0]
    assert inside[0] == pytest.approx(96.0)
    assert inside[1] == pytest.approx(98.0)
    # 96, 98, ..., 114: every 2 s while the window holds.
    assert inside == pytest.approx([96.0 + 2.0 * i for i in range(10)])
    # Window closes at 115 with 0.5 interval owed at 1x -> publish at 120
    # would fall on stop_at; nothing after 114 inside the horizon.
    assert [t for t in times if t > 115.0] == []


def test_zero_multiplier_freezes_until_window_end():
    schedule = RateSchedule().window(15.0, 45.0, 0, 10, 0.0)
    times = _publish_times(schedule, until=80.0)
    # Publish at 10, owe an interval; frozen over [15, 45); the remaining
    # half interval resumes at 45 -> next publish at 50.
    assert times == [0.0, 10.0, 50.0, 60.0, 70.0]


def test_rate_sleep_only_affects_covered_gen_ids():
    schedule = RateSchedule().window(0.0, 100.0, 0, 1, 2.0)
    fast = _publish_times(schedule, until=40.0, gen_id=0)
    slow = _publish_times(schedule, until=40.0, gen_id=1)
    assert fast == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0]
    assert slow == [0.0, 10.0, 20.0, 30.0]


def test_zero_duration_window_is_rejected():
    """A zero-duration segment can never cover any instant (start inclusive,
    end exclusive) — the builder rejects it rather than silently no-op."""
    with pytest.raises(ValueError):
        RateSchedule().window(5.0, 5.0, 0, 10, 2.0)


def test_override_exactly_at_a_segment_boundary():
    """Back-to-back windows sharing the edge at t=40: end is exclusive and
    start is inclusive, so at exactly 40.0 the 4x window alone applies —
    never 2x (stale) and never 8x (double-cover)."""
    schedule = (
        RateSchedule()
        .window(20.0, 40.0, 0, 10, 2.0)
        .window(40.0, 60.0, 0, 10, 4.0)
    )
    assert schedule.multiplier_at(0, 40.0) == 4.0
    times = _publish_times(schedule, until=70.0)
    # 40.0 is both a publish timestamp and the boundary: spacing is 5 s
    # right up to it and 2.5 s immediately after, with no seam artifact.
    assert times == pytest.approx(
        [0.0, 10.0, 20.0, 25.0, 30.0, 35.0, 40.0]
        + [40.0 + 2.5 * i for i in range(1, 9)]
    )


def test_window_end_mid_sleep_composes_debt_across_the_boundary():
    """The last window edge falls mid-sleep: 40% of the interval is burned
    at 2x inside the window, the remaining 60% at 1x after it lifts."""
    schedule = RateSchedule().window(0.0, 22.0, 0, 10, 2.0)
    times = _publish_times(schedule, until=60.0)
    assert times == pytest.approx(
        [0.0, 5.0, 10.0, 15.0, 20.0, 28.0, 38.0, 48.0, 58.0]
    )


def test_run_end_mid_sleep_returns_without_publishing():
    """The schedule (and run) ends mid-publish-phase: a 0.5x slowdown owes
    7 s of debt when stop_at arrives mid-sleep — rate_sleep returns at the
    stop without ever paying it, and the loop publishes nothing more."""
    schedule = RateSchedule().window(0.0, 100.0, 0, 10, 0.5)
    times = _publish_times(schedule, until=33.0)
    assert times == pytest.approx([0.0, 20.0])


def test_fleet_applies_rate_override_mid_run():
    """End to end: a fleet armed with a RateSchedule speeds up mid-run
    without any restart — message count in the boosted half of the run
    roughly triples."""
    sim = Simulator(seed=41)
    cluster = HydraCluster(sim)
    tcp = TcpTransport(sim, cluster.lan)
    from repro.narada import Broker

    broker = Broker(sim, cluster.node("hydra1"), "broker1")
    broker.serve(tcp, 5045)
    config = FleetConfig(
        n_generators=20,
        publish_interval=10.0,
        creation_interval=0.05,
        warmup_min=1.0,
        warmup_max=2.0,
        duration=60.0,
        rates=RateSchedule().window(33.0, 63.0, 0, 20, 3.0),
    )
    book = RecordBook()
    fleet = NaradaFleet(sim, cluster, tcp, [("hydra1", 5045)], config, book)
    fleet.start()
    sim.run(until=70.0)
    before = sum(1 for r in book.records if r.t_before_send < 33.0)
    after = sum(1 for r in book.records if 33.0 <= r.t_before_send < 63.0)
    # 3x rate over a comparable window (creation/warmup shave the first few
    # seconds off the 1x half, and boundary debt the 3x half).
    assert after > 1.8 * before
