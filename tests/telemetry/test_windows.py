"""Windowed quantiles: slicing and complement."""

import numpy as np
import pytest

from repro.telemetry import TimeWindow, WindowedQuantiles, complement_windows


def test_window_validates_and_contains():
    with pytest.raises(ValueError):
        TimeWindow("x", 10.0, 10.0)
    w = TimeWindow("burst", 10.0, 20.0)
    assert w.contains(10.0)
    assert w.contains(19.999)
    assert not w.contains(20.0)
    assert not w.contains(9.999)


def test_complement_tiles_the_measurement_window():
    bursts = [TimeWindow("burst", 10.0, 20.0), TimeWindow("burst", 30.0, 40.0)]
    steady = complement_windows(bursts, 0.0, 50.0, "steady")
    assert [(w.start, w.end) for w in steady] == [
        (0.0, 10.0), (20.0, 30.0), (40.0, 50.0),
    ]
    assert all(w.label == "steady" for w in steady)


def test_complement_clips_and_handles_overlaps():
    bursts = [
        TimeWindow("burst", -5.0, 12.0),
        TimeWindow("burst", 10.0, 25.0),
        TimeWindow("burst", 60.0, 70.0),  # outside entirely
    ]
    steady = complement_windows(bursts, 0.0, 50.0, "steady")
    assert [(w.start, w.end) for w in steady] == [(25.0, 50.0)]
    assert complement_windows([], 0.0, 10.0, "s")[0].start == 0.0


def test_observe_pools_same_label_and_slices_by_time():
    wq = WindowedQuantiles(
        [TimeWindow("burst", 0.0, 10.0), TimeWindow("burst", 20.0, 30.0),
         TimeWindow("steady", 10.0, 20.0)]
    )
    wq.observe(5.0, 1.0)
    wq.observe(25.0, 3.0)
    wq.observe(15.0, 2.0)
    wq.observe(99.0, 9.0)  # outside every window: dropped
    assert wq.count("burst") == 2
    assert wq.count("steady") == 1
    assert wq.quantile("burst", 50) == pytest.approx(2.0)
    assert np.isnan(WindowedQuantiles([TimeWindow("b", 0, 1)]).quantile("b", 99))
