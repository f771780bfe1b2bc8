"""Property-based tests for kernel, resources and metrics invariants."""

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
