"""RetryPolicy math and the off-by-default recovery contract."""

import pytest

from repro.faults import NO_RETRY, RetryPolicy
from repro.sim import Simulator


def test_defaults_are_disabled():
    assert not NO_RETRY.enabled
    assert RetryPolicy().retries == 0


def test_validation():
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=-0.1)


def test_delay_grows_exponentially_and_caps():
    policy = RetryPolicy(retries=10, backoff=0.1, multiplier=2.0, max_backoff=1.0)
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(3) == pytest.approx(0.4)
    assert policy.delay(5) == pytest.approx(1.0)  # capped
    assert policy.delay(9) == pytest.approx(1.0)


def test_total_budget_sums_unjittered_delays():
    policy = RetryPolicy(retries=3, backoff=0.1, multiplier=2.0)
    assert policy.total_budget() == pytest.approx(0.1 + 0.2 + 0.4)


def test_jitter_draws_from_a_named_stream_deterministically():
    policy = RetryPolicy(retries=3, backoff=0.1, jitter=0.5)
    a = Simulator(seed=42)
    b = Simulator(seed=42)
    delays_a = [policy.delay(1, a, "plog.retry.p0") for _ in range(5)]
    delays_b = [policy.delay(1, b, "plog.retry.p0") for _ in range(5)]
    assert delays_a == delays_b
    assert len(set(delays_a)) > 1  # jitter actually varies draw to draw
    for d in delays_a:
        assert 0.1 <= d <= 0.1 * 1.5


def test_jitter_streams_are_independent():
    policy = RetryPolicy(retries=1, backoff=0.1, jitter=0.5)
    sim = Simulator(seed=42)
    d1 = policy.delay(1, sim, "narada.retry.gen-1")
    d2 = policy.delay(1, sim, "narada.retry.gen-2")
    assert d1 != d2


def test_recovery_is_opt_in_everywhere():
    """Configs must not silently turn recovery on (seed determinism)."""
    from repro.plog import PlogConfig
    from repro.powergrid.workload import FleetConfig

    plog = PlogConfig()
    assert not plog.producer_retry.enabled
    assert plog.failover is False
    assert plog.consumer_recovery is False
    fleet = FleetConfig(n_generators=1, publish_interval=10.0)
    assert fleet.retry is None
