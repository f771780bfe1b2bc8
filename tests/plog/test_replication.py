"""Replication acceptance: leader election durability, ISR dynamics,
coordinator failover, and the supporting log/retry machinery."""

import pytest

from repro.faults import RetryPolicy, named_plan
from repro.faults.recovery import RttEstimator
from repro.harness import pipeline
from repro.harness.plog_experiments import PlogAdapter, PlogRunResult, plog_run
from repro.harness.scale import Scale
from repro.plog import ACKS_ALL, PlogConfig, PartitionLog
from repro.sim import Simulator

SMOKE = Scale.smoke()


def _rf2_config(**overrides):
    base = dict(
        replication_factor=2, acks=ACKS_ALL, consumer_recovery=True
    )
    base.update(overrides)
    return PlogConfig(**base)


# ------------------------------------------------------------ log surgery

def _filled_log(n=10, segment_max_bytes=400.0):
    log = PartitionLog(segment_max_bytes=segment_max_bytes)
    for i in range(n):
        log.append([(i, f"r{i}", 100.0)])
    return log


def test_truncate_to_drops_the_tail():
    log = _filled_log(10)
    before = log.total_bytes
    dropped = log.truncate_to(6)
    assert dropped == 4
    assert log.end_offset == 6
    assert log.total_bytes < before
    offsets = [r.offset for r in log.read(0, 100)]
    assert offsets == list(range(6))


def test_truncate_to_past_end_is_a_noop():
    log = _filled_log(5)
    assert log.truncate_to(5) == 0
    assert log.truncate_to(99) == 0
    assert log.end_offset == 5


def test_truncate_to_everything_restarts_at_offset():
    log = _filled_log(10)
    dropped = log.truncate_to(0)
    assert dropped == 10
    assert log.end_offset == 0
    result = log.append([(0, "again", 10.0)])
    assert result.base_offset == 0


def test_reset_to_fast_forwards_past_a_gap():
    log = _filled_log(3)
    freed = log.reset_to(50)
    assert freed > 0
    assert log.start_offset == 50
    assert log.end_offset == 50
    result = log.append([(0, "jumped", 10.0)])
    assert result.base_offset == 50


# ------------------------------------------------------- RTT estimation

def test_rtt_estimator_seeds_from_first_sample():
    est = RttEstimator(initial_rto=1.0)
    assert est.rto == 1.0
    est.observe(0.2)
    assert est.srtt == pytest.approx(0.2)
    assert est.rttvar == pytest.approx(0.1)
    assert est.rto == pytest.approx(0.2 + 4 * 0.1)


def test_rtt_estimator_converges_on_steady_rtt():
    est = RttEstimator(initial_rto=1.0, min_rto=1e-6)
    for _ in range(200):
        est.observe(0.05)
    assert est.srtt == pytest.approx(0.05, rel=1e-3)
    # Variance decays toward zero, so RTO approaches the RTT itself.
    assert est.rto == pytest.approx(0.05, rel=0.05)


def test_rtt_estimator_rto_tracks_a_latency_spike():
    est = RttEstimator(initial_rto=1.0)
    for _ in range(50):
        est.observe(0.05)
    calm = est.rto
    for _ in range(10):
        est.observe(0.5)
    assert est.rto > calm
    assert est.rto > 0.5  # timeout sits above the new RTT


def test_rtt_estimator_backs_off_on_timeout_until_next_sample():
    est = RttEstimator(initial_rto=1.0)
    for _ in range(50):
        est.observe(0.01)
    calm = est.rto
    est.backoff()
    assert est.rto == pytest.approx(2 * calm)
    est.backoff()
    assert est.rto == pytest.approx(4 * calm)
    # A valid (first-attempt) sample collapses the backoff again.
    est.observe(0.01)
    assert est.rto < 2 * calm


def test_rtt_estimator_clamps_to_bounds():
    est = RttEstimator(initial_rto=1.0, min_rto=0.1, max_rto=2.0)
    est.observe(0.001)
    assert est.rto == 0.1
    for _ in range(20):
        est.observe(100.0)
    assert est.rto == 2.0


def test_adaptive_retry_policy_bases_backoff_on_rto():
    sim = Simulator(seed=1)
    fixed = RetryPolicy(retries=3, backoff=0.1, jitter=0.0)
    adaptive = RetryPolicy(retries=3, backoff=0.1, jitter=0.0, adaptive=True)
    assert adaptive.delay(1, sim, "t", rto=0.7) == pytest.approx(0.7)
    assert adaptive.delay(2, sim, "t", rto=0.7) == pytest.approx(1.4)
    # Without an observed RTO the adaptive policy falls back to fixed.
    assert adaptive.delay(1, sim, "t") == fixed.delay(1, sim, "t")


# --------------------------------------------------- election durability

def test_leader_crash_loses_no_acked_record_rf2():
    """The headline property: RF=2 + acks=all + one-shot producers, broker
    crash mid-window — every acknowledged record is delivered."""
    run = plog_run(
        100,
        n_brokers=4,
        scale=SMOKE,
        seed=3,
        config=_rf2_config(),
        fault_plan=named_plan("broker_outage"),
    )
    assert run.elections > 0
    assert run.acked > 0
    assert run.acked_lost == 0
    # The outage is visible in *unacked* loss (one-shot producers), which
    # is exactly the contrast the ack contract is about.
    assert run.received == run.acked


def test_election_moves_partitions_to_the_new_leaders_session():
    """Each consumer fetches per leader broker: once the crashed broker's
    partitions are re-elected, their consumers read them to the end through
    the new leader's session, losing and repeating nothing."""
    adapter = PlogAdapter(n_brokers=4, config=_rf2_config())
    run = pipeline.run_point(
        adapter, 100, PlogRunResult, scale=SMOKE, seed=3,
        fault_plan=named_plan("broker_outage"), connections=100,
    )
    deployment = adapter.deployment
    moved = [
        (partition, leader)
        for _, topic, partition, leader in run.election_log
        if topic == deployment.topic
    ]
    assert moved
    for partition, leader in moved:
        old_leader = deployment.replica_map[partition][0]
        (consumer,) = [c for c in adapter.consumers if partition in c.assigned]
        assert consumer._loops.get(leader) is True
        assert old_leader not in consumer._loops
        log = deployment._by_name[leader].logs[(deployment.topic, partition)]
        assert consumer.positions[partition] == log.end_offset > 0
    assert run.acked_lost == 0
    assert run.duplicates == 0
    assert run.received == run.acked


def test_replication_is_inert_without_faults():
    run = plog_run(100, n_brokers=4, scale=SMOKE, seed=3, config=_rf2_config())
    assert run.elections == 0
    assert run.isr_shrinks == 0
    assert run.loss_rate == 0.0
    assert run.acked_lost == 0
    assert run.records_replicated > 0


def test_isr_shrinks_on_crash_and_expands_on_recovery():
    run = plog_run(
        100,
        n_brokers=4,
        scale=SMOKE,
        seed=3,
        config=_rf2_config(),
        fault_plan=named_plan("broker_outage"),
    )
    # The dead broker's replicas fall out of the ISR (lag rule and/or the
    # controller's proactive drop); after restart the fetchers catch the
    # logs up and every ISR recovers to full strength.
    assert run.isr_shrinks > 0
    assert run.isr_expands > 0


def test_elections_are_deterministic_across_reruns():
    def one_run():
        return plog_run(
            100,
            n_brokers=4,
            scale=SMOKE,
            seed=7,
            config=_rf2_config(),
            fault_plan=named_plan("broker_outage"),
        )

    a, b = one_run(), one_run()
    assert a.election_log == b.election_log
    assert a.elections == b.elections
    assert a.sent == b.sent
    assert a.received == b.received
    assert a.acked == b.acked


# ------------------------------------------------- coordinator failover

def test_coordinator_crash_reelects_and_resumes_commits():
    run = plog_run(
        100,
        n_brokers=4,
        scale=SMOKE,
        seed=3,
        config=_rf2_config(),
        fault_plan=named_plan("coordinator_outage"),
    )
    assert run.coordinator_elections >= 1
    # Consumers lost their coordinator channels and rejoined the group at
    # the re-elected coordinator (the rebalance that resumes assignments).
    assert run.coordinator_rejoins > 0
    assert run.acked_lost == 0
    assert run.received == run.acked


def test_coordinator_failover_is_deterministic():
    def one_run():
        return plog_run(
            100,
            n_brokers=4,
            scale=SMOKE,
            seed=11,
            config=_rf2_config(),
            fault_plan=named_plan("coordinator_outage"),
        )

    a, b = one_run(), one_run()
    assert a.election_log == b.election_log
    assert a.coordinator_elections == b.coordinator_elections
    assert a.coordinator_rejoins == b.coordinator_rejoins
    assert a.received == b.received


# ---------------------------------------------------- windowed producer

def test_windowed_producer_still_delivers_everything():
    config = PlogConfig(max_in_flight=1)
    run = plog_run(100, scale=SMOKE, seed=3, config=config)
    assert run.loss_rate == 0.0
    assert run.duplicates == 0


def test_window_of_zero_disables_the_limit():
    a = plog_run(100, scale=SMOKE, seed=3, config=PlogConfig(max_in_flight=0))
    b = plog_run(100, scale=SMOKE, seed=3, config=PlogConfig())
    assert a.loss_rate == 0.0
    assert a.sent == b.sent
    assert a.received == b.received
