"""Resource samplers vs the paper's VmStat methodology."""

import pytest

from repro.cluster import HydraCluster, VmStat
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.samplers import ResourceSampler


def _busy_workload(sim, node, until=20.0):
    def work():
        while sim.now < until:
            yield from node.execute(0.3)  # 0.3 s CPU
            yield sim.timeout(0.7)  # then idle

    sim.process(work(), name="workload")


def test_sampler_matches_vmstat_summary():
    sim = Simulator(seed=7)
    cluster = HydraCluster(sim)
    node = cluster.node("hydra1")
    vm = VmStat(sim, node, interval=1.0)
    sampler = ResourceSampler(sim, node, interval=1.0)
    _busy_workload(sim, node)
    sim.run(until=20.0)
    vm.stop()
    sampler.stop()

    ours = sampler.summary(warmup=2.0)
    theirs = vm.summary(warmup=2.0)
    assert ours.samples == theirs.samples
    assert ours.mean_cpu_idle_percent == pytest.approx(
        theirs.mean_cpu_idle_percent
    )
    assert ours.memory_consumption_bytes == pytest.approx(
        theirs.memory_consumption_bytes
    )
    # ~30 % CPU is burnt, so idle sits near 70 %.
    assert 50.0 < ours.mean_cpu_idle_percent < 90.0


def test_sampler_is_passive_under_workload():
    """Event timings of the workload are unchanged by an attached sampler."""

    def run(with_sampler):
        sim = Simulator(seed=7)
        cluster = HydraCluster(sim)
        node = cluster.node("hydra1")
        if with_sampler:
            ResourceSampler(sim, node, interval=0.25)
        finish_times = []

        def work():
            for _ in range(30):
                yield from node.execute(0.05)
                yield sim.timeout(0.1)
                finish_times.append(sim.now)

        sim.process(work(), name="workload")
        sim.run(until=10.0)
        return finish_times

    assert run(False) == run(True)


def test_sampler_feeds_registry():
    sim = Simulator(seed=7)
    cluster = HydraCluster(sim)
    node = cluster.node("hydra1")

    tel = Telemetry("test")
    tel.sample_node(sim, node, middleware="plog", interval=1.0)
    _busy_workload(sim, node, until=5.0)
    sim.run(until=5.0)

    idle = tel.metrics.gauge("plog", "hydra1", "cpu_idle_percent")
    assert idle.n == 5
    assert 0.0 <= idle.mean <= 100.0
    assert tel.metrics.gauge("plog", "hydra1", "memory_used_bytes").n == 5


def test_sampler_rejects_bad_interval_and_empty_summary():
    sim = Simulator(seed=1)
    cluster = HydraCluster(sim)
    node = cluster.node("hydra1")
    with pytest.raises(ValueError):
        ResourceSampler(sim, node, interval=0.0)
    sampler = ResourceSampler(sim, node, interval=1.0)
    summary = sampler.summary()  # no samples yet
    assert summary.samples == 0
    assert summary.mean_cpu_idle_percent == 100.0
