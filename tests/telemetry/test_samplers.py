"""The one node sampler (VmStat) and the session that reads its samples."""

import pickle

import pytest

from repro.cluster import HydraCluster, VmStat
from repro.cluster.vmstat import NodeSamples
from repro.core import RecordBook
from repro.harness.pipeline import RunResult
from repro.sim import Simulator
from repro.telemetry import Telemetry


def _busy_workload(sim, node, until=20.0):
    def work():
        while sim.now < until:
            yield from node.execute(0.3)  # 0.3 s CPU
            yield sim.timeout(0.7)  # then idle

    sim.process(work(), name="workload")


def _run(vm: VmStat) -> RunResult:
    """A bare result whose one sampled node is ``vm``'s, labelled plog."""
    return RunResult(
        label="run", middleware="plog", book=RecordBook(), measure_since=0.0,
        sent=0, received=0, mean_rtt_ms=0.0, stddev_rtt_ms=0.0,
        loss_rate=0.0, rtts=None,
        node_samples=[NodeSamples(vm.node.name, "plog", vm.samples)],
    )


def test_sampler_is_passive_under_workload():
    """Event timings of the workload are unchanged by an attached sampler."""

    def run(with_sampler):
        sim = Simulator(seed=7)
        cluster = HydraCluster(sim)
        node = cluster.node("hydra1")
        if with_sampler:
            VmStat(sim, node, interval=0.25)
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
    """A session replays a run's samples, in order, into the node's two
    gauges and keeps them as picklable data."""
    sim = Simulator(seed=7)
    cluster = HydraCluster(sim)
    node = cluster.node("hydra1")
    vm = VmStat(sim, node, interval=1.0)
    _busy_workload(sim, node, until=5.0)
    sim.run(until=5.0)
    vm.stop()

    tel = Telemetry("test")
    events = sim.events_scheduled
    tel.observe(_run(vm))
    assert sim.events_scheduled == events

    idle = tel.metrics.gauge("plog", "hydra1", "cpu_idle_percent")
    memory = tel.metrics.gauge("plog", "hydra1", "memory_used_bytes")
    assert idle.n == memory.n == len(vm.samples) == 5
    idles = [s.cpu_idle_fraction * 100.0 for s in vm.samples]
    assert (idle.value, idle.min, idle.max) == (idles[-1], min(idles), max(idles))
    assert idle.mean == pytest.approx(sum(idles) / 5)
    assert memory.value == vm.samples[-1].memory_used_bytes
    (kept,) = tel.runs[0].node_samples
    assert kept == NodeSamples("hydra1", "plog", vm.samples)
    assert pickle.loads(pickle.dumps(kept)) == kept


def test_sampler_rejects_bad_interval_and_empty_summary():
    sim = Simulator(seed=1)
    cluster = HydraCluster(sim)
    node = cluster.node("hydra1")
    with pytest.raises(ValueError):
        VmStat(sim, node, interval=0.0)
    vm = VmStat(sim, node, interval=1.0)
    summary = vm.summary()  # no samples yet
    assert summary.samples == 0
    assert summary.mean_cpu_idle_percent == 100.0
    tel = Telemetry("test")
    tel.observe(_run(vm))
    # no samples, no gauges
    assert [str(k) for k, i in tel.metrics if i.kind == "gauge"] == []
    assert tel.runs[0].node_samples == [NodeSamples("hydra1", "plog", [])]
