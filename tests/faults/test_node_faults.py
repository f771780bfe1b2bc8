"""FaultScheduler broker and consumer faults against live components."""

import pytest

from repro.cluster import HydraCluster
from repro.cluster.jvm import OutOfMemoryError
from repro.faults import FaultPlan, FaultScheduler
from repro.plog import PlogConfig, PlogDeployment
from repro.sim import Simulator
from repro.transport import TcpTransport


def make_world(n_brokers=1, config=None):
    sim = Simulator(seed=11)
    cluster = HydraCluster(sim)
    transport = TcpTransport(sim, cluster.lan)
    hosts = tuple(f"hydra{i + 1}" for i in range(n_brokers))
    deployment = PlogDeployment(
        sim, cluster, transport, broker_hosts=hosts, config=config or PlogConfig()
    )
    deployment.serve()
    return sim, cluster, deployment


def attach(sim, cluster, deployment, plan, **kw):
    return FaultScheduler(sim, plan).attach(
        lan=cluster.lan, brokers=deployment.brokers, **kw
    )


def test_broker_crash_and_restart():
    sim, cluster, deployment = make_world()
    plan = FaultPlan().broker_crash(at=1.0, broker="broker:0", restart_after=2.0)
    scheduler = attach(sim, cluster, deployment, plan)
    broker = deployment.brokers[0]

    sim.run(until=2.0)
    assert not broker.alive
    assert broker.crashes == 1
    sim.run(until=4.0)
    assert broker.alive
    assert broker.restarts == 1
    log = "\n".join(scheduler.render_log())
    assert "process killed" in log
    assert "back up" in log


def test_unresolvable_targets_are_skipped_not_raised():
    sim, cluster, deployment = make_world()
    plan = (
        FaultPlan()
        .broker_crash(at=1.0, broker="broker:7")
        .consumer_crash(at=1.0, consumer=0)
    )
    scheduler = attach(sim, cluster, deployment, plan)
    sim.run(until=3.0)
    log = scheduler.render_log()
    assert len(log) == 2
    assert all("skipped" in line for line in log)
    assert deployment.brokers[0].alive


def test_restart_after_oom_is_refused():
    sim, cluster, deployment = make_world()
    broker = deployment.brokers[0]
    plan = FaultPlan().broker_crash(at=2.0, broker="broker:0", restart_after=1.0)
    scheduler = attach(sim, cluster, deployment, plan)
    with pytest.raises(OutOfMemoryError):
        broker.jvm.alloc(broker.jvm.heap_bytes * 2)
    sim.run(until=5.0)
    assert not broker.alive  # a dead JVM cannot come back
    assert "skipped: JVM dead" in "\n".join(scheduler.render_log())


class DummyConsumer:
    def __init__(self):
        self.name = "dummy-consumer"
        self.closed = False

    def close(self):
        self.closed = True


def test_consumer_crash_closes_the_consumer():
    sim, cluster, deployment = make_world()
    victim = DummyConsumer()
    plan = FaultPlan().consumer_crash(at=1.0, consumer=0)
    attach(sim, cluster, deployment, plan, consumers=[victim])
    sim.run(until=2.0)
    assert victim.closed


def test_scheduler_cannot_be_attached_twice():
    sim, cluster, deployment = make_world()
    scheduler = attach(sim, cluster, deployment, FaultPlan())
    with pytest.raises(RuntimeError):
        scheduler.attach(lan=cluster.lan)
