"""Tests for the Node CPU model."""

import pytest

from repro.cluster import Node
from repro.sim import Simulator


def test_execute_takes_work_seconds():
    sim = Simulator()
    node = Node(sim, "n1")

    def job():
        yield from node.execute(0.5)
        return sim.now

    assert sim.run_process(job()) == 0.5
    assert node.cpu_busy_time == 0.5


def test_jobs_queue_fifo_on_single_cpu():
    sim = Simulator()
    node = Node(sim, "n1")
    finished = []

    def job(tag, work):
        yield from node.execute(work)
        finished.append((tag, sim.now))

    sim.process(job("a", 1.0))
    sim.process(job("b", 1.0))
    sim.process(job("c", 1.0))
    sim.run()
    assert finished == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_queueing_delay_grows_with_load():
    """More offered work -> longer completion for a probe job (Fig 7 shape)."""
    delays = []
    for njobs in (1, 10, 50):
        sim = Simulator()
        node = Node(sim, "n1")
        for _ in range(njobs):
            node.execute_process(0.01)

        def probe():
            yield from node.execute(0.001)
            return sim.now

        delays.append(sim.run_process(probe()))
    assert delays[0] < delays[1] < delays[2]


def test_zero_work_is_free():
    sim = Simulator()
    node = Node(sim, "n1")

    def job():
        yield from node.execute(0.0)
        return sim.now

    assert sim.run_process(job()) == 0.0
    assert node.cpu_busy_time == 0.0


def test_negative_work_rejected():
    sim = Simulator()
    node = Node(sim, "n1")

    def job():
        yield from node.execute(-1.0)

    with pytest.raises(ValueError):
        sim.run_process(job())


def test_run_queue_length_observable():
    sim = Simulator()
    node = Node(sim, "n1")
    node.execute_process(1.0)
    node.execute_process(1.0)
    node.execute_process(1.0)
    lengths = []

    def probe():
        yield sim.timeout(0.5)
        lengths.append(node.run_queue_length)

    sim.process(probe())
    sim.run()
    assert lengths == [2]


def test_memory_accounting_via_jvms():
    from repro.cluster import Jvm

    sim = Simulator()
    node = Node(sim, "n1")
    assert node.memory_used_bytes == 0
    jvm = Jvm(sim, node, "jvm1")
    assert node.memory_used_bytes == jvm.committed_bytes
    assert node.memory_free_bytes == node.memory_bytes - jvm.committed_bytes


# ------------------------------------------------------------ event budget
def test_uncontended_execute_costs_one_kernel_event():
    """An idle CPU is taken on the spot: only the service timer is scheduled."""
    sim = Simulator()
    node = Node(sim, "n1")
    costs = []

    def job():
        before = sim.events_scheduled
        yield from node.execute(1.0)
        costs.append((sim.events_scheduled - before, sim.now))

    sim.process(job())
    sim.run()
    assert costs == [(1, 1.0)]


def test_queued_execute_costs_one_kernel_event():
    """The CPU starts a queued job when the one ahead ends: its completion is
    its only heap entry (no hand-off entry to resume it first)."""
    sim = Simulator()
    node = Node(sim, "n1")
    costs = {}

    def job(tag):
        before = sim.events_scheduled
        yield from node.execute(1.0)
        costs[tag] = (sim.events_scheduled - before, sim.now)

    sim.process(job("a"))
    sim.run(until=0.5)  # a holds the CPU; nothing else is in flight
    sim.process(job("b"))
    sim.run()
    assert costs["b"] == (1, 2.0)
