"""Tests for consumer-group coordination: assignment, rebalance, offsets."""

import pytest

from repro.cluster import HydraCluster
from repro.plog import PlogBroker, PlogConfig, PlogDeployment
from repro.plog.group import GroupCoordinator, _Member
from repro.sim import Simulator
from repro.transport import TcpTransport

CONFIG = PlogConfig(partitions=8)


def make_world(config=CONFIG):
    sim = Simulator(seed=11)
    cluster = HydraCluster(sim)
    transport = TcpTransport(sim, cluster.lan)
    deployment = PlogDeployment(sim, cluster, transport, config=config)
    deployment.serve()
    return sim, cluster, deployment


def start_consumer(sim, cluster, deployment, name, node="hydra5"):
    consumer = deployment.consumer(cluster.node(node), name, "g")
    sim.process(consumer.start(), name=f"start.{name}")
    return consumer


# ----------------------------------------------------------------- assignment
def test_range_assignment_contiguous_and_complete():
    sim = Simulator(seed=1)
    cluster = HydraCluster(sim)
    broker = PlogBroker(sim, cluster.node("hydra1"), "b", CONFIG)
    coordinator = GroupCoordinator(broker, 8)
    members = [_Member(f"c{i}", None, "t") for i in range(3)]
    assignment = coordinator._range_assign(members)
    assert assignment == {"c0": (0, 1, 2), "c1": (3, 4, 5), "c2": (6, 7)}
    assert coordinator._range_assign([]) == {}


def test_join_storm_coalesces_to_one_rebalance():
    sim, cluster, deployment = make_world()
    consumers = [
        start_consumer(sim, cluster, deployment, f"c{i}") for i in range(4)
    ]
    sim.run(until=CONFIG.rebalance_delay + 1.0)
    coordinator = deployment.coordinator
    # Four joins landed inside one rebalance_delay window -> one rebalance.
    assert coordinator.rebalances == 1
    assert coordinator.member_count("g") == 4
    assigned = [set(c.assigned) for c in consumers]
    assert all(len(s) == 2 for s in assigned)  # 8 partitions / 4 members
    union = set().union(*assigned)
    assert union == set(range(8))
    assert sum(len(s) for s in assigned) == 8  # disjoint
    assert all(c.generation == 1 for c in consumers)


def test_member_leave_triggers_reassignment_to_survivors():
    sim, cluster, deployment = make_world()
    alive = start_consumer(sim, cluster, deployment, "alive")
    doomed = start_consumer(sim, cluster, deployment, "doomed", node="hydra6")
    sim.run(until=2.0)
    assert set(alive.assigned) | set(doomed.assigned) == set(range(8))
    doomed.close()  # channel EOF -> coordinator.on_disconnect
    sim.run(until=6.0)
    coordinator = deployment.coordinator
    assert coordinator.member_count("g") == 1
    assert set(alive.assigned) == set(range(8))
    assert alive.generation == 2
    assert coordinator.rebalances == 2


def test_stale_generation_does_not_advance_offsets():
    # After a rebalance, positions for partitions assigned away are dropped,
    # and a response that lands after it does not advance them: 'first' has
    # a fetch session parked on all eight partitions when the rebalance
    # hands 4-7 to 'second', and that stale session's response carries
    # partition 5's record, which only 'second' may consume.
    sim, cluster, deployment = make_world()
    first = start_consumer(sim, cluster, deployment, "first")
    sim.run(until=2.0)
    assert set(first.assigned) == set(range(8))
    second = start_consumer(sim, cluster, deployment, "second", node="hydra6")
    while first.generation < 2:
        sim.run(until=sim.now + 0.01)
    broker = deployment.brokers[0]
    key = (deployment.topic, 5)
    # first's session, sent in generation 1, still names all eight.
    everything = {(deployment.topic, p) for p in range(8)}
    assert [set(w.offsets) == everything for w in broker._waiters[key]].count(True) == 1
    broker.logs[key].append([(None, "v", 100.0)])
    broker._wake_fetchers(*key)
    sim.run(until=6.0)
    # Range assignor: 'first' < 'second', each gets a contiguous half.
    assert set(first.assigned) == {0, 1, 2, 3}
    assert set(first.positions) == {0, 1, 2, 3}
    assert set(second.assigned) == {4, 5, 6, 7}
    assert broker.stats.records_fetched == 2  # served to both sessions
    assert first.records_consumed == 0
    assert second.records_consumed == 1 and second.positions[5] == 1


# -------------------------------------------------------------------- commits
def test_commit_only_advances_owned_partitions():
    sim = Simulator(seed=1)
    cluster = HydraCluster(sim)
    broker = PlogBroker(sim, cluster.node("hydra1"), "b", CONFIG)
    coordinator = GroupCoordinator(broker, 8)
    coordinator.handle(object(), ("join", "g", "c0", "t"))
    group = coordinator.groups["g"]
    group.assignment = {"c0": (0, 1)}
    coordinator.handle(
        object(), ("commit", "g", "c0", "t", {0: 5, 1: 3, 2: 9}, 0)
    )
    assert group.offsets == {("t", 0): 5, ("t", 1): 3}  # partition 2 not owned
    # Offsets are monotone: a late commit from a stale fetch cannot rewind.
    coordinator.handle(object(), ("commit", "g", "c0", "t", {0: 2}, 0))
    assert group.offsets[("t", 0)] == 5


def test_commit_for_unknown_group_ignored():
    sim = Simulator(seed=1)
    cluster = HydraCluster(sim)
    broker = PlogBroker(sim, cluster.node("hydra1"), "b", CONFIG)
    coordinator = GroupCoordinator(broker, 8)
    coordinator.handle(object(), ("commit", "nope", "c0", "t", {0: 5}, 0))
    assert "nope" not in coordinator.groups


def test_paused_prerebalance_consumer_cannot_clobber_new_owner():
    """Zombie fencing: a commit stamped with a stale generation is dropped
    even when ownership and monotonicity checks would both accept it."""
    sim = Simulator(seed=1)
    cluster = HydraCluster(sim)
    broker = PlogBroker(sim, cluster.node("hydra1"), "b", CONFIG)
    coordinator = GroupCoordinator(broker, 8)
    coordinator.handle(object(), ("join", "g", "zombie", "t"))
    group = coordinator.groups["g"]
    group.generation = 1
    group.assignment = {"zombie": (0,)}
    coordinator.handle(object(), ("commit", "g", "zombie", "t", {0: 30}, 1))
    assert group.offsets[("t", 0)] == 30
    # Two rebalances later the paused member owns partition 0 again, but
    # its world is still generation 1; the new owner has committed 35.
    group.generation = 3
    group.assignment = {"zombie": (0,), "other": (1,)}
    group.offsets[("t", 0)] = 35
    coordinator.handle(object(), ("commit", "g", "zombie", "t", {0: 50}, 1))
    assert group.offsets[("t", 0)] == 35  # fenced, not clobbered
    assert coordinator.fenced_commits == 1
    # Once the zombie observes generation 3, its commits land again.
    coordinator.handle(object(), ("commit", "g", "zombie", "t", {0: 50}, 3))
    assert group.offsets[("t", 0)] == 50


def test_new_owner_resumes_from_committed_offset():
    sim = Simulator(seed=1)
    cluster = HydraCluster(sim)
    broker = PlogBroker(sim, cluster.node("hydra1"), "b", CONFIG)
    coordinator = GroupCoordinator(broker, 8)
    coordinator.handle(object(), ("join", "g", "c0", "t"))
    group = coordinator.groups["g"]
    group.assignment = {"c0": tuple(range(8))}
    coordinator.handle(
        object(), ("commit", "g", "c0", "t", {p: 10 + p for p in range(8)}, 0)
    )
    coordinator.handle(object(), ("leave", "g", "c0"))
    assert coordinator.member_count("g") == 0
    # Committed offsets survive membership churn for the next owner.
    assert group.offsets[("t", 3)] == 13
