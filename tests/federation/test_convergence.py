"""Routing-table convergence on the live overlay: subscription propagation,
withdrawal, covering, crash re-parenting and re-convergence — all under
deterministic seeds."""

from repro.core import RecordBook
from repro.federation import (
    FederationController,
    FederationDeployment,
    FederationSitePublishers,
    FederationSubscriber,
    TreeTopology,
    site_topic,
)
from repro.powergrid.generator import PowerGenerator
from repro.powergrid.payload import narada_map_message
from repro.sim import Simulator


def build(n=7, fanout=2, seed=1, detect=0.5):
    sim = Simulator(seed=seed)
    topology = TreeTopology(n, fanout)
    deployment = FederationDeployment(sim, topology)
    sim.run_process(deployment.start())
    controller = FederationController(sim, deployment, detect_interval=detect)
    controller.start()
    return sim, topology, deployment, controller


def subscribe(sim, deployment, broker_name, sub_id, topics, stamp=False):
    sub = FederationSubscriber(
        sim, deployment, broker_name, sub_id, topics, stamp_records=stamp
    )
    sim.run_process(sub.start())
    return sub


def publish_one(sim, deployment, broker_name, topic, gen_id=0, seq=0):
    broker = deployment.broker(broker_name)

    def go():
        channel = yield from deployment.transport.connect(
            broker.node, broker.node.name, broker.port
        )
        model = PowerGenerator(gen_id, sim.rng.stream(f"test.{gen_id}"))
        message = narada_map_message(model.sample(sim.now))
        message.message_id = f"test.{gen_id}.{seq}"
        message._fed_topic = topic
        yield from channel.send(
            ("publish", message, topic),
            message.wire_size() + deployment.config.frame_overhead_bytes,
        )

    sim.run_process(go())


def settle(sim, dt=1.0):
    sim.run(until=sim.now + dt)


# ------------------------------------------------------------- propagation

def test_subscription_propagates_to_root():
    sim, topology, deployment, _ = build()
    sub = subscribe(sim, deployment, "fed3", "s", ("t",))
    settle(sim)
    assert deployment.broker("fed3").table.has_local("t")
    assert deployment.broker("fed1").table.children_for("t") == ("fed3",)
    assert deployment.broker("fed0").table.children_for("t") == ("fed1",)
    # an event published in the *opposite* subtree climbs to the root and
    # descends only the interested branch
    publish_one(sim, deployment, "fed6", "t")
    settle(sim)
    assert sub.recorder.received == 1
    assert sub.delivered_by_topic == {"t": 1}
    # the publisher's subtree carried the climb but saw no descent
    assert deployment.link_traffic.get(("fed0", "fed2"), 0) == 0
    assert deployment.broker("fed2").stats.forwards_down == 0


def test_unsubscribe_withdraws_up_the_tree():
    sim, topology, deployment, _ = build()
    sub = subscribe(sim, deployment, "fed3", "s", ("t",))
    settle(sim)
    sim.run_process(sub.unsubscribe("t"))
    settle(sim)
    for name in ("fed3", "fed1", "fed0"):
        assert not deployment.broker(name).table.has_interest("t")
    descents_before = deployment.broker("fed0").stats.forwards_down
    publish_one(sim, deployment, "fed6", "t")
    settle(sim)
    assert sub.recorder.received == 0
    assert deployment.broker("fed0").stats.forwards_down == descents_before


def test_covering_aggregates_per_subtree():
    sim, topology, deployment, _ = build()
    fed1, fed3, fed4 = (deployment.broker(n) for n in ("fed1", "fed3", "fed4"))
    base3, base1 = fed3.stats.control_messages, fed1.stats.control_messages
    # five subscribers on one topic at one leaf -> ONE fsub up, one entry
    # per ancestor link
    subscribe(sim, deployment, "fed3", "many", ("t",) * 5)
    settle(sim)
    assert fed3.stats.control_messages - base3 == 1
    assert fed1.stats.control_messages - base1 == 1
    assert fed1.table.entry_count() == 1
    assert deployment.broker("fed0").table.entry_count() == 1
    # a sibling subtree adds its own link entry at the parent, but the
    # parent's aggregate was already advertised: nothing new climbs
    base1 = fed1.stats.control_messages
    subscribe(sim, deployment, "fed4", "more", ("t",))
    settle(sim)
    assert fed1.table.children_for("t") == ("fed3", "fed4")
    assert fed1.stats.control_messages == base1
    assert deployment.broker("fed0").table.entry_count() == 1


# ----------------------------------------------------------- crash recovery

def test_parent_crash_reparents_and_reconverges():
    sim, topology, deployment, controller = build()
    sub3 = subscribe(sim, deployment, "fed3", "s3", ("t3",))
    sub4 = subscribe(sim, deployment, "fed4", "s4", ("t4",))
    settle(sim)
    deployment.broker("fed1").crash()
    settle(sim, 2.0)  # detection scan + sequential rewire
    assert controller.reparents >= 2
    assert deployment.broker("fed3").parent_name == "fed0"
    assert deployment.broker("fed4").parent_name == "fed0"
    assert deployment.converged()
    # re-advertisement re-converged routing: the root now routes the
    # orphaned leaves' topics down its direct links
    root_table = deployment.broker("fed0").table
    assert root_table.children_for("t3") == ("fed3",)
    assert root_table.children_for("t4") == ("fed4",)
    publish_one(sim, deployment, "fed6", "t3")
    settle(sim)
    assert sub3.recorder.received == 1

    deployment.broker("fed1").restart()
    settle(sim, 2.0)
    assert deployment.broker("fed1").parent_name == "fed0"
    assert deployment.broker("fed3").parent_name == "fed1"
    assert deployment.broker("fed4").parent_name == "fed1"
    assert deployment.converged()
    # the configured tree is back AND the interim direct entries are gone:
    # the rewire closed the leaf->root uplinks, whose EOFs dropped them
    assert deployment.broker("fed1").table.children_for("t3") == ("fed3",)
    assert root_table.children_for("t3") == ("fed1",)
    assert root_table.children_for("t4") == ("fed1",)
    publish_one(sim, deployment, "fed6", "t4", gen_id=1)
    settle(sim)
    assert sub4.recorder.received == 1


def test_root_crash_waits_for_return():
    sim, topology, deployment, controller = build()
    subscribe(sim, deployment, "fed3", "s", ("t",))
    settle(sim)
    deployment.broker("fed0").crash()
    settle(sim, 2.0)
    # no live ancestor exists: children stay orphaned, no thrash
    assert controller.reparents == 0
    assert deployment.broker("fed1").parent_channel is None
    deployment.broker("fed0").restart()
    settle(sim, 2.0)
    assert deployment.converged()
    # the root's table was rebuilt from its children's re-advertisements
    assert deployment.broker("fed0").table.children_for("t") == ("fed1",)


def test_reparent_log_is_deterministic():
    logs, delivered = [], []
    for _ in range(2):
        sim, topology, deployment, controller = build(seed=7)
        sub = subscribe(sim, deployment, "fed4", "s", ("t",))
        settle(sim)
        deployment.broker("fed1").crash()
        settle(sim, 2.0)
        publish_one(sim, deployment, "fed5", "t")
        settle(sim)
        logs.append(list(controller.reparent_log))
        delivered.append(sub.recorder.received)
    assert logs[0] == logs[1]
    assert delivered[0] == delivered[1] == 1


# -------------------------------------------------- delivery-safety property

def test_delivered_only_with_matching_subscription():
    """Every delivered message had a matching subscription at publish time:
    delivered topic sets are subsets of the subscribed sets, and counts
    match the published counts exactly (no duplication on the tree)."""
    sim, topology, deployment, _ = build()
    subs = {
        "fed3": subscribe(
            sim, deployment, "fed3", "a", (site_topic(0), site_topic(5))
        ),
        "fed6": subscribe(sim, deployment, "fed6", "b", (site_topic(6),)),
        "fed0": subscribe(
            sim,
            deployment,
            "fed0",
            "control",
            tuple(site_topic(i) for i in range(7)),
        ),
    }
    settle(sim)
    book = RecordBook()
    fleets = {}
    stop_at = sim.now + 12.0
    for i, name in enumerate(topology.names):
        fleet = FederationSitePublishers(
            sim,
            deployment,
            name,
            site_topic(i),
            n_generators=1,
            publish_interval=2.0,
            book=book,
            stop_at=stop_at,
            gen_id_base=i * 10,
        )
        fleet.start()
        fleets[site_topic(i)] = fleet
    sim.run(until=stop_at + 10.0)

    for name, sub in subs.items():
        subscribed = set(sub.topics)
        assert set(sub.delivered_by_topic) <= subscribed
        # exact match: everything published on a subscribed topic arrived
        # exactly once (subscriptions predate every publish)
        for topic in subscribed:
            assert sub.delivered_by_topic.get(topic, 0) == fleets[topic].published
    # unsubscribed topics were never even forwarded to fed3's broker
    fed3_seen = set(subs["fed3"].delivered_by_topic)
    assert site_topic(1) not in fed3_seen and site_topic(6) not in fed3_seen
