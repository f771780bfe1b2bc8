"""Tests for the Distributed Broker Network (BNM + BDN + forwarding modes)."""

import pytest

from repro.cluster import HydraCluster
from repro.jms import TextMessage, Topic
from repro.narada import (
    Broker,
    BrokerNetwork,
    NaradaConfig,
    narada_connection_factory,
)
from repro.sim import Simulator
from repro.transport import TcpTransport

TOPIC = Topic("power.monitoring")
PORTS = {"b1": 5045, "b2": 5046, "b3": 5047, "b4": 5048}


def build_dbn(broadcast_flaw=True, seed=13):
    """The paper's 4-broker star: b1 is the unit controller (hub)."""
    sim = Simulator(seed=seed)
    cluster = HydraCluster(sim)
    tcp = TcpTransport(sim, cluster.lan)
    config = NaradaConfig(broadcast_flaw=broadcast_flaw)
    network = BrokerNetwork(sim, tcp)
    brokers = {}
    for i, name in enumerate(PORTS, start=1):
        broker = Broker(sim, cluster.node(f"hydra{i}"), name, config)
        broker.serve(tcp, PORTS[name])
        brokers[name] = broker

    def setup():
        for broker in brokers.values():
            yield from network.add_broker(broker)
        yield from network.star("b1", ["b2", "b3", "b4"])

    sim.run_process(setup())
    return sim, cluster, tcp, network, brokers


def connect(sim, cluster, tcp, node_name, broker_name):
    factory = narada_connection_factory(
        sim, tcp, cluster.node(node_name), f"hydra{list(PORTS).index(broker_name)+1}",
        PORTS[broker_name],
    )
    holder = {}

    def go():
        conn = yield from factory.create_connection()
        conn.start()
        holder["conn"] = conn

    sim.run_process(go())
    return holder["conn"]


def test_bdn_registers_brokers():
    sim, cluster, tcp, network, brokers = build_dbn()
    assert network.bdn.broker_names == ["b1", "b2", "b3", "b4"]
    assert network.bdn.lookup("b2") is brokers["b2"]
    assert network.bdn.lookup("nope") is None


def test_star_graph_shape():
    sim, cluster, tcp, network, brokers = build_dbn()
    assert set(network.graph["b1"]) == {"b2", "b3", "b4"}
    assert set(network.graph["b2"]) == {"b1"}
    assert network.first_hop("b2", "b3") == "b1"


def test_cross_broker_delivery_flaw_mode():
    """Publisher on b2, subscriber on b3: message crosses the hub."""
    sim, cluster, tcp, network, brokers = build_dbn(broadcast_flaw=True)
    sub_conn = connect(sim, cluster, tcp, "hydra5", "b3")
    got = []

    def setup():
        session = sub_conn.create_session()
        yield from session.create_subscriber(TOPIC, listener=got.append)

    sim.run_process(setup())
    pub_conn = connect(sim, cluster, tcp, "hydra6", "b2")

    def publish():
        session = pub_conn.create_session()
        pub = session.create_publisher(TOPIC)
        yield from pub.publish(TextMessage("across"))

    sim.run_process(publish())
    sim.run(until=sim.now + 5.0)
    assert [m.text for m in got] == ["across"]


def test_flaw_mode_floods_all_brokers():
    """v1.1.3: data flows to brokers with no subscribers (paper §III.E.2)."""
    sim, cluster, tcp, network, brokers = build_dbn(broadcast_flaw=True)
    sub_conn = connect(sim, cluster, tcp, "hydra5", "b3")

    def setup():
        session = sub_conn.create_session()
        yield from session.create_subscriber(TOPIC, listener=lambda m: None)

    sim.run_process(setup())
    pub_conn = connect(sim, cluster, tcp, "hydra6", "b2")

    def publish():
        session = pub_conn.create_session()
        pub = session.create_publisher(TOPIC)
        for _ in range(10):
            yield from pub.publish(TextMessage("x"))

    sim.run_process(publish())
    sim.run(until=sim.now + 5.0)
    # b4 has no subscribers yet still received every event.
    assert brokers["b4"].stats.forwards_received == 10


def test_fixed_routing_avoids_uninterested_brokers():
    """The ablation: subscription-aware routing removes the waste."""
    sim, cluster, tcp, network, brokers = build_dbn(broadcast_flaw=False)
    sub_conn = connect(sim, cluster, tcp, "hydra5", "b3")

    def setup():
        session = sub_conn.create_session()
        yield from session.create_subscriber(TOPIC, listener=lambda m: None)

    sim.run_process(setup())
    sim.run(until=sim.now + 1.0)  # let interest propagate
    pub_conn = connect(sim, cluster, tcp, "hydra6", "b2")

    def publish():
        session = pub_conn.create_session()
        pub = session.create_publisher(TOPIC)
        for _ in range(10):
            yield from pub.publish(TextMessage("x"))

    sim.run_process(publish())
    sim.run(until=sim.now + 5.0)
    assert brokers["b3"].stats.forwards_received == 10  # target
    assert brokers["b4"].stats.forwards_received == 0  # spared
    # Hub b1 relayed but should not double-deliver.
    assert brokers["b3"].stats.messages_delivered == 10


def test_fixed_routing_delivers_cross_broker():
    sim, cluster, tcp, network, brokers = build_dbn(broadcast_flaw=False)
    sub_conn = connect(sim, cluster, tcp, "hydra5", "b4")
    got = []

    def setup():
        session = sub_conn.create_session()
        yield from session.create_subscriber(TOPIC, listener=got.append)

    sim.run_process(setup())
    sim.run(until=sim.now + 1.0)
    pub_conn = connect(sim, cluster, tcp, "hydra6", "b2")

    def publish():
        session = pub_conn.create_session()
        pub = session.create_publisher(TOPIC)
        yield from pub.publish(TextMessage("routed"))

    sim.run_process(publish())
    sim.run(until=sim.now + 5.0)
    assert [m.text for m in got] == ["routed"]


def test_no_duplicate_delivery_under_flood():
    """Dedup: a subscriber behind the hub gets exactly one copy."""
    sim, cluster, tcp, network, brokers = build_dbn(broadcast_flaw=True)
    sub_conn = connect(sim, cluster, tcp, "hydra5", "b1")  # on the hub
    got = []

    def setup():
        session = sub_conn.create_session()
        yield from session.create_subscriber(TOPIC, listener=got.append)

    sim.run_process(setup())
    pub_conn = connect(sim, cluster, tcp, "hydra6", "b2")

    def publish():
        session = pub_conn.create_session()
        pub = session.create_publisher(TOPIC)
        for i in range(5):
            yield from pub.publish(TextMessage(str(i)))

    sim.run_process(publish())
    sim.run(until=sim.now + 5.0)
    assert sorted(m.text for m in got) == ["0", "1", "2", "3", "4"]


def test_flood_produces_more_forwards_than_routing():
    """The flaw's cost: total inter-broker traffic is strictly higher."""

    def run(flaw):
        sim, cluster, tcp, network, brokers = build_dbn(broadcast_flaw=flaw)
        sub_conn = connect(sim, cluster, tcp, "hydra5", "b3")

        def setup():
            session = sub_conn.create_session()
            yield from session.create_subscriber(TOPIC, listener=lambda m: None)

        sim.run_process(setup())
        sim.run(until=sim.now + 1.0)
        pub_conn = connect(sim, cluster, tcp, "hydra6", "b2")

        def publish():
            session = pub_conn.create_session()
            pub = session.create_publisher(TOPIC)
            for _ in range(20):
                yield from pub.publish(TextMessage("x"))

        sim.run_process(publish())
        sim.run(until=sim.now + 5.0)
        return sum(b.stats.messages_forwarded for b in brokers.values())

    assert run(True) > run(False)


def test_same_broker_subscriber_not_affected_by_network():
    """Local pub/sub on one DBN broker still works."""
    sim, cluster, tcp, network, brokers = build_dbn()
    conn = connect(sim, cluster, tcp, "hydra5", "b2")
    got = []

    def run():
        session = conn.create_session()
        yield from session.create_subscriber(TOPIC, listener=got.append)
        pub = conn.create_session().create_publisher(TOPIC)
        yield from pub.publish(TextMessage("local"))

    sim.run_process(run())
    sim.run(until=sim.now + 5.0)
    assert [m.text for m in got] == ["local"]


def test_closing_a_peer_link_releases_nothing_it_never_charged():
    """Inter-broker links bypass the acceptor, so their EOF must not free
    per-connection heap or decrement ``open_connections`` (which used to go
    to -1, making every later message's scheduling overhead negative)."""
    sim = Simulator(seed=13)
    cluster = HydraCluster(sim)
    tcp = TcpTransport(sim, cluster.lan)
    network = BrokerNetwork(sim, tcp)
    brokers = [
        Broker(sim, cluster.node(f"hydra{i}"), f"b{i}", NaradaConfig())
        for i in (1, 2)
    ]

    def setup():
        for broker in brokers:
            yield from network.add_broker(broker)
        yield from network.star("b1", ["b2"])

    sim.run_process(setup())
    heap_before = [b.jvm.heap_used for b in brokers]
    brokers[0].peer_channels["b2"].close()
    sim.run(until=sim.now + 1.0)
    for broker, heap in zip(brokers, heap_before):
        assert broker.open_connections == 0
        assert broker.jvm.heap_used == heap
        assert broker._sched_overhead() == 0
