"""Failure injection: broker death, channel breakage, NIO threading, GC tails."""

import pytest

from repro.jms import TextMessage, Topic
from repro.narada import Broker, NaradaConfig, narada_connection_factory
from repro.sim import Simulator
from repro.cluster import HydraCluster
from repro.transport import NioTransport, TcpTransport
from tests.narada.conftest import connect

TOPIC = Topic("power.monitoring")


def test_broker_shutdown_stops_service_without_crash(env):
    sim, cluster, tcp, broker = env
    conn = connect(sim, cluster, tcp, "hydra2")
    got = []

    def run():
        session = conn.create_session()
        yield from session.create_subscriber(TOPIC, listener=got.append)
        pub = conn.create_session().create_publisher(TOPIC)
        yield from pub.publish(TextMessage("before"))
        yield sim.timeout(1.0)
        broker.shutdown()
        yield from pub.publish(TextMessage("after"))
        yield sim.timeout(2.0)

    sim.run_process(run())
    sim.run(until=sim.now + 2.0)
    assert [m.text for m in got] == ["before"]


def test_subscriber_channel_close_counts_dropped_deliveries(env):
    sim, cluster, tcp, broker = env
    sub_conn = connect(sim, cluster, tcp, "hydra3")
    got = []

    def setup():
        session = sub_conn.create_session()
        yield from session.create_subscriber(TOPIC, listener=got.append)

    sim.run_process(setup())
    pub_conn = connect(sim, cluster, tcp, "hydra2")

    def run():
        pub = pub_conn.create_session().create_publisher(TOPIC)
        yield from pub.publish(TextMessage("ok"))
        yield sim.timeout(1.0)
        # Abruptly sever the subscriber's network channel.
        sub_conn.provider.channel.close()
        yield sim.timeout(0.5)
        yield from pub.publish(TextMessage("dropped"))
        yield sim.timeout(2.0)

    sim.run_process(run())
    sim.run(until=sim.now + 2.0)
    assert [m.text for m in got] == ["ok"]
    # The broker either dropped the in-flight delivery or reaped the
    # (non-durable) subscription when it saw the channel close.
    assert (
        broker.stats.deliveries_dropped >= 1
        or broker.subscription_count(TOPIC.name) == 0
    )


def test_nio_broker_uses_single_selector_thread():
    """NIO's memory pitch: one selector thread instead of N connection
    threads."""
    def thread_count(transport_cls):
        sim = Simulator(seed=9)
        cluster = HydraCluster(sim)
        transport = transport_cls(sim, cluster.lan)
        broker = Broker(sim, cluster.node("hydra1"), "b", NaradaConfig())
        broker.serve(transport, 5045)

        def clients():
            for i in range(20):
                yield from transport.connect(
                    cluster.node("hydra2"), "hydra1", 5045
                )

        sim.run_process(clients())
        return broker.jvm.thread_count

    assert thread_count(TcpTransport) == 20
    assert thread_count(NioTransport) == 1


def test_gc_pauses_create_latency_tail():
    """A heap-churning broker shows occasional multi-ms spikes (the paper's
    percentile-curve bend near 100%)."""
    sim = Simulator(seed=10)
    cluster = HydraCluster(sim)
    tcp = TcpTransport(sim, cluster.lan)
    config = NaradaConfig(
        per_message_heap=3 * 1024 * 1024,  # exaggerate allocation pressure
    )
    broker = Broker(sim, cluster.node("hydra1"), "b", config)
    broker.serve(tcp, 5045)
    factory = narada_connection_factory(
        sim, tcp, cluster.node("hydra2"), "hydra1", 5045, config
    )
    rtts = []

    def run():
        conn = yield from factory.create_connection()
        conn.start()
        session = conn.create_session()
        yield from session.create_subscriber(
            TOPIC, listener=lambda m: rtts.append(sim.now - m._t_sent)
        )
        pub = conn.create_session().create_publisher(TOPIC)
        for _ in range(300):
            m = TextMessage("x")
            m._t_sent = sim.now
            yield from pub.publish(m)
            yield sim.timeout(0.02)

    sim.run_process(run())
    sim.run(until=sim.now + 5.0)
    assert broker.jvm.minor_gcs > 0
    rtts.sort()
    p50 = rtts[len(rtts) // 2]
    p100 = rtts[-1]
    assert p100 > 3 * p50  # GC spikes fatten the tail


def test_duplicate_durable_subscription_rejected(env):
    sim, cluster, tcp, broker = env
    conn = connect(sim, cluster, tcp, "hydra2")
    from repro.jms import JMSException

    def run():
        session = conn.create_session()
        yield from session.create_subscriber(
            TOPIC, durable_name="mon", listener=lambda m: None
        )
        with pytest.raises(JMSException, match="duplicate durable"):
            yield from session.create_subscriber(
                TOPIC, durable_name="mon", listener=lambda m: None
            )

    sim.run_process(run())


def test_publish_on_dead_broker_channel_does_not_crash_fleet(env):
    """Generators keep going when sends fail: every connection was made
    and the fleet published before the broker died."""
    from repro.core import RecordBook
    from repro.powergrid import FleetConfig, NaradaFleet

    sim, cluster, tcp, broker = env
    book = RecordBook()
    config = FleetConfig(
        n_generators=5, publish_interval=2.0, creation_interval=0.01,
        warmup_min=0.5, warmup_max=1.0, duration=20.0,
        client_nodes=("hydra5",),
    )
    fleet = NaradaFleet(sim, cluster, tcp, [("hydra1", 5045)], config, book)
    fleet.start()
    sim.run(until=5.0)

    def kill():
        # Sever all client channels server-side.
        broker.shutdown()
        yield sim.timeout(0.0)

    sim.run_process(kill())
    sim.run(until=30.0)
    assert fleet.stats.connections_ok == 5
    assert book.sent_count > 0


@pytest.mark.parametrize("transport_cls", [TcpTransport, NioTransport])
def test_client_disconnect_tears_down_its_subscription(transport_cls):
    """A client that subscribes and disconnects is forgotten whichever way
    its channel was served: the NIO selector loop used to free the heap but
    keep the subscription and the channel, so every later publish paid
    selector evaluation for a dead subscriber."""
    sim = Simulator(seed=9)
    cluster = HydraCluster(sim)
    transport = transport_cls(sim, cluster.lan)
    broker = Broker(sim, cluster.node("hydra1"), "b", NaradaConfig())
    broker.serve(transport, 5045)
    heap_before = broker.jvm.heap_used

    def client():
        channel = yield from transport.connect(
            cluster.node("hydra2"), "hydra1", 5045
        )
        yield from channel.send(("subscribe", "s1", TOPIC, None, False), 64)
        yield sim.timeout(1.0)
        assert broker.subscription_count() == 1
        channel.close()

    sim.run_process(client())
    sim.run(until=sim.now + 1.0)
    assert broker.subscription_count() == 0
    assert broker._client_channels == []
    assert broker.open_connections == 0
    assert broker.jvm.heap_used == heap_before
