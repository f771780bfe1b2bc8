"""A parked long-poll fetch: its max_wait timer lives exactly as long as it."""

from repro.cluster import HydraCluster
from repro.plog import PlogBroker, PlogConfig
from repro.sim import Simulator
from repro.transport import TcpTransport

CONFIG = PlogConfig(partitions=1)
PORT = 5060
MAX_WAIT = 1.0


def park_one_fetch():
    """A broker with one empty partition and one fetch parked on it."""
    sim = Simulator(seed=1)
    cluster = HydraCluster(sim)
    transport = TcpTransport(sim, cluster.lan)
    broker = PlogBroker(sim, cluster.node("hydra1"), "b", CONFIG)
    broker.create_partition("t", 0)
    broker.serve(transport, PORT)
    client = cluster.node("hydra5")

    def fetch():
        channel = yield from transport.connect(client, "hydra1", PORT)
        frame = ("fetch", 1, "t", 0, 0, CONFIG.fetch_max_records, MAX_WAIT)
        yield from channel.send(frame, CONFIG.frame_overhead_bytes)

    sim.process(fetch())
    sim.run(until=0.5)
    assert broker.stats.long_polls_parked == 1
    assert broker.stats.fetches == 0
    return sim, broker


def test_parked_fetch_expires_into_an_empty_response():
    sim, broker = park_one_fetch()
    sim.run(until=0.5 + 2 * MAX_WAIT)
    assert broker.stats.fetches == 1
    assert broker.stats.empty_fetches == 1


def test_crashed_broker_does_not_answer_its_parked_fetches():
    sim, broker = park_one_fetch()
    busy = broker.node.cpu_busy_time
    broker.crash()
    sim.run(until=0.5 + 2 * MAX_WAIT)
    assert broker.stats.fetches == 0
    assert broker.node.cpu_busy_time == busy


def test_woken_fetch_cancels_its_expiry():
    sim, broker = park_one_fetch()
    broker.logs[("t", 0)].append([(None, "v", 100.0)])
    broker._wake_fetchers("t", 0)
    sim.run(until=0.5 + MAX_WAIT / 2)
    assert broker.stats.fetches == 1 and broker.stats.records_fetched == 1
    assert sim.pending_events == 0  # no expiry left to pop at t = 1.5


def test_parked_gauge_tracks_active_waiters():
    """The telemetry gauge is a live count, right after every kind of change."""
    from repro.telemetry import Telemetry
    from repro.telemetry.context import session

    sim = Simulator(seed=1)
    cluster = HydraCluster(sim)
    transport = TcpTransport(sim, cluster.lan)
    broker = PlogBroker(sim, cluster.node("hydra1"), "b", CONFIG)
    broker.create_partition("t", 0)
    broker.create_partition("t", 1)
    broker.serve(transport, PORT)
    channels = {}

    def fetch(tag, partition, max_wait):
        channel = yield from transport.connect(cluster.node("hydra5"), "hydra1", PORT)
        channels[tag] = channel
        frame = ("fetch", 1, "t", partition, 0, CONFIG.fetch_max_records, max_wait)
        yield from channel.send(frame, CONFIG.frame_overhead_bytes)

    def check(expected):
        active = sum(w.active for ws in broker._waiters.values() for w in ws)
        gauge = tel.metrics.gauge("plog", "b", "long_polls_parked").value
        assert (active, gauge) == (expected, expected)

    with session(Telemetry()) as tel:
        sim.process(fetch("expires", 0, MAX_WAIT))
        sim.process(fetch("woken", 0, 10.0))
        sim.process(fetch("closed", 1, 10.0))
        sim.process(fetch("crashed", 1, 10.0))
        sim.run(until=0.5)
        check(4)  # parked
        sim.run(until=0.5 + MAX_WAIT)
        check(3)  # expired
        channels["closed"].close()
        sim.run(until=sim.now + 0.1)
        check(2)  # its connection closed
        broker.logs[("t", 0)].append([(None, "v", 100.0)])
        broker._wake_fetchers("t", 0)
        check(1)  # woken
        broker.crash()
        check(0)  # died with the broker
