"""A parked long-poll fetch session: one waiter for all of its partitions,
whose max_wait timer lives exactly as long as it."""

from repro.cluster import HydraCluster
from repro.plog import PlogBroker, PlogConfig
from repro.sim import Simulator
from repro.transport import TcpTransport
from repro.transport.base import EOF

CONFIG = PlogConfig(partitions=2)
PORT = 5060
MAX_WAIT = 1.0


def serve_broker(partitions=1):
    sim = Simulator(seed=1)
    cluster = HydraCluster(sim)
    transport = TcpTransport(sim, cluster.lan)
    broker = PlogBroker(sim, cluster.node("hydra1"), "b", CONFIG)
    for partition in range(partitions):
        broker.create_partition("t", partition)
    broker.serve(transport, PORT)
    return sim, cluster, transport, broker


def park_one_fetch(partitions=1):
    """A broker with empty partitions and one fetch session parked on all
    of them; returns the frames the client receives too."""
    sim, cluster, transport, broker = serve_broker(partitions)
    received = []

    def fetch():
        channel = yield from transport.connect(cluster.node("hydra5"), "hydra1", PORT)
        offsets = {partition: 0 for partition in range(partitions)}
        frame = ("fetch", 1, "t", offsets, CONFIG.fetch_max_records, MAX_WAIT)
        yield from channel.send(frame, CONFIG.frame_overhead_bytes)
        while True:
            delivery = yield channel.receive()
            if delivery.payload is EOF:
                return
            received.append(delivery.payload)

    sim.process(fetch())
    sim.run(until=0.5)
    assert broker.stats.long_polls_parked == 1
    assert broker.stats.fetches == 0
    return sim, broker, received


def test_parked_fetch_expires_into_an_empty_response():
    sim, broker, received = park_one_fetch()
    sim.run(until=0.5 + 2 * MAX_WAIT)
    assert broker.stats.fetches == 1
    assert broker.stats.empty_fetches == 1
    assert received == [("fetch_resp", 1, {})]


def test_crashed_broker_does_not_answer_its_parked_fetches():
    sim, broker, _ = park_one_fetch()
    busy = broker.node.cpu_busy_time
    broker.crash()
    sim.run(until=0.5 + 2 * MAX_WAIT)
    assert broker.stats.fetches == 0
    assert broker.node.cpu_busy_time == busy


def test_woken_fetch_cancels_its_expiry():
    sim, broker, _ = park_one_fetch()
    broker.logs[("t", 0)].append([(None, "v", 100.0)])
    broker._wake_fetchers("t", 0)
    sim.run(until=0.5 + MAX_WAIT / 2)
    assert broker.stats.fetches == 1 and broker.stats.records_fetched == 1
    assert sim.pending_events == 0  # no expiry left to pop at t = 1.5


def test_session_wakes_once_for_the_partition_that_got_data():
    """One session parked on partitions 0 and 1: an append to partition 1
    answers it once, with only partition 1's records, and withdraws it
    from both partitions with its expiry."""
    sim, broker, received = park_one_fetch(partitions=2)
    assert broker._parked == 1
    assert broker._waiters[("t", 0)] == broker._waiters[("t", 1)]
    broker.logs[("t", 1)].append([(None, "v", 100.0)])
    broker._wake_fetchers("t", 1)
    assert broker._parked == 0 and broker._waiters == {}
    broker._wake_fetchers("t", 1)  # nothing parked on either partition now
    broker._wake_fetchers("t", 0)
    sim.run(until=0.5 + MAX_WAIT / 2)
    assert received == [("fetch_resp", 1, {1: ([(0, "v")], 1, 1)})]
    assert broker.stats.fetches == 1
    assert sim.pending_events == 0  # the one expiry was cancelled


def test_parked_gauge_tracks_active_waiters():
    """The broker's parked count is a live count of its parked sessions,
    each counted once, right after every kind of change."""
    sim, cluster, transport, broker = serve_broker(partitions=2)
    channels = {}

    def fetch(tag, partitions, max_wait):
        channel = yield from transport.connect(cluster.node("hydra5"), "hydra1", PORT)
        channels[tag] = channel
        offsets = {partition: 0 for partition in partitions}
        frame = ("fetch", 1, "t", offsets, CONFIG.fetch_max_records, max_wait)
        yield from channel.send(frame, CONFIG.frame_overhead_bytes)

    def check(expected):
        assert (len(broker._parked_waiters()), broker._parked) == (expected, expected)

    sim.process(fetch("expires", (0, 1), MAX_WAIT))
    sim.process(fetch("woken", (0,), 10.0))
    sim.process(fetch("closed", (0, 1), 10.0))
    sim.process(fetch("crashed", (1,), 10.0))
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
