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
    assert sim.peek() == float("inf")  # no expiry left to pop at t = 1.5
