"""Integration tests: fleets + receivers on both middlewares (small scale)."""

import pytest

from repro.cluster import HydraCluster
from repro.core import RecordBook, rtt_stats
from repro.core.metrics import soft_realtime_compliance
from repro.jms import AckMode
from repro.narada import Broker, narada_connection_factory
from repro.faults.recovery import RetryPolicy
from repro.powergrid import (
    FleetConfig, NaradaFleet, NaradaReceiver, PlogFleet, RgmaFleet, RgmaReceiver,
)
from repro.powergrid.workload import MONITORING_TOPIC
from repro.rgma import RGMADeployment
from repro.sim import Simulator
from repro.transport import TcpTransport


SMALL = FleetConfig(
    n_generators=20,
    publish_interval=10.0,
    creation_interval=0.05,
    warmup_min=1.0,
    warmup_max=2.0,
    duration=40.0,
)


def narada_setup(seed=41):
    sim = Simulator(seed=seed)
    cluster = HydraCluster(sim)
    tcp = TcpTransport(sim, cluster.lan)
    broker = Broker(sim, cluster.node("hydra1"), "broker1")
    broker.serve(tcp, 5045)
    return sim, cluster, tcp, broker


def test_narada_fleet_end_to_end():
    sim, cluster, tcp, broker = narada_setup()
    book = RecordBook()
    receiver = NaradaReceiver(
        sim, cluster, tcp, ("hydra1", 5045), "hydra8", MONITORING_TOPIC
    )
    sim.run_process(receiver.start())
    fleet = NaradaFleet(sim, cluster, tcp, [("hydra1", 5045)], SMALL, book)
    fleet.start()
    sim.run(until=sim.now + 60.0)
    assert fleet.stats.connections_ok == 20
    assert book.sent_count >= 20 * 3  # several publishes per generator
    stats = rtt_stats(book)
    assert stats.loss_rate == 0.0
    assert stats.mean_ms < 50  # milliseconds domain
    assert receiver.received == book.received_count


def test_narada_fleet_meets_soft_realtime_requirement():
    """The §I requirement: within 5 s, < 0.5 % late/lost — TCP passes."""
    sim, cluster, tcp, broker = narada_setup()
    book = RecordBook()
    receiver = NaradaReceiver(
        sim, cluster, tcp, ("hydra1", 5045), "hydra8", MONITORING_TOPIC
    )
    sim.run_process(receiver.start())
    fleet = NaradaFleet(sim, cluster, tcp, [("hydra1", 5045)], SMALL, book)
    fleet.start()
    sim.run(until=sim.now + 60.0)
    ok, frac, loss = soft_realtime_compliance(book)
    assert ok


def test_narada_client_ack_receiver():
    sim, cluster, tcp, broker = narada_setup()
    book = RecordBook()
    receiver = NaradaReceiver(
        sim, cluster, tcp, ("hydra1", 5045), "hydra8", MONITORING_TOPIC,
        ack_mode=AckMode.CLIENT_ACKNOWLEDGE, client_ack_batch=5,
    )
    sim.run_process(receiver.start())
    fleet = NaradaFleet(sim, cluster, tcp, [("hydra1", 5045)], SMALL, book)
    fleet.start()
    sim.run(until=sim.now + 60.0)
    assert receiver.received > 0
    # Batched acks: strictly fewer ack ops than messages.
    assert broker.stats.acks_processed >= receiver.received - 5


def test_narada_selector_receives_everything():
    """Paper: the id<10000 selector 'did not filter out any data'."""
    sim, cluster, tcp, broker = narada_setup()
    book = RecordBook()
    receiver = NaradaReceiver(
        sim, cluster, tcp, ("hydra1", 5045), "hydra8", MONITORING_TOPIC
    )
    sim.run_process(receiver.start())
    fleet = NaradaFleet(sim, cluster, tcp, [("hydra1", 5045)], SMALL, book)
    fleet.start()
    sim.run(until=sim.now + 60.0)
    assert book.received_count == book.sent_count


def test_triple_payload_config_inflates_and_slows():
    import dataclasses

    sim, cluster, tcp, broker = narada_setup()
    book = RecordBook()
    receiver = NaradaReceiver(
        sim, cluster, tcp, ("hydra1", 5045), "hydra8", MONITORING_TOPIC
    )
    sim.run_process(receiver.start())
    cfg = dataclasses.replace(SMALL, payload_multiplier=3, n_generators=5)
    fleet = NaradaFleet(sim, cluster, tcp, [("hydra1", 5045)], cfg, book)
    fleet.start()
    sim.run(until=sim.now + 80.0)
    # 1/3 publishing rate: duration 40 / (10*3) ≈ 1-2 messages per generator.
    per_gen = book.sent_count / 5
    assert per_gen <= 2.5


def test_fleet_cannot_start_twice():
    sim, cluster, tcp, broker = narada_setup()
    fleet = NaradaFleet(sim, cluster, tcp, [("hydra1", 5045)], SMALL, RecordBook())
    fleet.start()
    with pytest.raises(RuntimeError):
        fleet.start()


def test_rgma_fleet_end_to_end():
    sim = Simulator(seed=43)
    cluster = HydraCluster(sim)
    deployment = RGMADeployment.single_server(sim, cluster)
    book = RecordBook()
    receiver = RgmaReceiver(sim, cluster, deployment, "hydra8")
    sim.run_process(receiver.start())
    import dataclasses

    cfg = dataclasses.replace(SMALL, n_generators=10, warmup_min=6.0, warmup_max=8.0)
    fleet = RgmaFleet(sim, cluster, deployment, cfg, book)
    fleet.start()
    sim.run(until=sim.now + 80.0)
    receiver.stop()
    assert fleet.stats.connections_ok == 10
    stats = rtt_stats(book)
    assert stats.count > 0
    # R-GMA RTTs live in the ~second domain (paper Fig 11), far above Narada.
    assert 200 < stats.mean_ms < 3000
    assert stats.loss_rate < 0.05


@pytest.mark.parametrize(
    "fleet_type, change",
    [
        (RgmaFleet, dict(payload_multiplier=3)),
        (RgmaFleet, dict(retry=RetryPolicy(retries=2))),
        (PlogFleet, dict(retry=RetryPolicy(retries=2))),
    ],
    ids=["rgma-payload", "rgma-retry", "plog-retry"],
)
def test_fleet_rejects_config_it_cannot_honour(fleet_type, change):
    import dataclasses

    cfg = dataclasses.replace(SMALL, **change)
    with pytest.raises(ValueError, match="cannot honour"):
        fleet_type(Simulator(seed=1), None, None, cfg, RecordBook())
