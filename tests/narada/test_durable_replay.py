"""Durable retention: retain-until-ack, bounded buffers, crash replay.

The contract under test (§ delivery semantics): a durable subscription
retains every delivered copy until the subscriber's JMS ack comes back,
survives broker process death through the persistent
:class:`repro.narada.durable.DurableStore`, and replays the retained
window on re-subscribe — the subscriber's ``(gen_id, seq)`` index turns
that at-least-once replay into exactly-once processing.
"""

import random

import pytest

from repro.cluster import HydraCluster
from repro.core.records import RecordBook
from repro.faults.recovery import RetryPolicy
from repro.jms import TextMessage, Topic
from repro.narada import Broker, NaradaConfig
from repro.powergrid import FleetConfig, NaradaFleet, NaradaReceiver
from repro.powergrid.workload import MONITORING_TOPIC
from repro.sim import Simulator
from repro.transport import TcpTransport
from tests.narada.conftest import BROKER_PORT, connect

TOPIC = Topic("power.monitoring")


def _durable_subscribe(sim, conn, got, name="replay-1"):
    def subscribe():
        session = conn.create_session()
        yield from session.create_subscriber(
            TOPIC, durable_name=name, listener=got.append
        )

    sim.run_process(subscribe())


def _publish(sim, conn, texts):
    pub = conn.create_session().create_publisher(TOPIC)

    def publish():
        for text in texts:
            yield from pub.publish(TextMessage(text))

    sim.run_process(publish())


# ------------------------------------------------------------ retain / settle
def test_ack_settles_retained_copies(env):
    sim, cluster, tcp, broker = env
    sub_conn = connect(sim, cluster, tcp, "hydra3")
    got = []
    _durable_subscribe(sim, sub_conn, got)
    pub_conn = connect(sim, cluster, tcp, "hydra2")
    _publish(sim, pub_conn, ["m1", "m2", "m3"])
    sim.run(until=sim.now + 2.0)
    assert [m.text for m in got] == ["m1", "m2", "m3"]
    # Every delivery was retained until its AUTO ack came back and settled
    # it; nothing lingers and no heap leaks.
    assert broker.durable_store.retained_count() == 0
    assert broker.stats.acks_processed >= 3
    assert broker.stats.messages_replayed == 0


def test_crash_preserves_durable_registration_only(env):
    sim, cluster, tcp, broker = env
    sub_conn = connect(sim, cluster, tcp, "hydra3")
    got = []
    _durable_subscribe(sim, sub_conn, got)
    volatile_conn = connect(sim, cluster, tcp, "hydra4")

    def volatile_subscribe():
        session = volatile_conn.create_session()
        yield from session.create_subscriber(TOPIC, listener=lambda m: None)

    sim.run_process(volatile_subscribe())
    assert broker.subscription_count(TOPIC.name) == 2
    broker.crash()
    sim.run(until=sim.now + 1.0)
    # The non-durable subscription died with its channel; the durable one
    # was re-registered from the store, offline.
    assert broker.subscription_count(TOPIC.name) == 1
    assert "replay-1" in broker.durable_store
    assert broker._subs_by_id["replay-1"].channel is None


def test_backlog_replays_after_broker_crash_and_restart(env):
    sim, cluster, tcp, broker = env
    sub_conn = connect(sim, cluster, tcp, "hydra3")
    got = []
    _durable_subscribe(sim, sub_conn, got)
    sub_conn.close()
    sim.run(until=sim.now + 0.5)

    pub_conn = connect(sim, cluster, tcp, "hydra2")
    _publish(sim, pub_conn, ["m1", "m2"])  # offline backlog
    sim.run(until=sim.now + 1.0)
    assert broker.durable_store.retained_count() == 2

    broker.crash()
    sim.run(until=sim.now + 0.5)
    broker.restart()

    # Reconnect with the same durable name: the store-backed backlog
    # replays through the normal delivery path, then live traffic resumes.
    sub_conn2 = connect(sim, cluster, tcp, "hydra3")
    _durable_subscribe(sim, sub_conn2, got)
    sim.run(until=sim.now + 2.0)
    assert [m.text for m in got] == ["m1", "m2"]
    assert broker.stats.messages_replayed == 2
    pub_conn2 = connect(sim, cluster, tcp, "hydra2")
    _publish(sim, pub_conn2, ["m3"])
    sim.run(until=sim.now + 2.0)
    assert [m.text for m in got] == ["m1", "m2", "m3"]
    # Replayed copies were re-retained and then settled by the acks.
    assert broker.durable_store.retained_count() == 0


# -------------------------------------------------------------- memory budget
def test_eviction_under_buffer_budget_frees_heap(env):
    sim, cluster, tcp, broker = env
    broker.config = broker.config.with_(durable_buffer_max=5)
    sub_conn = connect(sim, cluster, tcp, "hydra3")
    got = []
    _durable_subscribe(sim, sub_conn, got, name="bounded")
    sub_conn.close()
    sim.run(until=sim.now + 0.5)
    heap_before = broker.jvm.heap_used

    pub_conn = connect(sim, cluster, tcp, "hydra2")
    _publish(sim, pub_conn, [str(i) for i in range(12)])
    sim.run(until=sim.now + 1.0)

    assert broker.durable_store.retained_count() == 5
    assert broker.stats.retention_evicted == 7
    # Heap holds exactly the publisher connection plus the 5 survivors —
    # evicted copies gave their allocation back.
    expected = (
        heap_before
        + broker.config.per_connection_heap
        + 5 * broker.config.per_message_heap
    )
    assert broker.jvm.heap_used == pytest.approx(expected)


def test_retention_oom_drops_instead_of_killing_the_broker(env):
    sim, cluster, tcp, broker = env
    sub_conn = connect(sim, cluster, tcp, "hydra3")
    got = []
    _durable_subscribe(sim, sub_conn, got, name="oom")
    sub_conn.close()
    sim.run(until=sim.now + 0.5)
    sub = broker._subs_by_id["oom"]

    # Exhaust the heap, then ask for retention: the copy is dropped and
    # counted, the handler survives.
    broker.jvm.heap_used = broker.jvm.heap_bytes
    dropped_before = broker.stats.deliveries_dropped
    assert broker._retain(sub, TextMessage("x"), sub.offline_buffer) is False
    assert sub.offline_buffer == []
    assert broker.stats.deliveries_dropped == dropped_before + 1
    assert broker.stats.retention_evicted == 1
    assert broker.alive


# ------------------------------------------------------------- durable store
def test_durable_store_registry_semantics(env):
    sim, cluster, tcp, broker = env
    sub_conn = connect(sim, cluster, tcp, "hydra3")
    _durable_subscribe(sim, sub_conn, [], name="reg-1")
    store = broker.durable_store
    sub = store.get("reg-1")
    assert sub is not None and "reg-1" in store and len(store) == 1
    store.register(sub)  # idempotent re-register
    assert len(store) == 1
    assert list(store) == [sub]
    store.forget("reg-1")
    assert store.get("reg-1") is None
    assert store.retained_count() == 0


# ---------------------------------------------------------- random schedules
@pytest.mark.parametrize("seed", [3, 5, 11])
def test_random_crash_schedule_delivers_exactly_once(seed):
    """Property: delivered ∪ replayed = published, with no duplicates.

    A retrying publisher fleet runs against one broker while a seeded
    schedule crashes/restarts the broker twice and kills the supervised
    durable subscriber once.  Every acknowledged publish must come out of
    the subscriber exactly once.  Crash instants sit mid-way between the
    1 Hz publish instants: Narada publishes carry no producer ack, so a
    byte literally in flight at the crash is lost before the broker ever
    saw it — that window is the publisher retry's job, not retention's.
    """
    sim = Simulator(seed=seed)
    cluster = HydraCluster(sim)
    tcp = TcpTransport(sim, cluster.lan)
    broker = Broker(sim, cluster.node("hydra1"), "broker1", NaradaConfig())
    broker.serve(tcp, BROKER_PORT)

    receiver = NaradaReceiver(
        sim,
        cluster,
        tcp,
        ("hydra1", BROKER_PORT),
        "hydra3",
        MONITORING_TOPIC,
        selector=None,
        durable_name="prop",
        recover=True,
    )
    sim.process(receiver.start(), name="recv.supervisor")

    book = RecordBook()
    stop_at = 14.0
    fleet = NaradaFleet(
        sim,
        cluster,
        tcp,
        [("hydra1", BROKER_PORT)],
        FleetConfig(
            n_generators=3,
            publish_interval=1.0,
            creation_interval=0.05,
            # Short warmup so the durable subscription exists before the
            # first publish, and so publish instants sit at ~x.65-x.95
            # while crashes land at ~x.1-x.3.
            warmup_min=0.65,
            warmup_max=0.95,
            stop_at=stop_at,
            client_nodes=("hydra2",),
            retry=RetryPolicy(retries=8, backoff=0.1),
        ),
        book,
    )
    fleet.start()

    rng = random.Random(seed)
    crash1 = rng.randint(2, 5)
    crash2 = crash1 + rng.randint(3, 5)

    def chaos():
        for base in (crash1, crash2):
            yield sim.timeout(base + 0.1 + 0.2 * rng.random() - sim.now)
            broker.crash()
            yield sim.timeout(0.5 + rng.random())
            broker.restart()
        yield sim.timeout(12.6 - sim.now)
        receiver.close()  # supervisor reconnects; replay covers the gap

    sim.process(chaos(), name="chaos")
    sim.run(until=stop_at + 20.0)

    assert broker.restarts == 2
    assert receiver.crashes == 1 and receiver.reconnects >= 1
    acked = [r for r in book.records if r.t_after_send is not None]
    delivered = [r for r in book.records if r.t_received is not None]
    assert acked, "fleet never published"
    # Exactly-once processing: nothing acknowledged is lost, nothing is
    # counted twice, and the receiver's tally matches the record book.
    assert [r for r in acked if r.t_received is None] == []
    assert receiver.recorder.duplicates == 0
    assert receiver.recorder.received == len(delivered)
