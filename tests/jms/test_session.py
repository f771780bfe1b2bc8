"""Tests for sessions, producers, consumers and ack modes (loopback provider)."""

import pytest

from repro.jms import (
    AckMode,
    Connection,
    DeliveryMode,
    IllegalStateException,
    MapMessage,
    TextMessage,
    Topic,
)
from tests.jms.conftest import LoopbackProvider


TOPIC = Topic("power.monitoring")


def publish_one(sim, session, text="hello", **send_kwargs):
    pub = session.create_publisher(TOPIC)

    def go():
        yield from pub.publish(TextMessage(text), **send_kwargs)

    sim.run_process(go())
    return pub


# ------------------------------------------------------------ basic pub/sub
def test_publish_reaches_async_subscriber(sim, connection):
    session = connection.create_session()
    got = []

    def setup():
        yield from session.create_subscriber(TOPIC, listener=got.append)

    sim.run_process(setup())
    publish_one(sim, session, "m1")
    sim.run()
    assert len(got) == 1
    assert got[0].text == "m1"
    assert got[0].message_id is not None
    assert got[0].destination == TOPIC


def test_selector_filters_at_subscription(sim, connection):
    session = connection.create_session()
    got = []

    def setup():
        yield from session.create_subscriber(
            TOPIC, selector="id < 10", listener=got.append
        )

    sim.run_process(setup())
    pub = session.create_publisher(TOPIC)

    def go():
        for i in (5, 15):
            m = TextMessage(f"m{i}")
            m.set_property("id", i)
            yield from pub.publish(m)

    sim.run_process(go())
    sim.run()
    assert [m.text for m in got] == ["m5"]


def test_sync_receive(sim, connection):
    session = connection.create_session()

    def run():
        consumer = yield from session.create_consumer(TOPIC)
        pub = session.create_publisher(TOPIC)
        yield from pub.publish(TextMessage("sync"))
        message = yield from consumer.receive()
        return message.text

    assert sim.run_process(run()) == "sync"


def test_sync_receive_timeout_returns_none(sim, connection):
    session = connection.create_session()

    def run():
        consumer = yield from session.create_consumer(TOPIC)
        message = yield from consumer.receive(timeout=0.5)
        return message

    assert sim.run_process(run()) is None


def test_receive_nowait(sim, connection):
    session = connection.create_session()

    def run():
        consumer = yield from session.create_consumer(TOPIC)
        empty = yield from consumer.receive(timeout=0)
        pub = session.create_publisher(TOPIC)
        yield from pub.publish(TextMessage("x"))
        yield sim.timeout(1.0)
        found = yield from consumer.receive(timeout=0)
        return empty, found.text

    assert sim.run_process(run()) == (None, "x")


def test_timeout_race_does_not_eat_message(sim, connection):
    """A message arriving after receive() timed out must stay in the inbox."""
    session = connection.create_session()

    def run():
        consumer = yield from session.create_consumer(TOPIC)
        missed = yield from consumer.receive(timeout=0.001)
        pub = session.create_publisher(TOPIC)
        yield from pub.publish(TextMessage("later"))
        found = yield from consumer.receive(timeout=5.0)
        return missed, found.text

    assert sim.run_process(run()) == (None, "later")


def test_message_delivered_at_the_receive_deadline_is_returned(sim):
    """A delivery at the deadline's own instant, after the deadline popped
    but before receive() resumed, is returned rather than lost."""
    from repro.jms import Connection

    provider = LoopbackProvider(sim, delay=0.25)
    connection = Connection(provider)
    connection.start()
    session = connection.create_session()
    consumer = None

    def receiver():
        nonlocal consumer
        consumer = yield from session.create_consumer(TOPIC)  # now = 0.25
        return (yield from consumer.receive(timeout=0.5))  # deadline 0.75

    def publisher():
        yield sim.timeout(0.25)
        # Lands at 0.25 + 0.25 (publish) + 0.25 (delivery) = 0.75.
        yield from session.create_publisher(TOPIC).publish(TextMessage("edge"))

    received = sim.process(receiver())
    sim.process(publisher())
    sim.run()
    assert len(provider.published) == 1
    assert received.value is not None and received.value.text == "edge"
    assert consumer.messages_consumed == 1
    assert len(consumer._inbox) == 0


# ----------------------------------------------------------------- ack modes
def test_auto_ack_acks_each_message(sim, connection, provider):
    session = connection.create_session(ack_mode=AckMode.AUTO_ACKNOWLEDGE)
    got = []

    def setup():
        yield from session.create_subscriber(TOPIC, listener=got.append)

    sim.run_process(setup())
    pub = session.create_publisher(TOPIC)

    def go():
        for i in range(5):
            yield from pub.publish(TextMessage(str(i)))

    sim.run_process(go())
    sim.run()
    assert len(provider.acked) == 5


def test_client_ack_batches(sim, connection, provider):
    session = connection.create_session(ack_mode=AckMode.CLIENT_ACKNOWLEDGE)
    got = []

    def setup():
        yield from session.create_subscriber(TOPIC, listener=got.append)

    sim.run_process(setup())
    pub = session.create_publisher(TOPIC)

    def go():
        for i in range(5):
            yield from pub.publish(TextMessage(str(i)))

    sim.run_process(go())
    sim.run()
    assert provider.acked == []  # nothing acked until the app says so
    got[-1].acknowledge()
    sim.run()
    assert len(provider.acked) == 5


def test_dups_ok_acks_in_batches(sim, connection, provider):
    session = connection.create_session(ack_mode=AckMode.DUPS_OK_ACKNOWLEDGE)
    got = []

    def setup():
        yield from session.create_subscriber(TOPIC, listener=got.append)

    sim.run_process(setup())
    pub = session.create_publisher(TOPIC)
    n = session.DUPS_OK_BATCH + 3

    def go():
        for i in range(n):
            yield from pub.publish(TextMessage(str(i)))

    sim.run_process(go())
    sim.run()
    assert len(provider.acked) == session.DUPS_OK_BATCH  # one full batch


def test_transacted_send_buffers_until_commit(sim, connection, provider):
    session = connection.create_session(transacted=True)
    pub = session.create_publisher(TOPIC)

    def go():
        yield from pub.publish(TextMessage("tx1"))
        yield from pub.publish(TextMessage("tx2"))
        assert provider.published == []
        yield from session.commit()

    sim.run_process(go())
    assert [m.text for m in provider.published] == ["tx1", "tx2"]


def test_transacted_rollback_discards_sends(sim, connection, provider):
    session = connection.create_session(transacted=True)
    pub = session.create_publisher(TOPIC)

    def go():
        yield from pub.publish(TextMessage("doomed"))
        yield from session.rollback()
        yield from session.commit()

    sim.run_process(go())
    assert provider.published == []


def test_commit_on_nontransacted_raises(sim, connection):
    session = connection.create_session()

    def go():
        yield from session.commit()

    with pytest.raises(IllegalStateException):
        sim.run_process(go())


def test_recover_redelivers_unacked(sim, connection):
    session = connection.create_session(ack_mode=AckMode.CLIENT_ACKNOWLEDGE)
    got = []

    def setup():
        yield from session.create_subscriber(TOPIC, listener=got.append)

    sim.run_process(setup())
    publish_one(sim, session, "r1")
    sim.run()
    assert len(got) == 1 and not got[0].redelivered
    session.recover()
    sim.run()
    assert len(got) == 2 and got[1].redelivered


# ----------------------------------------------------- headers set on publish
def test_publish_stamps_headers(sim, connection, provider):
    session = connection.create_session()
    pub = session.create_publisher(TOPIC)
    pub.priority = 7
    pub.delivery_mode = DeliveryMode.PERSISTENT

    def go():
        yield from pub.publish(TextMessage("h"), time_to_live=60.0)

    sim.run_process(go())
    m = provider.published[0]
    assert m.priority == 7
    assert m.delivery_mode == DeliveryMode.PERSISTENT
    assert m.timestamp is not None
    assert m.expiration == pytest.approx(m.timestamp + 60.0)


def test_message_ids_unique(sim, connection, provider):
    session = connection.create_session()
    pub = session.create_publisher(TOPIC)

    def go():
        for _ in range(10):
            yield from pub.publish(TextMessage("x"))

    sim.run_process(go())
    ids = [m.message_id for m in provider.published]
    assert len(set(ids)) == 10


def test_expired_message_not_delivered(sim, connection):
    session = connection.create_session()
    got = []

    def setup():
        yield from session.create_subscriber(TOPIC, listener=got.append)

    sim.run_process(setup())
    # Loopback delivery delay is 1 ms; TTL far smaller.
    pub = session.create_publisher(TOPIC)

    def go():
        yield from pub.publish(TextMessage("stale"), time_to_live=1e-6)

    sim.run_process(go())
    sim.run()
    assert got == []


def test_receive_skips_expired_message_and_waits_to_deadline(sim, connection, provider):
    """receive() acks an expired message away unseen, as the listener path
    drops it, and keeps waiting for a live one until its own deadline."""
    session = connection.create_session()

    def run():
        consumer = yield from session.create_consumer(TOPIC)
        pub = session.create_publisher(TOPIC)
        yield from pub.publish(TextMessage("stale"), time_to_live=1e-6)
        yield sim.timeout(1.0)  # "stale" expired in the inbox
        start = sim.now

        def late():
            yield sim.timeout(0.5)
            yield from pub.publish(TextMessage("fresh"))

        sim.process(late())
        fresh = yield from consumer.receive(timeout=2.0)
        stale_gone = sim.now
        nothing = yield from consumer.receive(timeout=1.0)
        return fresh.text, stale_gone - start, nothing, sim.now - stale_gone

    fresh, waited, nothing, timed_out_after = sim.run_process(run())
    assert fresh == "fresh"
    assert waited > 0.5
    assert nothing is None
    assert timed_out_after == pytest.approx(1.0)
    assert [m.text for m in provider.acked] == ["stale", "fresh"]


def test_receive_nowait_skips_expired_message(sim, connection, provider):
    session = connection.create_session()

    def run():
        consumer = yield from session.create_consumer(TOPIC)
        pub = session.create_publisher(TOPIC)
        yield from pub.publish(TextMessage("stale"), time_to_live=1e-6)
        yield sim.timeout(1.0)
        return (yield from consumer.receive(timeout=0)), consumer.messages_consumed

    assert sim.run_process(run()) == (None, 0)
    sim.run()
    assert [m.text for m in provider.acked] == ["stale"]


def test_listener_acks_expired_message_away(sim, connection, provider):
    session = connection.create_session()
    got = []

    def setup():
        yield from session.create_subscriber(TOPIC, listener=got.append)

    sim.run_process(setup())
    publish_one(sim, session, "stale", time_to_live=1e-6)
    sim.run()
    assert got == []
    assert [m.text for m in provider.acked] == ["stale"]


# --------------------------------------------------------- connection state
def test_connection_stopped_buffers_deliveries(sim, provider):
    from repro.jms import Connection

    conn = Connection(provider)  # not started
    session = conn.create_session()
    got = []

    def setup():
        yield from session.create_subscriber(TOPIC, listener=got.append)

    sim.run_process(setup())
    pub = session.create_publisher(TOPIC)

    def go():
        yield from pub.publish(TextMessage("early"))

    sim.run_process(go())
    sim.run()
    assert got == []
    conn.start()
    sim.run()
    assert [m.text for m in got] == ["early"]


def test_close_closes_sessions_and_provider(sim, connection, provider):
    session = connection.create_session()
    connection.close()
    assert session.closed
    assert provider.closed
    with pytest.raises(IllegalStateException):
        connection.create_session()


def test_listener_generator_runs_simulated_work(sim, connection):
    session = connection.create_session()
    done_at = []

    def slow_listener(message):
        yield sim.timeout(2.0)
        done_at.append(sim.now)

    def setup():
        yield from session.create_subscriber(TOPIC, listener=slow_listener)

    sim.run_process(setup())
    publish_one(sim, session)
    sim.run()
    assert done_at and done_at[0] >= 2.0


def test_session_serial_dispatch(sim, connection):
    """Two consumers on one session: listeners never overlap in time."""
    session = connection.create_session()
    intervals = []

    def listener(message):
        start = sim.now
        yield sim.timeout(1.0)
        intervals.append((start, sim.now))

    def setup():
        yield from session.create_subscriber(TOPIC, listener=listener)
        yield from session.create_subscriber(TOPIC, listener=listener)

    sim.run_process(setup())
    publish_one(sim, session)
    sim.run()
    assert len(intervals) == 2
    (s1, e1), (s2, e2) = sorted(intervals)
    assert s2 >= e1  # serial, not concurrent


def test_consumer_close_unsubscribes(sim, connection, provider):
    session = connection.create_session()

    def run():
        consumer = yield from session.create_consumer(TOPIC)
        assert len(provider.subscriptions) == 1
        yield from consumer.close()
        return len(provider.subscriptions)

    assert sim.run_process(run()) == 0


def test_durable_subscriber_flag(sim, connection):
    session = connection.create_session()

    def run():
        sub = yield from session.create_subscriber(
            TOPIC, durable_name="monitor-1", listener=lambda m: None
        )
        return sub.durable, sub.durable_name

    assert sim.run_process(run()) == (True, "monitor-1")
