"""Tests for the long-poll edge gateway against a fake upstream."""

import pytest

from repro.cluster import HydraCluster
from repro.core import MessageRecord
from repro.edge import EdgeConfig, EdgeGateway
from repro.sim import Simulator
from repro.transport import TcpTransport
from repro.transport.base import ChannelClosed, TransportError
from repro.transport.http import HttpClient


class Payload:
    def __init__(self, gen_id, seq, created):
        self._record = MessageRecord(gen_id, seq, created)


class FakeReceiver:
    """A middleware receiver as the gateway uses one."""

    def __init__(self, topic, name, on_delivery):
        self.topic = topic
        self.name = name
        self.on_delivery = on_delivery
        self.stopped = False
        self.connections = 1

    def start(self):
        yield from ()

    def stop(self):
        self.stopped = True

    def push(self, payload):
        self.on_delivery(payload, 0.0)


class FakeUpstream:
    """The gateway's ``subscribe`` seam: one fake receiver per call."""

    def __init__(self):
        self.receivers = []

    def __call__(self, node_name, topic, name, on_delivery):
        receiver = FakeReceiver(topic, name, on_delivery)
        self.receivers.append(receiver)
        return receiver


def build(config=None, seed=11):
    sim = Simulator(seed=seed)
    cluster = HydraCluster(sim)
    tcp = TcpTransport(sim, cluster.lan)
    upstream = FakeUpstream()
    gateway = EdgeGateway(
        sim,
        cluster.node("hydra2"),
        "gw0",
        upstream,
        ("gridmon",),
        config=config or EdgeConfig(long_poll_timeout=5.0),
        transport=tcp,
    )
    gateway.start()
    sim.run(until=sim.now + 0.1)
    client = HttpClient(sim, tcp, cluster.node("hydra1"), "hydra2", 7070)
    return sim, gateway, upstream.receivers[-1], client, upstream


def poll(client, topic="gridmon", cursor=None, weight=1.0, catch_up_from=None):
    body = {"topic": topic, "weight": weight}
    if cursor is not None:
        body["cursor"] = cursor
    if catch_up_from is not None:
        body["catch_up_from"] = catch_up_from
    return client.request("/edge/poll", body, 96.0)


def test_parked_poll_wakes_on_upstream_event():
    sim, gateway, receiver, client, _ = build()
    sim.call_at(sim.now + 1.0, lambda: receiver.push(Payload(1, 0, sim.now)))

    def run():
        t0 = sim.now
        resp = yield from poll(client)
        return resp, sim.now - t0

    resp, waited = sim.run_process(run())
    assert resp.status == 200
    assert len(resp.body["events"]) == 1
    assert resp.body["cursor"][0] == "gw0#0"
    assert waited >= 1.0  # parked until the event, not answered immediately
    assert gateway.stats.long_polls_parked == 1
    assert gateway.stats.events_out == 1


def test_unknown_topic_is_refused():
    sim, gateway, receiver, client, _ = build()

    def run():
        return (yield from poll(client, topic="nope"))

    assert sim.run_process(run()).status == 404
    assert gateway.stats.polls_refused == 1


def test_timeout_returns_204_then_cursor_resumes():
    sim, gateway, receiver, client, _ = build(EdgeConfig(long_poll_timeout=2.0))

    def first():
        t0 = sim.now
        resp = yield from poll(client)
        return resp, sim.now - t0

    resp, waited = sim.run_process(first())
    assert resp.status == 204
    assert waited >= 2.0
    assert gateway.stats.polls_timed_out == 1
    cursor = tuple(resp.body["cursor"])

    # An event lands while the client is between polls; the cursor read
    # picks it up with no parking.
    receiver.push(Payload(1, 7, sim.now))

    def second():
        return (yield from poll(client, cursor=cursor))

    resp2 = sim.run_process(second())
    assert resp2.status == 200
    assert [p._record.seq for p in resp2.body["events"]] == [7]


def test_catch_up_from_replays_created_window():
    sim, gateway, receiver, client, _ = build()
    created0 = sim.now
    receiver.push(Payload(1, 0, created0))
    receiver.push(Payload(1, 1, created0 + 10.0))

    def run():
        # A failed-over client knows only the created-time of its last
        # delivered event; margin overlap is deduplicated client-side.
        return (yield from poll(client, catch_up_from=created0 + 10.0))

    resp = sim.run_process(run())
    assert resp.status == 200
    seqs = [p._record.seq for p in resp.body["events"]]
    assert 1 in seqs
    assert gateway.stats.catch_up_polls == 1


def test_shed_responds_503_with_jittered_retry_after():
    config = EdgeConfig(
        long_poll_timeout=5.0,
        heap_bytes=1024 * 1024,
        parked_heap_bytes=9216.0,
        shed_heap_fraction=0.5,
    )
    sim, gateway, receiver, client, _ = build(config)

    def run():
        # weight ~ a cohort of 100 clients: 921 KB > the 512 KB watermark.
        return (yield from poll(client, weight=100.0))

    resp = sim.run_process(run())
    assert resp.status == 503
    assert gateway.stats.polls_shed == 1
    retry_after = resp.body["retry_after"]
    assert config.retry_after <= retry_after
    assert retry_after <= config.retry_after + config.retry_after_jitter


def test_connection_heap_allocated_once_not_per_poll():
    config = EdgeConfig(long_poll_timeout=5.0)
    sim, gateway, receiver, client, _ = build(config)

    def cycle(i):
        sim.call_at(
            sim.now + 0.5, lambda: receiver.push(Payload(1, i, sim.now))
        )
        resp = yield from poll(client)
        return resp

    first = sim.run_process(cycle(0))
    assert first.status == 200
    heap_after_first = gateway.jvm.heap_used
    assert heap_after_first >= config.parked_heap_bytes
    for i in range(1, 4):
        assert sim.run_process(cycle(i)).status == 200
    # Re-parks on the same keep-alive socket cost no allocation churn.
    assert gateway.jvm.heap_used == heap_after_first
    assert len(gateway._conn_heap) == 1


def test_crash_severs_parked_polls_and_frees_heap():
    sim, gateway, receiver, client, _ = build()
    sim.call_at(sim.now + 1.0, gateway.crash)

    def run():
        yield from poll(client)

    with pytest.raises((ChannelClosed, TransportError)):
        sim.run_process(run())
    assert not gateway.alive
    assert gateway.jvm.heap_used == 0
    assert gateway._conn_heap == {}
    assert gateway.parked_weight == 0.0


def test_restart_is_a_fresh_incarnation():
    sim, gateway, receiver, client, upstream = build()
    gateway.crash()
    gateway.restart()
    sim.run(until=sim.now + 0.1)
    assert gateway.alive
    assert gateway.incarnation == 1
    fresh = upstream.receivers[-1]
    assert fresh is not receiver and not fresh.stopped
    assert receiver.stopped  # old incarnation's upstream was torn down
    sim.call_at(sim.now + 0.5, lambda: fresh.push(Payload(2, 0, sim.now)))

    def run():
        client2 = HttpClient(
            sim, client.transport, client.node, "hydra2", 7070
        )
        return (yield from poll(client2))

    resp = sim.run_process(run())
    assert resp.status == 200
    assert resp.body["cursor"][0] == "gw0#1"  # new ring epoch


def test_parked_gauges_track_weight():
    sim, gateway, receiver, client, _ = build(EdgeConfig(long_poll_timeout=2.0))

    def run():
        return (yield from poll(client, weight=250.0))

    def probe():
        yield sim.timeout(1.0)
        return (
            gateway.parked_weight,
            gateway._parked_polls,
            gateway.upstream_connections,
        )

    sim.process(run(), name="poller")
    parked_weight, parked_polls, upstream_conns = sim.run_process(probe())
    assert parked_weight == 250.0
    assert parked_polls == 1
    assert upstream_conns == 1
