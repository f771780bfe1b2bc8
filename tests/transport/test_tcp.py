"""Tests for the TCP transport: handshake, delivery, ordering, close."""

import pytest

from repro.cluster import HydraCluster
from repro.sim import Simulator
from repro.transport import ChannelClosed, TcpTransport, TransportError
from repro.transport.base import EOF


def setup():
    sim = Simulator(seed=1)
    cluster = HydraCluster(sim)
    tcp = TcpTransport(sim, cluster.lan)
    return sim, cluster, tcp


def test_connect_requires_listener():
    sim, cluster, tcp = setup()

    def client():
        yield from tcp.connect(cluster.node("hydra1"), "hydra2", 9000)

    with pytest.raises(TransportError, match="refused"):
        sim.run_process(client())


def test_connect_creates_channel_pair():
    sim, cluster, tcp = setup()
    accepted = []
    tcp.listen(cluster.node("hydra2"), 9000, accepted.append)

    def client():
        ch = yield from tcp.connect(cluster.node("hydra1"), "hydra2", 9000)
        return ch

    ch = sim.run_process(client())
    assert len(accepted) == 1
    assert ch.peer is accepted[0]
    assert accepted[0].peer is ch
    assert ch.host == "hydra1"
    assert ch.peer_host == "hydra2"
    assert sim.now > 0  # handshake took time


def test_send_delivers_payload_to_peer_inbox():
    sim, cluster, tcp = setup()
    server_channels = []
    tcp.listen(cluster.node("hydra2"), 9000, server_channels.append)

    def client():
        ch = yield from tcp.connect(cluster.node("hydra1"), "hydra2", 9000)
        ev = yield from ch.send({"k": "v"}, 512)
        yield ev  # wait for delivery
        return ev.value

    latency = sim.run_process(client())
    assert latency > 0
    server = server_channels[0]
    assert len(server.inbox) == 1
    d = server.inbox.get_nowait()
    assert d.payload == {"k": "v"}
    assert d.nbytes == 512
    assert d.delivered_at - d.sent_at == pytest.approx(latency)


def test_send_returns_before_delivery():
    """Blocking TCP send() returns once data is buffered, not delivered."""
    sim, cluster, tcp = setup()
    tcp.listen(cluster.node("hydra2"), 9000, lambda ch: None)

    def client():
        ch = yield from tcp.connect(cluster.node("hydra1"), "hydra2", 9000)
        t0 = sim.now
        ev = yield from ch.send("x", 100_000)
        returned_at = sim.now
        yield ev
        delivered_at = sim.now
        return returned_at - t0, delivered_at - t0

    send_time, delivery_time = sim.run_process(client())
    assert send_time < delivery_time


def test_in_order_delivery_many_messages():
    sim, cluster, tcp = setup()
    received = []
    server_ch = []

    def acceptor(ch):
        server_ch.append(ch)

        def reader():
            while True:
                d = yield ch.receive()
                if d.payload is EOF:
                    return
                received.append(d.payload)

        sim.process(reader())

    tcp.listen(cluster.node("hydra2"), 9000, acceptor)

    def client():
        ch = yield from tcp.connect(cluster.node("hydra1"), "hydra2", 9000)
        for i in range(50):
            yield from ch.send(i, 400)
        yield sim.timeout(1.0)
        ch.close()

    sim.process(client())
    sim.run()
    assert received == list(range(50))


def test_send_on_closed_channel_raises():
    sim, cluster, tcp = setup()
    tcp.listen(cluster.node("hydra2"), 9000, lambda ch: None)

    def client():
        ch = yield from tcp.connect(cluster.node("hydra1"), "hydra2", 9000)
        ch.close()
        yield from ch.send("x", 10)

    with pytest.raises(ChannelClosed):
        sim.run_process(client())


def test_close_delivers_eof_to_peer():
    sim, cluster, tcp = setup()
    chans = []
    tcp.listen(cluster.node("hydra2"), 9000, chans.append)

    def client():
        ch = yield from tcp.connect(cluster.node("hydra1"), "hydra2", 9000)
        ch.close()
        d = yield chans[0].receive()
        return d.payload is EOF

    assert sim.run_process(client()) is True


def test_duplicate_listen_rejected():
    sim, cluster, tcp = setup()
    tcp.listen(cluster.node("hydra2"), 9000, lambda ch: None)
    with pytest.raises(TransportError, match="already bound"):
        tcp.listen(cluster.node("hydra2"), 9000, lambda ch: None)


def test_unlisten_frees_port():
    sim, cluster, tcp = setup()
    tcp.listen(cluster.node("hydra2"), 9000, lambda ch: None)
    tcp.unlisten(cluster.node("hydra2"), 9000)
    tcp.listen(cluster.node("hydra2"), 9000, lambda ch: None)


def test_acceptor_exception_propagates_to_connector():
    sim, cluster, tcp = setup()

    def refuse(ch):
        raise TransportError("server full")

    tcp.listen(cluster.node("hydra2"), 9000, refuse)

    def client():
        yield from tcp.connect(cluster.node("hydra1"), "hydra2", 9000)

    with pytest.raises(TransportError, match="server full"):
        sim.run_process(client())


def test_bigger_payload_higher_latency():
    sim, cluster, tcp = setup()
    tcp.listen(cluster.node("hydra2"), 9000, lambda ch: None)

    def client():
        ch = yield from tcp.connect(cluster.node("hydra1"), "hydra2", 9000)
        ev_small = yield from ch.send("s", 100)
        yield ev_small
        small = ev_small.value
        yield sim.timeout(1.0)  # drain queues
        ev_big = yield from ch.send("b", 500_000)
        yield ev_big
        return small, ev_big.value

    small, big = sim.run_process(client())
    assert big > small * 5


# ------------------------------------------------------- delivery receipts
def connected(sim, cluster, tcp):
    server_channels = []
    tcp.listen(cluster.node("hydra2"), 9000, server_channels.append)

    def client():
        ch = yield from tcp.connect(cluster.node("hydra1"), "hydra2", 9000)
        return ch

    return sim.run_process(client()), server_channels[0]


def test_unawaited_receipt_schedules_no_event():
    """Process start + sender CPU timer + wire event: no receipt, no completion."""
    sim, cluster, tcp = setup()
    ch, server = connected(sim, cluster, tcp)

    def sender():
        return (yield from ch.send("x", 512))

    before = sim.events_scheduled
    proc = sim.process(sender())
    sim.run()
    assert sim.events_scheduled - before == 3
    assert len(server.inbox) == 1
    # The receipt still records the outcome for anyone who looks later.
    receipt, d = proc.value, server.inbox.get_nowait()
    assert receipt.processed
    assert receipt.value == pytest.approx(d.delivered_at - d.sent_at)


def test_receipt_awaited_before_delivery_fires_with_one_way_delay():
    sim, cluster, tcp = setup()
    ch, server = connected(sim, cluster, tcp)

    def sender():
        receipt = yield from ch.send("x", 100_000)
        assert not receipt.triggered  # still on the wire
        before = sim.events_scheduled
        latency = yield receipt
        return latency, sim.now, sim.events_scheduled - before

    latency, woke_at, events = sim.run_process(sender())
    d = server.inbox.get_nowait()
    assert events == 1  # someone is listening: the receipt takes its entry
    assert woke_at == d.delivered_at
    assert latency == d.delivered_at - d.sent_at > 0


def test_receipt_awaited_after_delivery_returns_immediately():
    sim, cluster, tcp = setup()
    ch, server = connected(sim, cluster, tcp)

    def sender():
        receipt = yield from ch.send("x", 512)
        yield sim.timeout(1.0)  # long after delivery
        t0, n0 = sim.now, sim.events_scheduled
        latency = yield receipt
        return latency, receipt.value, sim.now - t0, sim.events_scheduled - n0

    latency, value, waited, events = sim.run_process(sender())
    d = server.inbox.get_nowait()
    assert latency == value == d.delivered_at - d.sent_at
    assert waited == 0.0 and events == 0
