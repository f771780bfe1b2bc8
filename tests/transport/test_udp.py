"""Tests for UDP: raw loss, acked mode, retransmission, dedupe."""

import pytest

from repro.cluster import HydraCluster
from repro.sim import Simulator
from repro.transport import MessageLost, UdpTransport


def setup(**kw):
    sim = Simulator(seed=2)
    cluster = HydraCluster(sim)
    udp = UdpTransport(sim, cluster.lan, **kw)
    return sim, cluster, udp


def connect(sim, cluster, udp, server_chans):
    udp.listen(cluster.node("hydra2"), 9100, server_chans.append)

    def client():
        ch = yield from udp.connect(cluster.node("hydra1"), "hydra2", 9100)
        return ch

    return sim.run_process(client())


def test_connect_without_listener_raises():
    from repro.transport import TransportError

    sim, cluster, udp = setup()

    def client():
        yield from udp.connect(cluster.node("hydra1"), "hydra2", 9100)

    with pytest.raises(TransportError):
        sim.run_process(client())


def test_lossless_unacked_delivery():
    sim, cluster, udp = setup(loss_probability=0.0, acked=False)
    server_chans = []
    ch = connect(sim, cluster, udp, server_chans)

    def client():
        ev = yield from ch.send("hello", 200)
        yield ev
        return ev.value

    latency = sim.run_process(client())
    assert latency > 0
    assert len(server_chans[0].inbox) == 1


def test_unacked_loss_raises_message_lost():
    sim, cluster, udp = setup(loss_probability=0.5, acked=False)
    server_chans = []
    ch = connect(sim, cluster, udp, server_chans)
    lost = delivered = 0

    def client():
        nonlocal lost, delivered
        for _ in range(100):
            try:
                yield from ch.send("m", 200)
                delivered += 1
            except MessageLost:
                lost += 1

    sim.run_process(client())
    assert lost > 20
    assert delivered > 20
    assert ch.datagrams_lost == lost


def test_acked_mode_recovers_from_loss():
    """With retransmission, high raw loss still yields ~full delivery."""
    sim, cluster, udp = setup(loss_probability=0.15, acked=True, max_retries=5)
    server_chans = []
    ch = connect(sim, cluster, udp, server_chans)
    ok = 0

    def client():
        nonlocal ok
        for _ in range(100):
            try:
                yield from ch.send("m", 200)
                ok += 1
            except MessageLost:
                pass

    sim.run_process(client())
    assert ok >= 98
    assert len(server_chans[0].inbox) == ok  # dedupe: no duplicates
    assert ch.retransmissions > 0


def test_acked_send_blocks_for_ack_round_trip():
    sim, cluster, udp = setup(loss_probability=0.0, acked=True)
    server_chans = []
    ch = connect(sim, cluster, udp, server_chans)

    def client():
        t0 = sim.now
        ev = yield from ch.send("m", 200)
        assert ev.processed  # delivery already happened when send returns
        return sim.now - t0

    elapsed = sim.run_process(client())
    # Must include at least two one-way trips (data + ack).
    sim2, cluster2, udp2 = setup(loss_probability=0.0, acked=False)
    chans2 = []
    ch2 = connect(sim2, cluster2, udp2, chans2)

    def one_way():
        ev = yield from ch2.send("m", 200)
        yield ev
        return ev.value

    ow = sim2.run_process(one_way())
    assert elapsed > 1.5 * ow


def test_acked_gives_up_after_max_retries():
    sim, cluster, udp = setup(loss_probability=1.0, acked=True, max_retries=2, rto=0.05)
    server_chans = []
    ch = connect(sim, cluster, udp, server_chans)

    def client():
        t0 = sim.now
        with pytest.raises(MessageLost):
            yield from ch.send("m", 200)
        return sim.now - t0

    elapsed = sim.run_process(client())
    # 3 attempts x 0.05 s RTO.
    assert elapsed == pytest.approx(0.15, rel=0.2)
    assert ch.datagrams_lost == 1


def test_retransmission_adds_latency_tail():
    """Messages that needed a retransmit arrive >= RTO later: the mechanism
    behind UDP's fat percentile tail in paper Fig 4."""
    sim, cluster, udp = setup(loss_probability=0.3, acked=True, rto=0.1, max_retries=8)
    server_chans = []
    ch = connect(sim, cluster, udp, server_chans)
    times = []

    def client():
        for _ in range(60):
            t0 = sim.now
            try:
                yield from ch.send("m", 200)
                times.append(sim.now - t0)
            except MessageLost:
                pass

    sim.run_process(client())
    fast = min(times)
    slow = max(times)
    assert slow >= fast + 0.1  # at least one RTO in the tail


def test_retry_exhaustion_is_counted_as_loss_in_rtt_stats():
    """An acked send that exhausts its retries must surface twice: as
    MessageLost at the call site AND as loss in the record book's
    ``RttStats.loss_rate`` — the number every loss table in the paper
    reproduction reads."""
    from repro.core import RecordBook
    from repro.core.metrics import rtt_stats

    sim, cluster, udp = setup(loss_probability=0.6, acked=True, max_retries=1, rto=0.05)
    server_chans = []
    ch = connect(sim, cluster, udp, server_chans)
    book = RecordBook()
    n, exhausted = 40, 0

    def client():
        nonlocal exhausted
        for seq in range(n):
            record = book.new_record(0, seq, sim.now)
            try:
                yield from ch.send(("m", record), 200)
            except MessageLost:
                exhausted += 1
                continue
            # The receiver stamps arrival; here the ack doubles as receipt.
            record.t_arrived = record.t_received = sim.now

    sim.run_process(client())
    assert exhausted > 0  # p=0.6 with one retry must exhaust sometimes
    assert ch.datagrams_lost == exhausted

    stats = rtt_stats(book)
    assert stats.sent == n
    assert stats.count == n - exhausted
    assert stats.loss_rate == pytest.approx(exhausted / n)
    assert 0.0 < stats.loss_rate < 1.0


def test_unawaited_raw_datagram_receipt_schedules_no_event():
    """Process start + sender CPU timer + wire event; the receipt is free."""
    sim, cluster, udp = setup(loss_probability=0.0, acked=False)
    server_chans = []
    ch = connect(sim, cluster, udp, server_chans)

    def sender():
        return (yield from ch.send("hello", 200))

    before = sim.events_scheduled
    proc = sim.process(sender())
    sim.run()
    assert sim.events_scheduled - before == 3
    assert len(server_chans[0].inbox) == 1
    assert proc.value.processed and proc.value.value > 0
