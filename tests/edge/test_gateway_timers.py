"""Answered long-polls leave no timers behind in the event heap."""

from repro.edge import EdgeConfig
from repro.sim import Cancelled
from repro.transport.http import HttpClient
from tests.edge.test_gateway import Payload, build

GRACE = 5.0


def poll(client, config, cursor=None):
    """A poll the way ``EdgeClient`` sends it: with an HTTP deadline."""
    body = {"topic": "gridmon", "weight": 1.0}
    if cursor is not None:
        body["cursor"] = cursor
    return client.request(
        "/edge/poll", body, 96.0, timeout=config.long_poll_timeout + GRACE
    )


def test_answered_polls_leave_pending_events_bounded():
    config = EdgeConfig()  # 60 s park: every timer would outlive the test
    sim, gateway, receiver, client, _ = build(config)
    pending = []

    def cycles(n):
        cursor = None
        for i in range(n):
            sim.call_at(
                sim.now + 0.25,
                lambda i=i: receiver.push(Payload(1, i, sim.now)),
            )
            resp = yield from poll(client, config, cursor)
            assert resp.status == 200
            cursor = tuple(resp.body["cursor"])
            pending.append(sim.pending_events)

    sim.run_process(cycles(40))
    assert gateway.stats.long_polls_parked == 40
    # Each cycle used to strand two timers (gateway expiry + HTTP deadline).
    assert max(pending) - min(pending) <= 2, pending
    assert len(sim._queue) <= 2 * max(pending) + 101


def test_unanswered_poll_still_returns_204_after_the_park_timeout():
    config = EdgeConfig(long_poll_timeout=2.0)
    sim, gateway, receiver, client, _ = build(config)

    def run():
        t0 = sim.now
        resp = yield from poll(client, config)
        return resp, sim.now - t0

    resp, waited = sim.run_process(run())
    assert resp.status == 204
    assert 2.0 <= waited < 2.0 + GRACE
    assert gateway.stats.polls_timed_out == 1
    assert gateway.parked_weight == 0.0


def test_crash_leaves_no_live_expiry_timers():
    config = EdgeConfig()
    sim, gateway, receiver, client, _ = build(config)
    clients = [client] + [
        HttpClient(sim, client.transport, client.node, "hydra2", 7070)
        for _ in range(3)
    ]

    def one(c):
        try:
            yield from poll(c, config)
        except Exception:
            pass  # the crash severs the connection

    for c in clients:
        sim.process(one(c))
    sim.run(until=sim.now + 1.0)
    waiters = [w for ws in gateway._waiters.values() for w in ws]
    assert len(waiters) == len(clients)
    gateway.crash()
    for waiter in waiters:
        assert waiter.expiry.processed
        assert isinstance(waiter.expiry.value, Cancelled)
    sim.run(until=sim.now + 1.0)
    # At most the stopped reaper's last tick is left: no 60 s timers.
    live = [t for t, _, event in sim._queue if not event.processed]
    assert all(t <= sim.now + 1.0 for t in live), live
