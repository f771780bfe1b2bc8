"""The shared first-delivery stamp, driven through all five receiving paths.

Every recording receiver stamps through ``MessageRecord.deliver``: the first
copy of a message sets ``t_arrived``/``t_received`` and emits one telemetry
``delivered`` mark; a later copy changes neither and, on the paths that keep
the count, is counted as one duplicate.
"""

from types import SimpleNamespace

import pytest

from repro.core.records import MessageRecord
from repro.edge.client import EdgeClient
from repro.federation.deployment import FederationSubscriber
from repro.powergrid import NaradaReceiver, PlogReceiver, RgmaReceiver
from repro.powergrid.workload import MONITORING_TOPIC
from repro.sim import Simulator
from repro.telemetry.context import session

NODE = SimpleNamespace(name="hydra8")
CLUSTER = SimpleNamespace(node=lambda name: NODE)


class _Marks:
    """A telemetry stand-in that keeps every mark."""

    def __init__(self):
        self.marks = []

    def mark(self, record, phase, t, middleware, component):
        self.marks.append((phase, t, middleware, component))


def _narada(sim):
    receiver = NaradaReceiver(
        sim, CLUSTER, None, ("hydra1", 5045), "hydra8", MONITORING_TOPIC
    )

    def deliver(record, t_arrived):
        receiver._on_message(
            SimpleNamespace(_record=record, _t_arrived_client=t_arrived)
        )

    return deliver, lambda: receiver.duplicates


def _plog(sim):
    deployment = SimpleNamespace(
        consumer=lambda node, name, group, on_record: SimpleNamespace(name=name)
    )
    receiver = PlogReceiver(sim, CLUSTER, deployment, "hydra8")

    def deliver(record, t_arrived):
        receiver._on_record(SimpleNamespace(_record=record), t_arrived)

    return deliver, lambda: receiver.duplicates


def _rgma(sim):
    deployment = SimpleNamespace(consumer_client=lambda node, index: None)
    receiver = RgmaReceiver(sim, CLUSTER, deployment, "hydra8")

    def deliver(record, t_arrived):
        receiver._on_tuple(
            SimpleNamespace(meta={"record": record, "t_poll_start": t_arrived})
        )

    return deliver, lambda: receiver.duplicates


def _federation(sim):
    deployment = SimpleNamespace(middleware="federation")
    subscriber = FederationSubscriber(sim, deployment, "site0", "cr", ("t",))
    subscriber.channel = SimpleNamespace(node=NODE)

    def deliver(record, t_arrived):
        subscriber._delivered(SimpleNamespace(_record=record), t_arrived)

    return deliver, None  # the control room keeps no duplicate count


def _edge(sim):
    # Each copy reaches a different stamping client: one client's own
    # (gen_id, seq) index would suppress its second copy as a redelivery.
    clients = [
        EdgeClient(sim, None, NODE, [("gw", 80)], "t", stamping=True)
        for _ in range(2)
    ]
    copies = iter(clients)

    def deliver(record, t_arrived):
        next(copies)._on_event(SimpleNamespace(_record=record))

    return deliver, lambda: sum(c.stats.duplicates for c in clients)


@pytest.mark.parametrize(
    "path", [_narada, _plog, _rgma, _federation, _edge],
    ids=["narada", "plog", "rgma", "federation", "edge"],
)
def test_second_delivery_keeps_the_first_stamp(path):
    sim = Simulator(seed=1)
    deliver, duplicates = path(sim)
    record = MessageRecord(gen_id=3, seq=7, t_before_send=0.0)
    marks = _Marks()
    with session(marks):
        sim.run(until=1.0)
        deliver(record, 0.5)
        first = (record.t_arrived, record.t_received)
        sim.run(until=2.0)
        deliver(record, 1.5)
    assert first[1] == 1.0
    assert (record.t_arrived, record.t_received) == first
    assert [m[:2] for m in marks.marks] == [("delivered", 1.0)]
    if duplicates is not None:
        assert duplicates() == 1
