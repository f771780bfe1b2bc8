"""The shared first-delivery stamp, driven through all five receiving paths.

Every recording receiver counts and stamps through one ``Recorder``, which
stamps through ``MessageRecord.deliver``: the first copy of a message sets
``t_arrived``/``t_received`` and stamps one ``delivered`` mark on the
record (one ``span.delivered`` in its book's tally); a later copy changes
neither and is counted as one duplicate.
"""

from types import SimpleNamespace

import pytest

from repro.core.dedup import DedupIndex
from repro.core.records import RecordBook, Recorder
from repro.edge.client import EdgeClient
from repro.federation.deployment import FederationSubscriber
from repro.powergrid import NaradaReceiver, PlogReceiver, RgmaReceiver
from repro.powergrid.workload import MONITORING_TOPIC
from repro.sim import Simulator

NODE = SimpleNamespace(name="hydra8")
CLUSTER = SimpleNamespace(node=lambda name: NODE)


def _narada(sim):
    receiver = NaradaReceiver(
        sim, CLUSTER, None, ("hydra1", 5045), "hydra8", MONITORING_TOPIC
    )

    def deliver(record, t_arrived):
        receiver._on_message(
            SimpleNamespace(_record=record, _t_arrived_client=t_arrived)
        )

    return deliver, lambda: receiver.recorder.duplicates


def _plog(sim):
    deployment = SimpleNamespace(
        consumer=lambda node, name, group, on_record: SimpleNamespace(
            name=name, on_record=on_record
        )
    )
    receiver = PlogReceiver(sim, CLUSTER, deployment, "hydra8")

    def deliver(record, t_arrived):
        receiver.consumer.on_record(SimpleNamespace(_record=record), t_arrived)

    return deliver, lambda: receiver.recorder.duplicates


def _rgma(sim):
    deployment = SimpleNamespace(consumer_client=lambda node, index: None)
    receiver = RgmaReceiver(sim, CLUSTER, deployment, "hydra8")

    def deliver(record, t_arrived):
        receiver._on_tuple(
            SimpleNamespace(meta={"record": record, "t_poll_start": t_arrived})
        )

    return deliver, lambda: receiver.recorder.duplicates


def _federation(sim):
    deployment = SimpleNamespace(
        middleware="federation", broker=lambda name: SimpleNamespace(node=NODE)
    )
    subscriber = FederationSubscriber(sim, deployment, "site0", "cr", ("t",))

    def deliver(record, t_arrived):
        subscriber._delivered(SimpleNamespace(_record=record), t_arrived)

    return deliver, lambda: subscriber.recorder.duplicates


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

    return deliver, lambda: sum(c.recorder.duplicates for c in clients)


@pytest.mark.parametrize(
    "path", [_narada, _plog, _rgma, _federation, _edge],
    ids=["narada", "plog", "rgma", "federation", "edge"],
)
def test_second_delivery_keeps_the_first_stamp(path):
    sim = Simulator(seed=1)
    deliver, duplicates = path(sim)
    book = RecordBook()
    record = book.new_record(gen_id=3, seq=7, t_before_send=0.0)
    sim.run(until=1.0)
    deliver(record, 0.5)
    first = (record.t_arrived, record.t_received)
    sim.run(until=2.0)
    deliver(record, 1.5)
    assert first[1] == 1.0
    assert (record.t_arrived, record.t_received) == first
    assert [(p, t) for p, (t, _) in record.marks.items()] == [("delivered", 1.0)]
    assert record.hops == 1
    delivered = [n for (_, _, phase), n in book.tally.items() if phase == "delivered"]
    assert delivered == [1]
    assert duplicates() == 1


def test_recorder_counts_redeliveries_and_duplicates():
    sim = Simulator(seed=1)
    book = RecordBook()
    record = book.new_record(gen_id=3, seq=7, t_before_send=0.0)
    payload = SimpleNamespace(_record=record)
    deduplicating = Recorder(sim, "plog", "a", dedup=DedupIndex())
    other_path = Recorder(sim, "plog", "b")
    assert deduplicating(payload, 0.5)
    # The same (gen_id, seq) again at this recorder: a redelivery, not counted.
    assert not deduplicating(payload, 0.6)
    # A copy by another path: received there, but the stamp is already set.
    assert other_path(payload, 0.7)
    assert (deduplicating.received, deduplicating.redeliveries) == (1, 1)
    assert deduplicating.duplicates == 0
    assert (other_path.received, other_path.duplicates) == (1, 1)
    assert other_path.redeliveries == 0
    assert record.t_arrived == 0.5
