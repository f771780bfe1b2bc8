"""``TcpChannel``'s send path against a reference copy of the generator it
replaced.

The reference below is the earlier transfer path kept verbatim: the base
``Channel.send`` runs a ``_transfer`` generator that takes ``Lan.transmit``'s
wire event, attaches an ``on_wire`` closure and settles a second event
through ``_flush_in_order``.  The channel in ``repro.transport.tcp`` does
the same hop in plain calls.  Both must deliver the same payloads in the
same order at the same instants, settle the same receipts, and schedule the
same number of kernel events — including when LAN jitter lands segments
out of order and the stream has to hold them back.
"""

from typing import Any, Generator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Node
from repro.cluster.network import FRAME_OVERHEAD_TCP, Lan
from repro.sim import Simulator
from repro.sim.events import Event
from repro.transport.base import Channel
from repro.transport.tcp import TcpChannel, TcpTransport


class _ReferenceTcpChannel(TcpChannel):
    send = Channel.send

    def _transfer(self, payload: Any, nbytes: float) -> Generator[Any, Any, Event]:
        sent_at = self.sim.now
        seq = self._send_seq
        self._send_seq += 1
        wire_ev = self.lan.transmit(
            self.host, self.peer_host, nbytes, overhead=FRAME_OVERHEAD_TCP
        )
        assert wire_ev is not None  # stream traffic is never dropped
        done = self.sim.event()

        def on_wire(_ev: Event) -> None:
            self._arrived[seq] = (payload, nbytes, sent_at, done)
            self._flush_in_order()

        wire_ev.add_callback(on_wire)
        if False:  # pragma: no cover - keeps this a generator function
            yield
        return done

    def _flush_in_order(self) -> None:
        peer = self.peer
        assert peer is not None
        while self._deliver_seq in self._arrived:
            payload, nbytes, sent_at, done = self._arrived.pop(self._deliver_seq)
            self._deliver_seq += 1
            peer._deliver(payload, nbytes, sent_at)
            done.settle(self.sim.now - sent_at)


class _ReferenceTcpTransport(TcpTransport):
    channel_class = _ReferenceTcpChannel


_sends = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1e-6, 2e-5, 1e-4, 3e-4, 2e-3]),  # gap before send
        st.integers(min_value=0, max_value=4_000),  # payload bytes
        st.booleans(),  # the sender waits for the receipt
    ),
    min_size=1,
    max_size=40,
)


def _run(transport_class, seed, jitter_mean, sends, senders, push):
    sim = Simulator(seed=seed)
    lan = Lan(sim, jitter_mean=jitter_mean)
    nodes = {}
    for host in ("a", "b"):
        lan.attach(host)
        nodes[host] = Node(sim, host)
    transport = transport_class(sim, lan)
    delivered, receipts = [], []
    ends = {}

    def record(d):
        delivered.append((d.payload, d.nbytes, d.sent_at, d.delivered_at))

    def accept(server_end):
        ends["server"] = server_end
        if push:
            server_end.on_deliver = record
        else:
            sim.process(reader(server_end))

    def reader(channel):
        while True:
            record((yield channel.receive()))

    def sender(channel, mine):
        for index, (gap, nbytes, wait) in mine:
            yield sim.timeout(gap)
            receipt = yield from channel.send(index, nbytes)
            receipts.append((index, receipt))
            if wait:
                yield receipt

    def client():
        channel = yield from transport.connect(nodes["a"], "b", 80)
        indexed = list(enumerate(sends))
        for k in range(senders):
            sim.process(sender(channel, indexed[k::senders]))

    transport.listen(nodes["b"], 80, accept)
    sim.process(client())
    sim.run()
    settled = [(index, r.processed, r.value) for index, r in receipts]
    return delivered, settled, sim.events_scheduled


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    jitter_mean=st.sampled_from([0.0, 80e-6, 5e-4, 3e-3]),
    sends=_sends,
    senders=st.integers(min_value=1, max_value=3),
    push=st.booleans(),
)
def test_tcp_hop_matches_reference(seed, jitter_mean, sends, senders, push):
    args = (seed, jitter_mean, sends, senders, push)
    new = _run(TcpTransport, *args)
    reference = _run(_ReferenceTcpTransport, *args)
    assert new == reference
    delivered, settled, _ = new
    # Complete, in the order the sends were made (a receipt is recorded in
    # the step that sent it), and every receipt settled.
    assert [d[0] for d in delivered] == [index for index, _, _ in settled]
    assert len(delivered) == len(sends)
    assert all(processed for _, processed, _ in settled)


class _CountingTcpChannel(TcpChannel):
    most_held_back = 0

    def _arrive(self, wire):
        super()._arrive(wire)
        held = len(self._arrived)
        if held > _CountingTcpChannel.most_held_back:
            _CountingTcpChannel.most_held_back = held


class _CountingTcpTransport(TcpTransport):
    channel_class = _CountingTcpChannel


def test_jitter_makes_the_stream_hold_segments_back():
    """The property above reaches the held-back path: with jitter far above
    the send gap, a later segment leaves the wire before an earlier one and
    waits for it."""
    args = (3, 3e-3, [(1e-4, 100, False)] * 20, 1, False)
    _CountingTcpChannel.most_held_back = 0
    new = _run(_CountingTcpTransport, *args)
    assert _CountingTcpChannel.most_held_back > 0
    assert new == _run(_ReferenceTcpTransport, *args)
