"""R-GMA's parked stream loop against the always-ticking loop it replaced.

The reference below is the loop as it was: sleep ``stream_period``, purge,
stream whatever is fresh, forever.  A tick that finds nothing fresh only
purges, so the parked loop skips those ticks and sleeps until an insert, a
Secondary Producer republish or an attach wakes it.  Both must stream the
same tuples at the same float instants, leave the store reading the same,
and the parked loop may only run at instants the reference also ticked at.

Every action is scheduled before either producer exists, so at an instant
shared with a tick the action comes first in both loops (the parked loop's
rule: a poke at a tick's own instant is served by that tick).  Each producer
has its own node and consumers, so one producer's tick never waits on the
other's CPU work at a shared instant.
"""

import dataclasses
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Node
from repro.rgma import RGMAConfig
from repro.rgma.consumer import ConsumerResource
from repro.rgma.producer import PrimaryProducerResource, SecondaryProducerResource
from repro.rgma.schema import Schema, grid_monitoring_table
from repro.rgma.servlet import ServletContainer
from repro.rgma.sql import RowView, parse_sql
from repro.rgma.storage import Tuple
from repro.sim import Simulator

GENIDS = 4  # few keys, so purged keys come back


def recording(base):
    """``base`` with its parked loop's tick instants recorded."""

    class Parked(base):
        def _stream_tick(self):
            self.ticks.append(self.sim.now)
            yield from super()._stream_tick()

    return Parked


def ticking(base):
    """``base`` with the always-ticking stream loop, ticks recorded."""

    class Ticking(base):
        def _stream_loop(self):
            cfg = self.config
            while not self.closed:
                yield self.sim.timeout(cfg.stream_period)
                self.ticks.append(self.sim.now)
                self.store.purge()
                for attachment in list(self._attachments.values()):
                    fresh = self.store.since_seq(attachment.cursor_seq)
                    if not fresh:
                        continue
                    attachment.cursor_seq = fresh[-1].seq
                    predicate = attachment.consumer.predicate
                    batch = []
                    for t in fresh:
                        if predicate is not None and not predicate.matches(
                            RowView(t.row)
                        ):
                            continue
                        copy = dataclasses.replace(t, meta=dict(t.meta))
                        copy.meta["t_streamed"] = self.sim.now
                        batch.append(copy)
                    if not batch:
                        continue
                    attachment.tuples_streamed += len(batch)
                    yield from self.container.node.execute(
                        cfg.stream_tuple_cpu * len(batch)
                    )
                    yield from self._send_batch(attachment.consumer, batch)

    return Ticking


def row(genid, value):
    return {
        "genid": genid,
        "ival1": 1, "ival2": 2, "ival3": 3,
        "dval1": value, "dval2": 2.0, "dval3": 3.0, "dval4": 4.0,
        "dval5": 5.0, "dval6": 6.0, "dval7": 7.0, "dval8": 8.0,
        "sval1": "a", "sval2": "b", "sval3": "c", "sval4": "d",
    }


def run(actions, period, where, wrap):
    """Play ``actions``; returns what each consumer got, reads and ticks."""
    sim = Simulator(seed=1)
    config = RGMAConfig(
        stream_period=period,
        latest_retention=3.0,
        history_retention=6.0,
        secondary_producer_delay=2.5,
    )
    schema = Schema()
    schema.create_table(grid_monitoring_table())
    registry = SimpleNamespace(schema=schema)
    producers, consumers = {}, {}
    delivered = {name: [] for name in ("pp0", "pp1", "sp0", "sp1")}
    reads = []

    def act(index, when, kind, arg):
        yield sim.timeout(when)
        pp, sp = producers["pp"], producers["sp"]
        if kind == "insert":
            pp.insert_row(row(arg, float(index)), {"action": index})
        elif kind == "ingest":
            t = Tuple("gridmon", row(arg, float(index)), sim.now, {"action": index})
            sp.ingest(t)
        elif kind == "attach":
            producer = pp if arg.startswith("pp") else sp
            producer.attach_consumer(consumers[arg])
        elif kind == "detach":
            producer = pp if arg.startswith("pp") else sp
            producer.detach_consumer(consumers[arg])
        else:
            reads.append((
                sim.now,
                [(t.row["genid"], t.insert_time) for t in pp.store.latest()],
                [(t.row["genid"], t.insert_time) for t in sp.store.latest()],
                [t.insert_time for t in pp.store.history()],
            ))

    # Before the producers: every action's timer predates every tick's.
    for index, (when, kind, arg) in enumerate(actions):
        sim.process(act(index, when, kind, arg))
    for name in ("pp", "sp"):
        container = ServletContainer(sim, Node(sim, f"{name}-node"), name, config)
        cls = PrimaryProducerResource if name == "pp" else SecondaryProducerResource
        producer = wrap(cls)(container, registry, "gridmon", f"{name}.r")
        producer.ticks = []
        producers[name] = producer
        for suffix, sql in (("0", "SELECT * FROM gridmon"), ("1", where)):
            tag = name + suffix

            def on_tuple(t, tag=tag):
                delivered[tag].append((
                    sim.now, t.row["genid"], t.meta["action"],
                    t.meta["t_streamed"], t.meta.get("t_sp_republished"),
                ))

            consumers[tag] = ConsumerResource(
                container, registry, parse_sql(sql), f"{tag}.c", on_tuple
            )
    sim.run(until=60.0)
    return delivered, reads, producers


# Quarter seconds put actions on the ticks of the period-1.0 chains.
_when = st.one_of(
    st.floats(min_value=0.0, max_value=40.0),
    st.integers(0, 160).map(lambda k: k / 4),
)
_actions = st.lists(
    st.one_of(
        st.tuples(_when, st.sampled_from(["insert", "ingest"]),
                  st.integers(0, GENIDS - 1)),
        st.tuples(_when, st.sampled_from(["attach", "detach"]),
                  st.sampled_from(["pp0", "pp1", "sp0", "sp1"])),
        st.tuples(_when, st.just("read"), st.none()),
    ),
    max_size=30,
)


@settings(deadline=None, max_examples=150)
# ``now + (0.3 - now)`` is an ulp off 0.3 here: the wake needs an exact time.
@example(actions=[(0.007591431900273032, "insert", 0)], period=0.3, bound=0)
# Key 0 is purged by a skipped tick (4.0) before it comes back: it must move
# behind key 1 in ``latest()``.
@example(
    actions=[(0.5, "insert", 0), (2.2, "insert", 1), (4.5, "insert", 0),
             (4.7, "read", None)],
    period=1.0, bound=0,
)
# Attached while the loop is parked, with a tuple inside the history overlap.
@example(
    actions=[(0.2, "attach", "pp0"), (3.1, "insert", 0),
             (4.5, "attach", "pp1")],
    period=1.0, bound=0,
)
@given(
    actions=_actions,
    period=st.sampled_from([0.3, 0.7, 1.0]),
    bound=st.integers(0, GENIDS),
)
def test_parked_loop_streams_what_the_ticking_loop_streams(actions, period, bound):
    where = f"SELECT * FROM gridmon WHERE genid >= {bound}"
    got, got_reads, parked = run(actions, period, where, recording)
    want, want_reads, ticked = run(actions, period, where, ticking)

    assert got == want
    assert got_reads == want_reads
    for name, kinds in (("pp", {"insert", "attach"}), ("sp", {"ingest", "attach"})):
        ticks, chain = parked[name].ticks, set(ticked[name].ticks)
        assert all(tick in chain for tick in ticks)  # the same floats
        pokes = sum(
            kind in kinds and (kind != "attach" or arg.startswith(name))
            for _, kind, arg in actions
        )
        assert len(ticks) <= pokes + 1
