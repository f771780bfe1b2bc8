"""Primary and Secondary Producer resources, and the producer client API.

"The generator then used Primary Producer API to publish monitoring data
into a table at the interval of 10 seconds" (paper §III.F).  A producer
*resource* lives server-side in a servlet container and owns a
:class:`~repro.rgma.storage.TupleStore`; attached consumers receive new
tuples in periodic stream batches over a raw TCP channel, with the
consumer's WHERE predicate applied producer-side (content-based filtering).

The Secondary Producer re-publishes everything it consumes into its own
store **after a fixed 30-second delay** — "we contacted R-GMA developers and
found that there was now a deliberate delay of 30 seconds in the Secondary
Producer" (§III.F.3).
"""

from __future__ import annotations

import dataclasses
from itertools import count
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.rgma.errors import RGMAException
from repro.rgma.registry import Registry, RGMAConfig
from repro.rgma.sql import (
    Insert,
    RowView,
    insert_template,
    parse_sql,
    render_insert,
)
from repro.rgma.storage import Tuple, TupleStore
from repro.sim import Event
from repro.transport.base import ChannelClosed, MessageLost
from repro.transport.http import HttpClient

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.rgma.consumer import ConsumerResource
    from repro.rgma.schema import Schema
    from repro.rgma.servlet import ServletContainer
    from repro.sim.kernel import Simulator

_resource_seq = count(1)


@dataclasses.dataclass
class _Attachment:
    consumer: "ConsumerResource"
    attach_time: float
    cursor_seq: int
    tuples_streamed: int = 0


class ProducerResourceBase:
    """Shared machinery: tuple store + periodic streaming to consumers."""

    def __init__(
        self,
        container: "ServletContainer",
        registry: Registry,
        table_name: str,
        resource_id: str,
    ):
        self.container = container
        self.registry = registry
        self.sim = container.sim
        self.config = container.config
        self.table_name = table_name
        self.resource_id = resource_id
        schema_table = registry_schema(registry).table(table_name)
        self.store = TupleStore(
            self.sim,
            schema_table,
            latest_retention=self.config.latest_retention,
            history_retention=self.config.history_retention,
        )
        self._attachments: dict[str, _Attachment] = {}
        self.closed = False
        self.producer_id: Optional[str] = None  # set after registration
        #: The parked stream loop's wake-up, and its chain's next tick.
        self._wake: Optional[Event] = None
        self._tick = 0.0
        self.sim.process(self._stream_loop(), name=f"{resource_id}.stream")

    # ------------------------------------------------------------ mediation
    def attach_consumer(self, consumer: "ConsumerResource") -> bool:
        """Mediator hook.  Returns True when this is a new attachment."""
        if consumer.resource_id in self._attachments or self.closed:
            return False
        cutoff = self.sim.now - self.config.history_overlap
        cursor = 0
        for t in self.store.history():
            if t.insert_time < cutoff:
                cursor = max(cursor, t.seq)
        self._poke()
        self._attachments[consumer.resource_id] = _Attachment(
            consumer=consumer, attach_time=self.sim.now, cursor_seq=cursor
        )
        return True

    def detach_consumer(self, consumer: "ConsumerResource") -> None:
        self._attachments.pop(consumer.resource_id, None)

    @property
    def attachment_count(self) -> int:
        return len(self._attachments)

    # ------------------------------------------------------------ streaming
    def _stream_loop(self) -> Generator[Any, Any, None]:
        """Stream fresh tuples every ``stream_period``; park while idle.

        A tick with nothing newer than any cursor only purges the store, and
        purging is monotone, so such ticks are not run at all: the loop parks
        until :meth:`_poke` (an insert, a republish or an attach) wakes it at
        the first tick the always-ticking loop would have reached.
        """
        cfg = self.config
        sim = self.sim
        while not self.closed:
            newest = self.store.newest_seq
            if all(a.cursor_seq >= newest for a in self._attachments.values()):
                self._tick = sim.now + cfg.stream_period
                self._wake = wake = Event(sim)
                yield wake
            else:
                yield sim.timeout(cfg.stream_period)
            yield from self._stream_tick()

    def _stream_tick(self) -> Generator[Any, Any, None]:
        """One tick: purge, then send each attachment its fresh tuples."""
        cfg = self.config
        sim = self.sim
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
                copy.meta["t_streamed"] = sim.now
                batch.append(copy)
            if not batch:
                continue
            attachment.tuples_streamed += len(batch)
            yield from self.container.node.execute(
                cfg.stream_tuple_cpu * len(batch)
            )
            yield from self._send_batch(attachment.consumer, batch)

    def _poke(self) -> None:
        """Wake a parked stream loop: something may now be newer than a cursor.

        Call before the store changes.  The loop resumes at the first tick
        of its chain at or after now — each skipped tick ``tick +=
        stream_period``, the same float sums the ticking loop made — and the
        store is purged as of the last skipped tick, as that tick would have
        left it, so an insert re-adding a purged key lands where it did.
        A poke at a tick's own instant is served by that tick.
        """
        wake = self._wake
        if wake is None:
            return
        self._wake = None
        now = self.sim.now
        period = self.config.stream_period
        tick = self._tick
        if tick < now:
            while tick < now:
                skipped, tick = tick, tick + period
            self.store.purge(as_of=skipped)
        wake.succeed_at(tick)

    def _send_batch(
        self, consumer: "ConsumerResource", batch: list[Tuple]
    ) -> Generator[Any, Any, None]:
        cfg = self.config
        row_bytes = self.store.table.row_bytes()
        nbytes = cfg.stream_batch_overhead_bytes + len(batch) * (
            row_bytes + cfg.stream_tuple_overhead_bytes
        )
        if consumer.container is self.container:
            # Same JVM: hand over directly (no wire).
            yield from consumer._on_batch(batch)
            return
        channel = yield from self.container.stream_channel_to(consumer.container)
        try:
            yield from channel.send(("batch", consumer.resource_id, batch), nbytes)
        except (MessageLost, ChannelClosed):
            pass  # stream breakage: tuples lost (counted by the harness)

    # ----------------------------------------------------------------- close
    def close(self) -> None:
        self.closed = True
        if self.producer_id is not None:
            self.registry.deregister_producer(self.producer_id)


class PrimaryProducerResource(ProducerResourceBase):
    """Server-side Primary Producer: stores rows arriving via INSERT."""

    def insert_row(
        self, row: dict[str, Any], meta: Optional[dict] = None
    ) -> Tuple:
        if self.closed:
            raise RGMAException(f"producer {self.resource_id} is closed")
        meta = dict(meta or {})
        meta["t_stored"] = self.sim.now
        record = meta.get("record")
        if record is not None:
            record.mark(
                "broker_in", self.sim.now, "rgma", f"pp.{self.container.node.name}"
            )
        self._poke()
        return self.store.insert(row, meta)


class SecondaryProducerResource(ProducerResourceBase):
    """Consumes from Primary Producers and republishes after a fixed delay.

    The republished tuples land in this resource's own store, so consumers
    reading "via" the Secondary Producer see PP-to-SP latency + 30 s + the
    normal streaming path.
    """

    def ingest(self, t: Tuple) -> None:
        """Called (via the internal consumer) for every tuple received."""

        def republish() -> Generator[Any, Any, None]:
            yield self.sim.timeout(self.config.secondary_producer_delay)
            if self.closed:
                return
            meta = dict(t.meta)
            meta["t_sp_republished"] = self.sim.now
            self._poke()
            self.store.insert(t.row, meta)

        self.sim.process(republish(), name=f"{self.resource_id}.republish")


def registry_schema(registry: Registry):
    """The schema shared through the registry (one virtual database)."""
    schema = getattr(registry, "schema", None)
    if schema is None:
        raise RGMAException("registry has no schema attached")
    return schema


def insert_body_row(schema: "Schema", body: dict[str, Any]) -> dict[str, Any]:
    """The row an insert servlet stores for one request body.

    The body carries a statement — a ``?`` template from the producer
    clients, or a literal INSERT, whose empty params make the bind the
    identity — and its ``params``.  The statement parse is memoised, so a
    producer's template is lexed once, not once per tuple.  Raises
    :class:`RGMAException` (the servlet's 500) for anything malformed.
    """
    sql = body.get("sql")
    if not isinstance(sql, str):
        raise RGMAException("insert request carries no SQL text")
    stmt = parse_sql(sql)
    if not isinstance(stmt, Insert):
        raise RGMAException("expected INSERT")
    table = schema.table(stmt.table)
    columns = stmt.columns or table.column_names()
    params = body.get("params", ())
    if not isinstance(params, (tuple, list)):
        raise RGMAException("insert params must be a sequence")
    values = stmt.bind(params).values
    if len(columns) != len(values):
        raise RGMAException("column/value count mismatch")
    return dict(zip(columns, values))


def insert_request(
    resource_id: str, table_name: str, row: dict[str, Any], meta: dict
) -> tuple[dict[str, Any], int]:
    """The body and wire size of one prepared-INSERT request.

    The body sends the table's ``?`` template and the row's values; the
    wire size stays that of the literal statement the paper's generators
    sent (§III.F), plus resource id / framing.
    """
    body = {
        "resource_id": resource_id,
        "sql": insert_template(table_name, tuple(row)),
        "params": tuple(row.values()),
        "meta": meta,
    }
    return body, len(render_insert(table_name, row)) + 64


# --------------------------------------------------------------- client API

class PrimaryProducerClient:
    """Client-side Primary Producer API (runs on a generator node).

    Mirrors the paper's usage: create against a producer server, insert a
    row every publish interval, close.
    """

    def __init__(
        self,
        sim: "Simulator",
        transport: Any,
        node: "Node",
        server_host: str,
        port: int,
    ):
        self.sim = sim
        self.node = node
        self.http = HttpClient(sim, transport, node, server_host, port)
        self.resource_id: Optional[str] = None
        self.table_name: Optional[str] = None
        self.inserts_ok = 0
        self.inserts_failed = 0

    def create(self, table_name: str) -> Generator[Any, Any, str]:
        """Declare the table; returns the server-side resource id."""
        response = yield from self.http.request(
            "/pp/create", {"table": table_name}, 180
        )
        if response.status != 200:
            raise RGMAException(f"create failed: {response.body}")
        self.resource_id = response.body["resource_id"]
        self.table_name = table_name
        return self.resource_id

    def insert(
        self, row: dict[str, Any], meta: Optional[dict] = None
    ) -> Generator[Any, Any, float]:
        """Publish one row; returns the Publishing Response Time (PRT)."""
        if self.resource_id is None:
            raise RGMAException("insert before create()")
        meta = dict(meta or {})
        meta["t_before_send"] = self.sim.now
        started = self.sim.now
        body, body_bytes = insert_request(
            self.resource_id, self.table_name, row, meta
        )
        response = yield from self.http.request("/pp/insert", body, body_bytes)
        if response.status == 200:
            self.inserts_ok += 1
        else:
            self.inserts_failed += 1
        return self.sim.now - started

    def close(self) -> Generator[Any, Any, None]:
        if self.resource_id is not None:
            yield from self.http.request(
                "/pp/close", {"resource_id": self.resource_id}, 120
            )
            self.resource_id = None
        self.http.close()
