"""The legacy R-GMA Stream Producer / Archiver API.

The paper found a discrepancy with earlier measurements: "We find
discrepancies between our test results and [11], where the authors achieved
high performance with R-GMA.  This is because we tested different versions
of R-GMA.  They tested an old API of R-GMA (Stream Producer and Archiver)
and we tested a newer version (Primary Producer, Secondary Producer and
Consumer)" (§III.F.3).

The old API's pipeline was shorter: a Stream Producer pushed tuples straight
to registered Archivers over a socket as they arrived — no mediated Consumer
resource, no batch accumulation, no poll loop.  This module implements that
legacy path so the discrepancy is reproducible
(``ablation_rgma_legacy_api``).
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.rgma.errors import RGMAException
from repro.rgma.producer import insert_body_row, insert_request
from repro.rgma.registry import Registry
from repro.rgma.sql import RowView, Select, parse_sql
from repro.rgma.storage import Tuple, TupleStore
from repro.transport.base import ChannelClosed, MessageLost
from repro.transport.http import HttpClient

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.rgma.servlet import ServletContainer
    from repro.sim.kernel import Simulator

_legacy_seq = count(1)

#: Per-tuple CPU on the legacy direct-push path (no mediation, no SQL
#: re-evaluation per consumer — a straight socket write).
LEGACY_PUSH_CPU = 0.0012
#: Per-tuple CPU at the archiver (decode + store).
LEGACY_ARCHIVE_CPU = 0.0015


class ArchiverResource:
    """Server-side archiver: receives pushed tuples, stores, and exposes
    them to a callback (the legacy subscriber path)."""

    def __init__(
        self,
        container: "ServletContainer",
        registry: Registry,
        table_name: str,
        resource_id: str,
        on_tuple: Optional[Callable[[Tuple], None]] = None,
        predicate: Optional[Any] = None,
    ):
        self.container = container
        self.registry = registry
        self.sim = container.sim
        self.table_name = table_name
        self.resource_id = resource_id
        self.on_tuple = on_tuple
        self.predicate = predicate
        schema = registry.schema
        self.store = TupleStore(self.sim, schema.table(table_name))
        self.tuples_received = 0
        self.closed = False

    def _on_push(self, batch: list[Tuple]) -> Generator[Any, Any, None]:
        if self.closed:
            return
        for t in batch:
            yield from self.container.node.execute(LEGACY_ARCHIVE_CPU)
            if self.predicate is not None and not self.predicate.matches(
                RowView(t.row)
            ):
                continue
            t.meta["t_archived"] = self.sim.now
            self.store.insert(t.row, t.meta)
            self.tuples_received += 1
            if self.on_tuple is not None:
                self.on_tuple(t)

    def close(self) -> None:
        self.closed = True


class StreamProducerResource:
    """Server-side legacy producer: pushes each tuple to every archiver as
    soon as it is inserted (no stream period, no mediation delay once
    attached)."""

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
        self.table_name = table_name
        self.resource_id = resource_id
        self.store = TupleStore(self.sim, registry.schema.table(table_name))
        self.archivers: list[ArchiverResource] = []
        self.closed = False

    def attach_archiver(self, archiver: ArchiverResource) -> None:
        if archiver not in self.archivers:
            self.archivers.append(archiver)

    def insert_row(
        self, row: dict[str, Any], meta: Optional[dict] = None
    ) -> Generator[Any, Any, Tuple]:
        """Store and immediately push to all archivers."""
        if self.closed:
            raise RGMAException(f"stream producer {self.resource_id} closed")
        meta = dict(meta or {})
        meta["t_stored"] = self.sim.now
        t = self.store.insert(row, meta)
        row_bytes = self.store.table.row_bytes()
        for archiver in list(self.archivers):
            yield from self.container.node.execute(LEGACY_PUSH_CPU)
            if archiver.container is self.container:
                yield from archiver._on_push([t])
                continue
            channel = yield from self.container.stream_channel_to(
                archiver.container
            )
            try:
                yield from channel.send(
                    ("legacy_push", archiver.resource_id, [t]), row_bytes + 96
                )
            except (MessageLost, ChannelClosed):
                pass
        return t

    def close(self) -> None:
        self.closed = True


class LegacyDeployment:
    """Wires the legacy servlets into an existing RGMADeployment.

    Adds ``/sp_legacy/create``, ``/sp_legacy/insert`` and
    ``/archiver/create`` endpoints to every site and extends the stream sink
    to route ``legacy_push`` batches.
    """

    def __init__(self, deployment: Any):
        self.deployment = deployment
        self.sim = deployment.sim
        self.stream_producers: dict[str, StreamProducerResource] = {}
        self.archivers: dict[str, ArchiverResource] = {}
        for site in deployment.sites:
            container = site.container
            container.deploy("/sp_legacy/create", self._make_create(container))
            container.deploy("/sp_legacy/insert", self._make_insert(container))
            container.deploy("/archiver/create", self._make_archiver(container))
            original_sink = container.stream_sink
            container.stream_sink = self._make_sink(original_sink)

    # ------------------------------------------------------------- servlets
    def _make_create(self, container: "ServletContainer"):
        def create(request) -> Generator[Any, Any, tuple]:
            table = request.body["table"]
            registry = self.deployment.registry
            if not registry.schema.exists(table):
                return 500, {"error": f"unknown table {table!r}"}, 120
            container.jvm.alloc(container.config.per_producer_heap, "legacy SP")
            resource_id = f"lsp-{next(_legacy_seq)}"
            resource = StreamProducerResource(
                container, registry, table, resource_id
            )
            # Legacy attach: connect to every existing archiver immediately
            # (the old API looked archivers up synchronously at creation).
            yield from registry.node.execute(registry.config.registration_cpu)
            for archiver in self.archivers.values():
                if archiver.table_name == table:
                    resource.attach_archiver(archiver)
            self.stream_producers[resource_id] = resource
            return 200, {"resource_id": resource_id}, 100

        return create

    def _make_insert(self, container: "ServletContainer"):
        def insert(request) -> Generator[Any, Any, tuple]:
            resource = self.stream_producers.get(request.body.get("resource_id"))
            if resource is None or resource.container is not container:
                return 500, {"error": "no such stream producer"}, 120
            yield from container.node.execute(container.config.insert_cpu)
            row = insert_body_row(self.deployment.registry.schema, request.body)
            yield from resource.insert_row(row, request.body.get("meta"))
            return 200, {}, 40

        return insert

    def _make_archiver(self, container: "ServletContainer"):
        def create(request) -> Generator[Any, Any, tuple]:
            table = request.body["table"]
            registry = self.deployment.registry
            if not registry.schema.exists(table):
                return 500, {"error": f"unknown table {table!r}"}, 120
            container.jvm.alloc(container.config.per_consumer_heap, "archiver")
            resource_id = f"arch-{next(_legacy_seq)}"
            where = request.body.get("where")
            predicate = None
            if where:
                stmt = parse_sql(f"SELECT * FROM {table} WHERE {where}")
                predicate = stmt.where
            archiver = ArchiverResource(
                container, registry, table, resource_id, predicate=predicate
            )
            self.archivers[resource_id] = archiver
            for producer in self.stream_producers.values():
                if producer.table_name == table:
                    producer.attach_archiver(archiver)
            yield from registry.node.execute(registry.config.registration_cpu)
            return 200, {"resource_id": resource_id}, 100

        return create

    def _make_sink(self, original: Optional[Callable]):
        def sink(payload) -> Generator[Any, Any, None]:
            if payload[0] == "legacy_push":
                _, resource_id, batch = payload
                archiver = self.archivers.get(resource_id)
                if archiver is not None:
                    yield from archiver._on_push(batch)
                return
            if original is not None:
                yield from original(payload)

        return sink

    # ----------------------------------------------------------- client API
    def archiver_callback(self, resource_id: str, fn: Callable[[Tuple], None]) -> None:
        self.archivers[resource_id].on_tuple = fn


class StreamProducerClient:
    """Client API for the legacy Stream Producer."""

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

    def create(self, table_name: str) -> Generator[Any, Any, str]:
        response = yield from self.http.request(
            "/sp_legacy/create", {"table": table_name}, 160
        )
        if response.status != 200:
            raise RGMAException(f"legacy create failed: {response.body}")
        self.resource_id = response.body["resource_id"]
        self.table_name = table_name
        return self.resource_id

    def insert(
        self, row: dict[str, Any], meta: Optional[dict] = None
    ) -> Generator[Any, Any, None]:
        if self.resource_id is None:
            raise RGMAException("insert before create()")
        meta = dict(meta or {})
        meta["t_before_send"] = self.sim.now
        body, body_bytes = insert_request(
            self.resource_id, self.table_name, row, meta
        )
        response = yield from self.http.request(
            "/sp_legacy/insert", body, body_bytes
        )
        if response.status != 200:
            raise RGMAException(f"legacy insert failed: {response.body}")
