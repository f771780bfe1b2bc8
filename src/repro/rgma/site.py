"""R-GMA site assembly: servlet wiring and deployments.

"R-GMA has a natural way to implement a distributed architecture.  The
R-GMA Producer, Consumer and Registry can be installed onto different
machines" (paper §III.F.1).  :class:`RGMASite` deploys the R-GMA web
application (producer + consumer servlets) into one container;
:class:`RGMADeployment` builds the paper's two configurations:

* **single server** — registry, producer servlet and consumer servlet all in
  one Tomcat on one node (the configuration that dies below 800 clients);
* **distributed** — two producer nodes and two consumer nodes, registry on
  the first producer node (the configuration that reaches 1000+ clients).
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.cluster.jvm import OutOfMemoryError
from repro.rgma.consumer import ConsumerClient, ConsumerResource
from repro.rgma.errors import RGMAException, RGMATemporaryException
from repro.rgma.producer import (
    PrimaryProducerClient,
    PrimaryProducerResource,
    SecondaryProducerResource,
    insert_body_row,
)
from repro.rgma.registry import Registry, RGMAConfig
from repro.rgma.schema import Schema, grid_monitoring_table
from repro.rgma.servlet import ServletContainer
from repro.rgma.sql import RowView, Select, parse_sql
from repro.telemetry.context import current as _telemetry
from repro.transport.http import HttpRequest
from repro.transport.tcp import TcpTransport

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.hydra import HydraCluster
    from repro.cluster.node import Node
    from repro.sim.kernel import Simulator

_site_resource_seq = count(1)

HTTP_PORT = 8080
STREAM_PORT = 8090


class RGMASite:
    """One container running the R-GMA web application."""

    def __init__(self, container: ServletContainer, registry: Registry):
        self.container = container
        self.registry = registry
        self.sim = container.sim
        self.config = container.config
        self.producers: dict[str, PrimaryProducerResource] = {}
        self.secondary_producers: dict[str, SecondaryProducerResource] = {}
        self.consumers: dict[str, ConsumerResource] = {}
        container.deploy("/pp/create", self._pp_create)
        container.deploy("/pp/insert", self._pp_insert)
        container.deploy("/pp/close", self._pp_close)
        container.deploy("/sp/create", self._sp_create)
        container.deploy("/consumer/create", self._consumer_create)
        container.deploy("/consumer/pop", self._consumer_pop)
        container.deploy("/consumer/latest", self._consumer_latest)
        container.deploy("/consumer/history", self._consumer_history)
        container.deploy("/consumer/close", self._consumer_close)

    # ----------------------------------------------------- producer servlet
    def _pp_create(self, request: HttpRequest) -> Generator[Any, Any, tuple]:
        table = request.body["table"]
        if not self.registry.schema.exists(table):
            return 500, {"error": f"unknown table {table!r}"}, 120
        self.container.jvm.alloc(self.config.per_producer_heap, "PP resource")
        resource_id = f"ppr-{next(_site_resource_seq)}"
        resource = PrimaryProducerResource(
            self.container, self.registry, table, resource_id
        )
        resource.producer_id = yield from self.registry.register_producer(resource)
        self.producers[resource_id] = resource
        return 200, {"resource_id": resource_id}, 100

    def _pp_insert(self, request: HttpRequest) -> Generator[Any, Any, tuple]:
        resource = self.producers.get(request.body.get("resource_id"))
        if resource is None:
            return 500, {"error": "no such producer resource"}, 120
        yield from self.container.node.execute(self.config.insert_cpu)
        row = insert_body_row(self.registry.schema, request.body)
        meta = request.body.get("meta") or {}
        resource.insert_row(row, meta)
        return 200, {}, 40

    def _pp_close(self, request: HttpRequest) -> Generator[Any, Any, tuple]:
        resource = self.producers.pop(request.body["resource_id"], None)
        if resource is not None:
            resource.close()
            self.container.jvm.free(self.config.per_producer_heap)
        if False:  # pragma: no cover - generator shape
            yield
        return 200, {}, 40

    # -------------------------------------------- secondary producer servlet
    def _sp_create(self, request: HttpRequest) -> Generator[Any, Any, tuple]:
        table = request.body["table"]
        if not self.registry.schema.exists(table):
            return 500, {"error": f"unknown table {table!r}"}, 120
        self.container.jvm.alloc(
            self.config.per_producer_heap + self.config.per_consumer_heap,
            "SP resource",
        )
        resource_id = f"spr-{next(_site_resource_seq)}"
        sp = SecondaryProducerResource(
            self.container, self.registry, table, resource_id
        )
        # Internal consumer feeding the SP's republish path.
        ingest = ConsumerResource(
            self.container,
            self.registry,
            Select(table, (), None, None),
            f"{resource_id}.ingest",
            on_tuple=sp.ingest,
        )
        sp.producer_id = yield from self.registry.register_producer(
            sp, is_secondary=True
        )
        ingest.consumer_id = yield from self.registry.register_consumer(
            ingest, producer_type="primary"
        )
        self.secondary_producers[resource_id] = sp
        self.consumers[ingest.resource_id] = ingest
        return 200, {"resource_id": resource_id}, 100

    # ----------------------------------------------------- consumer servlet
    def _consumer_create(self, request: HttpRequest) -> Generator[Any, Any, tuple]:
        stmt = parse_sql(request.body["sql"])
        if not isinstance(stmt, Select):
            return 500, {"error": "expected SELECT"}, 120
        if not self.registry.schema.exists(stmt.table):
            return 500, {"error": f"unknown table {stmt.table!r}"}, 120
        self.container.jvm.alloc(self.config.per_consumer_heap, "consumer resource")
        resource_id = f"cr-{next(_site_resource_seq)}"
        resource = ConsumerResource(
            self.container, self.registry, stmt, resource_id
        )
        resource.consumer_id = yield from self.registry.register_consumer(
            resource, producer_type=request.body.get("producer_type")
        )
        self.consumers[resource_id] = resource
        return 200, {"resource_id": resource_id}, 100

    def _consumer_pop(self, request: HttpRequest) -> Generator[Any, Any, tuple]:
        resource = self.consumers.get(request.body["resource_id"])
        if resource is None:
            return 500, {"error": "no such consumer resource"}, 120
        tuples = resource.drain()
        tel = _telemetry()
        if tel is not None and tuples:
            component = f"cs.{self.container.node.name}"
            for t in tuples:
                record = t.meta.get("record")
                if record is not None:
                    tel.mark(record, "broker_out", self.sim.now, "rgma", component)
        yield from self.container.node.execute(
            self.config.poll_cpu + self.config.poll_tuple_cpu * len(tuples)
        )
        row_bytes = (
            self.registry.schema.table(resource.table_name).row_bytes()
            if self.registry.schema.exists(resource.table_name)
            else 64
        )
        nbytes = 60 + len(tuples) * (row_bytes + 32)
        return 200, {"tuples": tuples}, nbytes

    def _consumer_latest(self, request: HttpRequest) -> Generator[Any, Any, tuple]:
        result = yield from self._one_shot(request, "latest")
        return result

    def _consumer_history(self, request: HttpRequest) -> Generator[Any, Any, tuple]:
        result = yield from self._one_shot(request, "history")
        return result

    def _one_shot(self, request: HttpRequest, mode: str) -> Generator[Any, Any, tuple]:
        stmt = parse_sql(request.body["sql"])
        if not isinstance(stmt, Select):
            return 500, {"error": "expected SELECT"}, 120
        yield from self.container.node.execute(self.config.query_cpu)
        tuples = []
        for entry in self.registry.producers.values():
            if entry.table != stmt.table:
                continue
            if entry.resource.container is not self.container:
                # Remote producer: one query round trip over the LAN.
                yield self.sim.timeout(0.004)
                yield from self.container.node.execute(self.config.query_cpu)
            source = (
                entry.resource.store.latest()
                if mode == "latest"
                else entry.resource.store.history()
            )
            for t in source:
                if stmt.where is not None and not stmt.where.matches(RowView(t.row)):
                    continue
                tuples.append(t)
        if stmt.columns:
            # SELECT-list projection: return only the requested columns.
            import dataclasses

            tuples = [
                dataclasses.replace(
                    t,
                    row={c: t.row.get(c) for c in stmt.columns},
                    meta=dict(t.meta),
                )
                for t in tuples
            ]
        yield from self.container.node.execute(
            self.config.query_tuple_cpu * len(tuples)
        )
        row_bytes = self.registry.schema.table(stmt.table).row_bytes()
        nbytes = 60 + len(tuples) * (row_bytes + 32)
        return 200, {"tuples": tuples}, nbytes

    def _consumer_close(self, request: HttpRequest) -> Generator[Any, Any, tuple]:
        resource = self.consumers.pop(request.body["resource_id"], None)
        if resource is not None:
            resource.close()
            self.container.jvm.free(self.config.per_consumer_heap)
        if False:  # pragma: no cover - generator shape
            yield
        return 200, {}, 40


class RGMADeployment:
    """A complete R-GMA installation on the Hydra cluster."""

    def __init__(
        self,
        sim: "Simulator",
        cluster: "HydraCluster",
        config: Optional[RGMAConfig] = None,
        transport: Optional[Any] = None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.config = config or RGMAConfig()
        # HTTP by default; pass a TlsTransport for the HTTPS configuration
        # the paper avoided ("encryption overhead", §III.F).
        self.transport = transport or TcpTransport(sim, cluster.lan)
        self.schema = Schema()
        self.schema.create_table(grid_monitoring_table())
        self.registry: Optional[Registry] = None
        self.sites: list[RGMASite] = []
        #: host name -> site, for clients picking a server.
        self.producer_hosts: list[str] = []
        self.consumer_hosts: list[str] = []

    # ------------------------------------------------------------ builders
    @classmethod
    def single_server(
        cls,
        sim: "Simulator",
        cluster: "HydraCluster",
        config: Optional[RGMAConfig] = None,
        node_name: str = "hydra1",
        transport: Optional[Any] = None,
    ) -> "RGMADeployment":
        deployment = cls(sim, cluster, config, transport)
        node = cluster.node(node_name)
        deployment.registry = Registry(
            sim, node, deployment.schema, deployment.config
        )
        deployment._add_site(node_name)
        deployment.producer_hosts = [node_name]
        deployment.consumer_hosts = [node_name]
        return deployment

    @classmethod
    def distributed(
        cls,
        sim: "Simulator",
        cluster: "HydraCluster",
        config: Optional[RGMAConfig] = None,
        producer_nodes: tuple[str, ...] = ("hydra1", "hydra2"),
        consumer_nodes: tuple[str, ...] = ("hydra3", "hydra4"),
    ) -> "RGMADeployment":
        deployment = cls(sim, cluster, config)
        registry_node = cluster.node(producer_nodes[0])
        deployment.registry = Registry(
            sim, registry_node, deployment.schema, deployment.config
        )
        for name in dict.fromkeys(producer_nodes + consumer_nodes):
            deployment._add_site(name)
        deployment.producer_hosts = list(producer_nodes)
        deployment.consumer_hosts = list(consumer_nodes)
        return deployment

    def _add_site(self, node_name: str) -> RGMASite:
        node = self.cluster.node(node_name)
        container = ServletContainer(
            self.sim, node, f"tomcat-{node_name}", self.config
        )
        container.start(self.transport, HTTP_PORT)
        container.start_stream_listener(self.transport, STREAM_PORT)
        assert self.registry is not None
        site = RGMASite(container, self.registry)
        container.stream_sink = lambda payload, s=site: self._sink(s, payload)
        self.sites.append(site)
        return site

    @staticmethod
    def _sink(site: RGMASite, payload: Any) -> Generator[Any, Any, None]:
        kind, resource_id, batch = payload
        if kind != "batch":
            raise RGMAException(f"unexpected stream payload {kind!r}")
        resource = site.consumers.get(resource_id)
        if resource is None:
            return
        yield from resource._on_batch(batch)

    # -------------------------------------------------------------- clients
    def site_for(self, host: str) -> RGMASite:
        for site in self.sites:
            if site.container.node.name == host:
                return site
        raise RGMAException(f"no site on {host}")

    def producer_client(
        self, client_node: "Node", index: int = 0
    ) -> PrimaryProducerClient:
        host = self.producer_hosts[index % len(self.producer_hosts)]
        return PrimaryProducerClient(
            self.sim, self.transport, client_node, host, HTTP_PORT
        )

    def consumer_client(
        self, client_node: "Node", index: int = 0
    ) -> ConsumerClient:
        host = self.consumer_hosts[index % len(self.consumer_hosts)]
        return ConsumerClient(
            self.sim, self.transport, client_node, host, HTTP_PORT
        )
