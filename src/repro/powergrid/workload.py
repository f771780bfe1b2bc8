"""Fleet builders: many simulated generators publishing monitoring data.

Reproduces the paper's workload shape: generators are created at a fixed
interval (0.5 s for the Narada tests, 1 s for R-GMA), each "first slept for
a random time between 10 to 20 seconds to allow the monitoring data to
distribute evenly", then published every 10 seconds (§III.E, §III.F).

Fleet sizes and durations are scalable so the benchmark suite can run at
laptop scale; the paper-scale values are the defaults of
:class:`FleetConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.records import MessageRecord, RecordBook
from repro.faults.recovery import RetryPolicy
from repro.jms import Topic
from repro.jms.errors import IllegalStateException
from repro.jms.message import MapMessage
from repro.narada.client import narada_connection_factory
from repro.powergrid.generator import PowerGenerator
from repro.powergrid.payload import narada_map_message, rgma_row
from repro.powergrid.rates import RateSchedule, rate_sleep
from repro.transport.base import ChannelClosed, MessageLost, TransportError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.hydra import HydraCluster
    from repro.narada.config import NaradaConfig
    from repro.plog.deployment import PlogDeployment
    from repro.rgma.site import RGMADeployment
    from repro.sim.kernel import Simulator

MONITORING_TOPIC = Topic("power.monitoring")


@dataclass
class FleetConfig:
    """Workload shape; defaults are the paper's values."""

    n_generators: int = 800
    publish_interval: float = 10.0
    creation_interval: float = 0.5
    warmup_min: float = 10.0
    warmup_max: float = 20.0
    #: Publishing duration per generator, measured from the end of its
    #: warm-up (paper: 30-minute tests).
    duration: float = 1800.0
    #: Absolute simulated stop time.  When set, every generator keeps
    #: publishing (and stays connected) until this instant, so all
    #: ``n_generators`` connections are concurrently open in steady state —
    #: the paper's "concurrent connections" axis.  Overrides ``duration``.
    stop_at: float | None = None
    #: Payload multiplier (comparison test 5 "Triple": x3 payload, 1/3 rate).
    payload_multiplier: int = 1
    #: Hosts that run generator client threads.
    client_nodes: tuple[str, ...] = ("hydra5", "hydra6", "hydra7", "hydra8")
    #: Skip the random warm-up (the R-GMA loss experiment).
    skip_warmup: bool = False
    #: Publisher-side recovery: retry failed publishes with exponential
    #: backoff (``None`` keeps the paper's one-shot behaviour, where a lost
    #: publish is simply a lost message).
    retry: Optional[RetryPolicy] = None
    #: Mid-run per-generator rate overrides (``repro.scenario`` compiles
    #: scenario events into one).  ``None`` keeps the paper's fixed rates.
    rates: Optional[RateSchedule] = None

    def node_index(self, gen_id: int) -> int:
        """Which client node hosts generator ``gen_id``: node k hosts the
        contiguous id range [k*n/K, (k+1)*n/K) — the paper's layout, letting
        each node's co-located receiver subscribe to its own generators with
        an id-range selector."""
        k = len(self.client_nodes)
        return min(k - 1, gen_id * k // max(1, self.n_generators))

    def id_range(self, node_index: int) -> tuple[int, int]:
        """[lo, hi) of generator ids hosted on ``client_nodes[node_index]``:
        ``gen_id*k//n == j  <=>  lo <= gen_id < hi`` with
        ``lo = ceil(j*n/k)``."""
        k = len(self.client_nodes)
        n = self.n_generators
        lo = (node_index * n + k - 1) // k
        hi = ((node_index + 1) * n + k - 1) // k
        return lo, hi


@dataclass
class FleetStats:
    connections_ok: int = 0
    connections_refused: int = 0


def _inflate_payload(message: MapMessage, multiplier: int) -> None:
    """Comparison test 5: replicate the field set to triple the payload."""
    names = list(message.item_names())
    for k in range(1, multiplier):
        for name in names:
            jms_type, value = message._body[name]
            message._set(jms_type, f"{name}_x{k}", value)


class Fleet:
    """The generator program, written once for every middleware (§III.B).

    The spawner starts one generator every ``creation_interval``; each
    generator connects, warms up for a random 10–20 s, then samples,
    records and publishes every ``publish_interval`` until it stops, and
    closes.  Subclasses supply only what differs per middleware, the way
    :class:`~repro.cluster.server.JvmServer` subclasses supply ``_handle``:
    :meth:`_connect` opens a generator's link (raising one of
    :attr:`refused` when the middleware turns it away), :meth:`_payload`
    shapes a sample, :meth:`_publish` sends it (a publish that fails is a
    lost message) and :meth:`_close` ends the link.
    """

    #: Name of the spawner process; generator ``i`` runs as
    #: ``f"{process_prefix}{i}"``.
    name = "fleet"
    process_prefix = "gen"
    #: Whether the hooks honour ``FleetConfig.payload_multiplier`` /
    #: ``FleetConfig.retry``; a run that sets one the hooks would ignore
    #: raises at construction instead.
    inflates_payload = True
    retries_publishes = False
    #: Connect failures that count as a refused connection.
    refused: tuple[type[BaseException], ...] = (ChannelClosed, TransportError)

    def __init__(
        self,
        sim: "Simulator",
        cluster: "HydraCluster",
        fleet: FleetConfig,
        book: RecordBook,
    ):
        kind = type(self).__name__
        if fleet.payload_multiplier != 1 and not self.inflates_payload:
            raise ValueError(
                f"{kind} cannot honour payload_multiplier="
                f"{fleet.payload_multiplier}"
            )
        if fleet.retry is not None and not self.retries_publishes:
            raise ValueError(f"{kind} cannot honour a publisher retry policy")
        self.sim = sim
        self.cluster = cluster
        self.fleet = fleet
        self.book = book
        self.stats = FleetStats()
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        self.sim.process(self._spawner(), name=self.name)

    def _spawner(self) -> Generator[Any, Any, None]:
        fleet = self.fleet
        for i in range(fleet.n_generators):
            self.sim.process(
                self._generator(i, fleet.node_index(i)),
                name=f"{self.process_prefix}{i}",
            )
            yield self.sim.timeout(fleet.creation_interval)

    def _generator(self, gen_id: int, node_index: int) -> Generator[Any, Any, None]:
        sim = self.sim
        fleet = self.fleet
        try:
            link = yield from self._connect(gen_id, node_index)
        except self.refused:
            self.stats.connections_refused += 1
            return
        self.stats.connections_ok += 1
        model = PowerGenerator(
            gen_id, sim.rng.stream(f"powergen.{gen_id}"),
            site=f"site-{gen_id % 97}",
        )
        if not fleet.skip_warmup:
            yield sim.timeout(
                sim.rng.uniform("fleet.warmup", fleet.warmup_min, fleet.warmup_max)
            )
        interval = fleet.publish_interval * fleet.payload_multiplier
        stop_at = fleet.stop_at if fleet.stop_at is not None else sim.now + fleet.duration
        seq = 0
        while sim.now < stop_at:
            seq += 1
            payload = self._payload(model.sample(sim.now))
            record = self.book.new_record(gen_id, seq, sim.now)
            yield from self._publish(link, gen_id, payload, record)
            yield from rate_sleep(sim, fleet.rates, gen_id, interval, stop_at)
        yield from self._close(link)

    # ------------------------------------------------------------- hooks
    def _connect(self, gen_id: int, node_index: int) -> Generator[Any, Any, Any]:
        raise NotImplementedError  # pragma: no cover

    def _payload(self, state: Any) -> Any:
        """A JMS MapMessage (Narada and plog), inflated by
        ``payload_multiplier``."""
        message = narada_map_message(state)
        if self.fleet.payload_multiplier > 1:
            _inflate_payload(message, self.fleet.payload_multiplier)
        return message

    def _publish(
        self, link: Any, gen_id: int, payload: Any, record: MessageRecord
    ) -> Generator[Any, Any, None]:
        raise NotImplementedError  # pragma: no cover

    def _close(self, link: Any) -> Generator[Any, Any, None]:
        raise NotImplementedError  # pragma: no cover


class NaradaFleet(Fleet):
    """Generators publishing JMS MapMessages to Narada brokers; with
    ``FleetConfig.retry`` a failed publish backs off, reconnects a dead
    connection and tries again."""

    name = "narada.fleet"
    retries_publishes = True

    def __init__(
        self,
        sim: "Simulator",
        cluster: "HydraCluster",
        transport: Any,
        broker_addresses: list[tuple[str, int]],
        fleet: FleetConfig,
        book: RecordBook,
        config: Optional["NaradaConfig"] = None,
        topic: Topic = MONITORING_TOPIC,
    ):
        super().__init__(sim, cluster, fleet, book)
        self.transport = transport
        self.broker_addresses = broker_addresses
        self.config = config
        self.topic = topic

    def _connect(
        self, gen_id: int, node_index: int
    ) -> Generator[Any, Any, SimpleNamespace]:
        link = SimpleNamespace(node_index=node_index)
        yield from self._open(link)
        return link

    def _open(self, link: SimpleNamespace) -> Generator[Any, Any, None]:
        """Build the link's connection, session and publisher against its
        node's broker; a reconnect replaces both."""
        host, port = self.broker_addresses[
            link.node_index % len(self.broker_addresses)
        ]
        factory = narada_connection_factory(
            self.sim,
            self.transport,
            self.cluster.node(self.fleet.client_nodes[link.node_index]),
            host,
            port,
            self.config,
        )
        connection = yield from factory.create_connection()
        connection.start()
        publisher = connection.create_session().create_publisher(self.topic)
        link.connection, link.publisher = connection, publisher

    def _publish(
        self, link: SimpleNamespace, gen_id: int, message: MapMessage,
        record: MessageRecord,
    ) -> Generator[Any, Any, None]:
        sim = self.sim
        message._record = record
        retry = self.fleet.retry
        attempt = 0
        while True:
            try:
                yield from link.publisher.publish(message)
                record.t_after_send = sim.now
                return
            except (MessageLost, ChannelClosed, IllegalStateException) as exc:
                # IllegalStateException: the session died under us (a
                # failed reconnect leaves the old closed one in place) —
                # same recovery as a dead connection.
                if retry is None or not retry.enabled or attempt >= retry.retries:
                    return
                attempt += 1
                yield sim.timeout(
                    retry.delay(attempt, sim, f"narada.retry.{gen_id}")
                )
                if isinstance(exc, (ChannelClosed, IllegalStateException)):
                    # Dead connection: rebuild it against the same broker.
                    try:
                        link.connection.close()
                    except (ChannelClosed, TransportError):
                        pass
                    try:
                        yield from self._open(link)
                    except (ChannelClosed, TransportError):
                        continue  # broker still down; back off again

    def _close(self, link: SimpleNamespace) -> Generator[Any, Any, None]:
        link.connection.close()
        yield from ()


class PlogFleet(Fleet):
    """Generators producing keyed records to a partitioned-log deployment.

    Each generator is its own producer with its own connection to the
    broker owning its partition — the "concurrent connections" axis is the
    same as Narada's — but the broker side holds no thread per connection,
    which is what lets this fleet scale past the Narada OOM wall.
    ``t_after_send`` is stamped by the producer's ack machinery (acks=1),
    not by the fleet loop; publisher retries are the producer's own
    (``PlogConfig.producer_retry``).
    """

    name = "plog.fleet"
    process_prefix = "pgen"

    def __init__(
        self,
        sim: "Simulator",
        cluster: "HydraCluster",
        deployment: "PlogDeployment",
        fleet: FleetConfig,
        book: RecordBook,
    ):
        super().__init__(sim, cluster, fleet, book)
        self.deployment = deployment
        #: Every connected generator's producer (their retry and reconnect
        #: counters feed the run's counters).
        self.producers: list = []

    def _connect(self, gen_id: int, node_index: int) -> Generator[Any, Any, Any]:
        producer = self.deployment.producer(
            self.cluster.node(self.fleet.client_nodes[node_index]),
            f"producer.{gen_id}",
        )
        yield from producer.connect_for(self.deployment.topic, gen_id)
        self.producers.append(producer)
        return producer

    def _publish(
        self, producer: Any, gen_id: int, message: MapMessage,
        record: MessageRecord,
    ) -> Generator[Any, Any, None]:
        message._record = record
        yield from ()  # send() only batches; the producer's sender waits
        try:
            producer.send(
                self.deployment.topic, gen_id, message, message.wire_size(),
                record=record,
            )
        except ChannelClosed:
            pass  # the record stays unsent: a lost message

    def _close(self, producer: Any) -> Generator[Any, Any, None]:
        # Graceful shutdown: a record sent within ``linger`` of the loop's
        # last iteration is still batched client-side — drain it before
        # tearing the channels down, like Kafka's flushing close().
        yield from producer.flush()
        producer.close()


class RgmaFleet(Fleet):
    """Generators inserting rows through R-GMA Primary Producers."""

    name = "rgma.fleet"
    process_prefix = "rgen"
    inflates_payload = False

    def __init__(
        self,
        sim: "Simulator",
        cluster: "HydraCluster",
        deployment: "RGMADeployment",
        fleet: FleetConfig,
        book: RecordBook,
        table: str = "gridmon",
    ):
        from repro.rgma.errors import RGMAException

        super().__init__(sim, cluster, fleet, book)
        self.deployment = deployment
        self.table = table
        self.refused = (RGMAException, ChannelClosed, TransportError)

    def _connect(self, gen_id: int, node_index: int) -> Generator[Any, Any, Any]:
        client = self.deployment.producer_client(
            self.cluster.node(self.fleet.client_nodes[node_index]), node_index
        )
        yield from client.create(self.table)
        return client

    def _payload(self, state: Any) -> Any:
        return rgma_row(state)

    def _publish(
        self, client: Any, gen_id: int, row: Any, record: MessageRecord
    ) -> Generator[Any, Any, None]:
        try:
            yield from client.insert(row, meta={"record": record})
        except self.refused:  # what refuses a producer also fails an insert
            return
        record.t_after_send = self.sim.now

    def _close(self, client: Any) -> Generator[Any, Any, None]:
        yield from client.close()
