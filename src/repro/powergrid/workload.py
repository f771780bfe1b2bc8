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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.records import RecordBook
from repro.faults.recovery import RetryPolicy
from repro.jms import AckMode, Topic
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
    #: "block": node k hosts the contiguous id range [k*n/K, (k+1)*n/K) —
    #: the paper's layout, letting each node's co-located receiver subscribe
    #: to its own generators with an id-range selector.  "roundrobin"
    #: interleaves instead.
    assignment: str = "block"
    #: Publisher-side recovery: retry failed publishes with exponential
    #: backoff (``None`` keeps the paper's one-shot behaviour, where a lost
    #: publish is simply a lost message).
    retry: Optional[RetryPolicy] = None
    #: Mid-run per-generator rate overrides (``repro.scenario`` compiles
    #: scenario events into one).  ``None`` keeps the paper's fixed rates.
    rates: Optional[RateSchedule] = None

    def node_index(self, gen_id: int) -> int:
        """Which client node hosts generator ``gen_id``."""
        k = len(self.client_nodes)
        if self.assignment == "block":
            return min(k - 1, gen_id * k // max(1, self.n_generators))
        return gen_id % k

    def id_range(self, node_index: int) -> tuple[int, int]:
        """[lo, hi) of generator ids hosted on ``client_nodes[node_index]``
        under block assignment: ``gen_id*k//n == j  <=>  lo <= gen_id < hi``
        with ``lo = ceil(j*n/k)``."""
        k = len(self.client_nodes)
        n = self.n_generators
        lo = (node_index * n + k - 1) // k
        hi = ((node_index + 1) * n + k - 1) // k
        return lo, hi

    def scaled(self, scale: float) -> "FleetConfig":
        """A laptop-scale variant: fewer generators, compressed phases."""
        import dataclasses

        return dataclasses.replace(
            self,
            n_generators=max(1, int(self.n_generators * scale)),
            duration=max(30.0, self.duration * scale),
            creation_interval=self.creation_interval * scale,
        )


@dataclass
class FleetStats:
    connections_ok: int = 0
    connections_refused: int = 0
    publishes_attempted: int = 0
    publish_failures: int = 0
    #: Recovery counters (only move when ``FleetConfig.retry`` is set).
    publish_retries: int = 0
    reconnects: int = 0


class NaradaFleet:
    """Generators publishing JMS MapMessages to Narada brokers."""

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
        self.sim = sim
        self.cluster = cluster
        self.transport = transport
        self.broker_addresses = broker_addresses
        self.fleet = fleet
        self.book = book
        self.config = config
        self.topic = topic
        self.stats = FleetStats()
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        self.sim.process(self._spawner(), name="narada.fleet")

    def _spawner(self) -> Generator[Any, Any, None]:
        for i in range(self.fleet.n_generators):
            node_index = self.fleet.node_index(i)
            node_name = self.fleet.client_nodes[node_index]
            broker_index = node_index % len(self.broker_addresses)
            self.sim.process(
                self._generator(i, node_name, broker_index), name=f"gen{i}"
            )
            yield self.sim.timeout(self.fleet.creation_interval)

    def _connect(
        self, node_name: str, broker_index: int
    ) -> Generator[Any, Any, tuple]:
        """Build connection/session/publisher against one broker address."""
        broker = self.broker_addresses[broker_index % len(self.broker_addresses)]
        factory = narada_connection_factory(
            self.sim,
            self.transport,
            self.cluster.node(node_name),
            broker[0],
            broker[1],
            self.config,
        )
        connection = yield from factory.create_connection()
        connection.start()
        session = connection.create_session()
        publisher = session.create_publisher(self.topic)
        return connection, publisher

    def _generator(
        self, gen_id: int, node_name: str, broker_index: int
    ) -> Generator[Any, Any, None]:
        sim = self.sim
        fleet = self.fleet
        try:
            connection, publisher = yield from self._connect(
                node_name, broker_index
            )
        except (ChannelClosed, TransportError):
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
        retry = fleet.retry
        seq = 0
        while sim.now < stop_at:
            seq += 1
            state = model.sample(sim.now)
            message = narada_map_message(state)
            if fleet.payload_multiplier > 1:
                _inflate_payload(message, fleet.payload_multiplier)
            record = self.book.new_record(gen_id, seq, sim.now)
            message._record = record
            self.stats.publishes_attempted += 1
            published = False
            attempt = 0
            while True:
                try:
                    yield from publisher.publish(message)
                    record.t_after_send = sim.now
                    published = True
                    break
                except (MessageLost, ChannelClosed, IllegalStateException) as exc:
                    # IllegalStateException: the session died under us (a
                    # failed reconnect leaves the old closed one in place) —
                    # same recovery as a dead connection.
                    if retry is None or not retry.enabled or attempt >= retry.retries:
                        break
                    attempt += 1
                    self.stats.publish_retries += 1
                    yield sim.timeout(
                        retry.delay(attempt, sim, f"narada.retry.{gen_id}")
                    )
                    if isinstance(exc, (ChannelClosed, IllegalStateException)):
                        # Dead connection: rebuild it against the same broker.
                        try:
                            connection.close()
                        except (ChannelClosed, TransportError):
                            pass
                        try:
                            connection, publisher = yield from self._connect(
                                node_name, broker_index
                            )
                            self.stats.reconnects += 1
                        except (ChannelClosed, TransportError):
                            continue  # broker still down; back off again
            if not published:
                self.stats.publish_failures += 1
            yield from rate_sleep(sim, fleet.rates, gen_id, interval, stop_at)
        connection.close()


def _inflate_payload(message: MapMessage, multiplier: int) -> None:
    """Comparison test 5: replicate the field set to triple the payload."""
    names = list(message.item_names())
    for k in range(1, multiplier):
        for name in names:
            jms_type, value = message._body[name]
            message._set(jms_type, f"{name}_x{k}", value)


class PlogFleet:
    """Generators producing keyed records to a partitioned-log deployment.

    Each generator is its own producer with its own connection to the
    broker owning its partition — the "concurrent connections" axis is the
    same as Narada's — but the broker side holds no thread per connection,
    which is what lets this fleet scale past the Narada OOM wall.
    ``t_after_send`` is stamped by the producer's ack machinery (acks=1),
    not by the fleet loop.
    """

    def __init__(
        self,
        sim: "Simulator",
        cluster: "HydraCluster",
        deployment: "PlogDeployment",
        fleet: FleetConfig,
        book: RecordBook,
    ):
        self.sim = sim
        self.cluster = cluster
        self.deployment = deployment
        self.fleet = fleet
        self.book = book
        self.stats = FleetStats()
        self._producers: list = []
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        self.sim.process(self._spawner(), name="plog.fleet")

    def _spawner(self) -> Generator[Any, Any, None]:
        for i in range(self.fleet.n_generators):
            node_index = self.fleet.node_index(i)
            node_name = self.fleet.client_nodes[node_index]
            self.sim.process(self._generator(i, node_name), name=f"pgen{i}")
            yield self.sim.timeout(self.fleet.creation_interval)

    @property
    def publish_failures(self) -> int:
        return self.stats.publish_failures + sum(
            p.send_failures for p in self._producers
        )

    def _generator(
        self, gen_id: int, node_name: str
    ) -> Generator[Any, Any, None]:
        sim = self.sim
        fleet = self.fleet
        topic = self.deployment.topic
        producer = self.deployment.producer(
            self.cluster.node(node_name), f"producer.{gen_id}"
        )
        try:
            yield from producer.connect_for(topic, gen_id)
        except (ChannelClosed, TransportError):
            self.stats.connections_refused += 1
            return
        self.stats.connections_ok += 1
        self._producers.append(producer)
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
            state = model.sample(sim.now)
            message = narada_map_message(state)
            if fleet.payload_multiplier > 1:
                _inflate_payload(message, fleet.payload_multiplier)
            record = self.book.new_record(gen_id, seq, sim.now)
            message._record = record
            self.stats.publishes_attempted += 1
            try:
                producer.send(
                    topic, gen_id, message, message.wire_size(), record=record
                )
            except ChannelClosed:
                self.stats.publish_failures += 1
            yield from rate_sleep(sim, fleet.rates, gen_id, interval, stop_at)
        # Graceful shutdown: a record sent within ``linger`` of the loop's
        # last iteration is still batched client-side — drain it before
        # tearing the channels down, like Kafka's flushing close().
        yield from producer.flush()
        producer.close()


class RgmaFleet:
    """Generators inserting rows through R-GMA Primary Producers."""

    def __init__(
        self,
        sim: "Simulator",
        cluster: "HydraCluster",
        deployment: "RGMADeployment",
        fleet: FleetConfig,
        book: RecordBook,
        table: str = "gridmon",
    ):
        self.sim = sim
        self.cluster = cluster
        self.deployment = deployment
        self.fleet = fleet
        self.book = book
        self.table = table
        self.stats = FleetStats()
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        self.sim.process(self._spawner(), name="rgma.fleet")

    def _spawner(self) -> Generator[Any, Any, None]:
        for i in range(self.fleet.n_generators):
            node_index = self.fleet.node_index(i)
            node_name = self.fleet.client_nodes[node_index]
            self.sim.process(
                self._generator(i, node_name, node_index), name=f"rgen{i}"
            )
            yield self.sim.timeout(self.fleet.creation_interval)

    def _generator(
        self, gen_id: int, node_name: str, node_index: int
    ) -> Generator[Any, Any, None]:
        from repro.rgma.errors import RGMAException

        sim = self.sim
        fleet = self.fleet
        client = self.deployment.producer_client(
            self.cluster.node(node_name), node_index
        )
        try:
            yield from client.create(self.table)
        except (RGMAException, ChannelClosed, TransportError):
            self.stats.connections_refused += 1
            return
        self.stats.connections_ok += 1
        model = PowerGenerator(
            gen_id, sim.rng.stream(f"powergen.{gen_id}"),
            site=f"site-{gen_id % 97}"[:20],
        )
        if not fleet.skip_warmup:
            yield sim.timeout(
                sim.rng.uniform("fleet.warmup", fleet.warmup_min, fleet.warmup_max)
            )
        stop_at = fleet.stop_at if fleet.stop_at is not None else sim.now + fleet.duration
        seq = 0
        while sim.now < stop_at:
            seq += 1
            state = model.sample(sim.now)
            row = rgma_row(state)
            record = self.book.new_record(gen_id, seq, sim.now)
            self.stats.publishes_attempted += 1
            try:
                yield from client.insert(row, meta={"record": record})
                record.t_after_send = sim.now
            except (RGMAException, ChannelClosed, TransportError):
                self.stats.publish_failures += 1
            yield from rate_sleep(
                sim, fleet.rates, gen_id, fleet.publish_interval, stop_at
            )
        yield from client.close()
