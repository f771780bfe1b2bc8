"""Receivers: the one subscribing client per middleware.

"Another Java program received data from the middleware.  Information of
the monitoring data (such as sending and receiving time, etc) was dumped
into a local text file for later analysis" (§III.B).  A receiver hands
every delivery to one callback ``on_delivery(payload, t_arrived)``: by
default its :class:`~repro.core.records.Recorder`, which counts it and
stamps the message's record (the "text file" is the shared
:class:`~repro.core.records.RecordBook`); an edge gateway passes its
ingest instead, reads ``connections`` and tears the receiver down with
``stop()``.  ``start()`` subscribes: Narada's and R-GMA's return a
generator to drive; a plog member joins its group in a process of its
own, which ``start()`` spawns, and returns ``None``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.core.dedup import DedupIndex
from repro.core.records import Recorder
from repro.jms import AckMode
from repro.jms.destination import Topic
from repro.narada.client import narada_connection_factory
from repro.rgma.errors import RGMAException
from repro.transport.base import ChannelClosed, MessageLost, TransportError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.hydra import HydraCluster
    from repro.narada.config import NaradaConfig
    from repro.plog.deployment import PlogDeployment
    from repro.rgma.site import RGMADeployment
    from repro.sim.kernel import Simulator

#: The paper's subscriber selector: "this selector did not filter out any
#: data but just to simulate real uses" (§III.E).
PAPER_SELECTOR = "id<10000"

#: ``on_delivery(payload, t_arrived)``: a :class:`Recorder` returns whether
#: the delivery counted (``False`` for a suppressed redelivery).
OnDelivery = Callable[[Any, float], Any]


class NaradaReceiver:
    """One subscriber connection handing each message to ``on_delivery``.

    With ``durable_name`` the subscription is durable: the broker retains
    delivered-but-unacked and offline messages for replay, and the recorder
    deduplicates redeliveries by ``(gen_id, seq)``.  With ``recover`` the
    receiver is *supervised*: :meth:`start` becomes a long-running process
    that reconnects and durably re-subscribes whenever its connection dies
    (a broker crash — or its own, via :meth:`close`, which models the
    subscriber process being killed and restarted by its supervisor).
    """

    def __init__(
        self,
        sim: "Simulator",
        cluster: "HydraCluster",
        transport: Any,
        broker_address: tuple[str, int],
        node_name: str,
        topic: Topic,
        selector: Optional[str] = PAPER_SELECTOR,
        ack_mode: int = AckMode.AUTO_ACKNOWLEDGE,
        client_ack_batch: int = 10,
        config: Optional["NaradaConfig"] = None,
        durable_name: Optional[str] = None,
        recover: bool = False,
        reconnect_backoff: float = 0.25,
        name: Optional[str] = None,
        on_delivery: Optional[OnDelivery] = None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.transport = transport
        self.broker_address = broker_address
        self.node_name = node_name
        self.topic = topic
        self.selector = selector
        self.ack_mode = ack_mode
        self.client_ack_batch = client_ack_batch
        self.config = config
        self.durable_name = durable_name
        self.recover = recover
        self.reconnect_backoff = reconnect_backoff
        #: Fault-injector surface (consumer_crash target).
        self.name = name or f"narada-recv.{node_name}"
        # Exactly-once processing in durable mode: replayed deliveries are
        # acknowledged (so the broker can settle its retention) but not
        # re-counted.
        self.recorder = Recorder(
            sim, "narada", node_name,
            dedup=DedupIndex() if durable_name is not None else None,
        )
        self.on_delivery = on_delivery or self.recorder
        self.reconnects = 0
        self.crashes = 0
        self.connected = False
        self.stopped = False
        self._connection = None

    @property
    def connections(self) -> int:
        return int(self.connected)

    def start(self) -> Generator[Any, Any, None]:
        """Connect and subscribe; raises if the broker refuses.

        With ``recover`` this is a supervising loop instead: it keeps the
        subscription alive until :meth:`stop`, swallowing connection-level
        failures and retrying with a fixed backoff.
        """
        if not self.recover:
            yield from self._connect_once()
            return
        while not self.stopped:
            try:
                yield from self._connect_once()
            except (ChannelClosed, MessageLost, TransportError):
                self.connected = False
                yield self.sim.timeout(self.reconnect_backoff)
                continue
            # Watch the connection; reconnect + durable re-subscribe on EOF.
            while not self.stopped:
                yield self.sim.timeout(self.reconnect_backoff)
                channel = self._connection.provider.channel
                if channel.closed:
                    self.connected = False
                    break
            if self.stopped:
                return
            self.reconnects += 1

    def _connect_once(self) -> Generator[Any, Any, None]:
        factory = narada_connection_factory(
            self.sim,
            self.transport,
            self.cluster.node(self.node_name),
            self.broker_address[0],
            self.broker_address[1],
            self.config,
        )
        connection = yield from factory.create_connection()
        connection.start()
        session = connection.create_session(ack_mode=self.ack_mode)
        yield from session.create_subscriber(
            self.topic,
            selector=self.selector,
            listener=self._on_message,
            durable_name=self.durable_name,
        )
        self.connected = True
        self._connection = connection

    def close(self) -> None:
        """Consumer-crash hook: kill the subscriber process.

        Severs the channel abruptly (no unsubscribe — the durable
        subscription stays registered at the broker).  Without ``recover``
        the receiver stays down, like the plog consumer it mirrors; with
        ``recover`` the supervising loop restarts it, and the broker's
        durable replay plus the ``(gen_id, seq)`` index cover the gap.
        """
        self.crashes += 1
        self.connected = False
        if not self.recover:
            self.stopped = True
        if self._connection is not None:
            channel = self._connection.provider.channel
            if not channel.closed:
                channel.close()

    def stop(self) -> None:
        """Shut the receiver down for good: close its JMS connection, which
        ends every session dispatcher, and the supervisor loop with it."""
        self.stopped = True
        self.connected = False
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def _on_message(self, message: Any) -> None:
        counted = self.on_delivery(
            message, getattr(message, "_t_arrived_client", self.sim.now)
        )
        if (
            counted
            and self.ack_mode == AckMode.CLIENT_ACKNOWLEDGE
            and self.recorder.received % self.client_ack_batch == 0
        ):
            message.acknowledge()


class PlogReceiver:
    """One consumer-group member handing each record to ``on_delivery``.

    ``t_arrived`` is when the fetch response carrying the record landed at
    the consumer (the pull analogue of delivery time); ``t_received`` is
    stamped after the per-record processing CPU.  The first-delivery stamp
    makes redeliveries after a rebalance (at-least-once) count once; with a
    shared ``dedup`` index they are not counted as received at all —
    post-rebalance replay of records another member already processed (the
    idempotent-sink half of exactly-once).
    """

    def __init__(
        self,
        sim: "Simulator",
        cluster: "HydraCluster",
        deployment: "PlogDeployment",
        node_name: str,
        group: str = "grid.monitor",
        name: Optional[str] = None,
        dedup: Optional[DedupIndex] = None,
        on_delivery: Optional[OnDelivery] = None,
    ):
        self.sim = sim
        name = name or f"consumer.{node_name}"
        self.recorder = Recorder(sim, "plog", name, dedup=dedup)
        self.consumer = deployment.consumer(
            cluster.node(node_name),
            name,
            group,
            on_record=on_delivery or self.recorder,
        )

    @property
    def connections(self) -> int:
        consumer = self.consumer
        if consumer.closed:
            return 0
        return (consumer._coord is not None) + len(consumer._sessions)

    def start(self) -> None:
        """Spawn the consumer's group-membership process."""
        self.sim.process(self._run(), name=f"{self.consumer.name}.main")

    def _run(self) -> Generator[Any, Any, None]:
        try:
            yield from self.consumer.start()
        except (ChannelClosed, TransportError):
            return

    def stop(self) -> None:
        self.consumer.close()


class RgmaReceiver:
    """The paper's R-GMA subscriber: a 100 ms polling loop."""

    def __init__(
        self,
        sim: "Simulator",
        cluster: "HydraCluster",
        deployment: "RGMADeployment",
        node_name: str,
        select_sql: str = "SELECT * FROM gridmon",
        consumer_index: int = 0,
        producer_type: Optional[str] = None,
        poll_interval: float = 0.1,
        on_delivery: Optional[OnDelivery] = None,
    ):
        self.sim = sim
        self.client = deployment.consumer_client(
            cluster.node(node_name), consumer_index
        )
        self.select_sql = select_sql
        self.producer_type = producer_type
        self.poll_interval = poll_interval
        self.recorder = Recorder(sim, "rgma", "subscriber")
        self.on_delivery = on_delivery or self.recorder
        self.connected = False

    @property
    def connections(self) -> int:
        return int(self.connected)

    def start(self) -> Generator[Any, Any, None]:
        yield from self.client.create(
            self.select_sql, producer_type=self.producer_type
        )
        self.connected = True
        self.sim.process(self._poll(), name="rgma.subscriber")

    def _poll(self) -> Generator[Any, Any, None]:
        try:
            yield from self.client.poll_loop(self._on_tuple, self.poll_interval)
        except (RGMAException, TransportError):
            # The servlet is unreachable or the resource was torn down
            # mid-poll: the loop ends (a gateway re-subscribes when it
            # restarts).
            return

    def _on_tuple(self, t: Any) -> None:
        # A republished tuple (e.g. via a Secondary Producer) counts once.
        self.on_delivery(t, t.meta.get("t_poll_start", self.sim.now))

    def stop(self) -> None:
        self.connected = False
        self.client.stop()
