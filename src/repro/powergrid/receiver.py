"""Recording receivers.

"Another Java program received data from the middleware.  Information of
the monitoring data (such as sending and receiving time, etc) was dumped
into a local text file for later analysis" (§III.B).  The receivers stamp
``t_arrived`` / ``t_received`` on each message's record through
:meth:`~repro.core.records.MessageRecord.deliver`; the "text file" is the
shared :class:`~repro.core.records.RecordBook`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.dedup import DedupIndex
from repro.jms import AckMode
from repro.jms.destination import Topic
from repro.narada.client import narada_connection_factory
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


class NaradaReceiver:
    """One subscriber connection with a recording listener.

    With ``durable_name`` the subscription is durable: the broker retains
    delivered-but-unacked and offline messages for replay, and this side
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
        self.received = 0
        self.duplicates = 0
        #: Redeliveries the (gen_id, seq) index suppressed (durable mode).
        self.redeliveries = 0
        self.reconnects = 0
        self.crashes = 0
        self.connected = False
        self.stopped = False
        self._connection = None
        self._seen = DedupIndex()

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

        Severs the connection abruptly (no unsubscribe — the durable
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
        """Permanently shut the receiver down (ends the supervisor loop)."""
        self.stopped = True
        self.close()

    def _on_message(self, message: Any) -> None:
        record = getattr(message, "_record", None)
        if self.durable_name is not None and record is not None:
            # Exactly-once processing: replayed deliveries are acknowledged
            # (so the broker can settle its retention) but not re-counted.
            if not self._seen.mark(record.gen_id, record.seq):
                self.redeliveries += 1
                return
        self.received += 1
        # First delivery wins: a retried publish reaching a second
        # subscriber path counts once (the duplicate-% scorecard column).
        if record is not None and not record.deliver(
            getattr(message, "_t_arrived_client", self.sim.now),
            self.sim.now, "narada", self.node_name,
        ):
            self.duplicates += 1
        if (
            self.ack_mode == AckMode.CLIENT_ACKNOWLEDGE
            and self.received % self.client_ack_batch == 0
        ):
            message.acknowledge()


class PlogReceiver:
    """One consumer-group member with a recording record callback.

    ``t_arrived`` is when the fetch response carrying the record landed at
    the consumer (the pull analogue of delivery time); ``t_received`` is
    stamped after the per-record processing CPU.  The guard on
    ``t_received`` makes redeliveries after a rebalance (at-least-once)
    count once.
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
    ):
        self.sim = sim
        self.received = 0
        self.duplicates = 0
        #: Redeliveries suppressed by the shared ``(gen_id, seq)`` index —
        #: post-rebalance replay of records another member already
        #: processed (the idempotent-sink half of exactly-once).
        self.redeliveries = 0
        self._dedup = dedup
        self.consumer = deployment.consumer(
            cluster.node(node_name),
            name or f"consumer.{node_name}",
            group,
            on_record=self._on_record,
        )

    @property
    def connected(self) -> bool:
        return self.consumer._coord is not None and not self.consumer.closed

    def start(self) -> None:
        """Spawn the consumer's group-membership process."""
        self.sim.process(self._run(), name=f"{self.consumer.name}.main")

    def _run(self) -> Generator[Any, Any, None]:
        try:
            yield from self.consumer.start()
        except (ChannelClosed, TransportError):
            return

    def _on_record(self, value: Any, t_arrived: float) -> None:
        record = getattr(value, "_record", None)
        if self._dedup is not None and record is not None:
            if not self._dedup.mark(record.gen_id, record.seq):
                self.redeliveries += 1
                return
        self.received += 1
        if record is not None and not record.deliver(
            t_arrived, self.sim.now, "plog", self.consumer.name
        ):
            self.duplicates += 1


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
    ):
        self.sim = sim
        self.deployment = deployment
        self.client = deployment.consumer_client(
            cluster.node(node_name), consumer_index
        )
        self.select_sql = select_sql
        self.producer_type = producer_type
        self.poll_interval = poll_interval
        self.received = 0
        self.duplicates = 0
        self.connected = False

    def start(self) -> Generator[Any, Any, None]:
        yield from self.client.create(
            self.select_sql, producer_type=self.producer_type
        )
        self.connected = True
        self.sim.process(
            self.client.poll_loop(self._on_tuple, self.poll_interval),
            name="rgma.subscriber",
        )

    def _on_tuple(self, t: Any) -> None:
        self.received += 1
        record = t.meta.get("record")
        # A republished tuple (e.g. via a Secondary Producer) counts once.
        if record is not None and not record.deliver(
            t.meta.get("t_poll_start", self.sim.now),
            self.sim.now, "rgma", "subscriber",
        ):
            self.duplicates += 1

    def stop(self) -> None:
        self.client.stop()
