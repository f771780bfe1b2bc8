"""JMS sessions: acknowledgement modes, transactions, serial dispatch.

The paper's tests ran "non-persistent delivery, non-durable subscription,
non-transaction, non-priority and AUTO_ACKNOWLEDGE settings unless otherwise
indicated" (§III.E), with test 2 switching to CLIENT_ACKNOWLEDGE.  Ack
behaviour is therefore a first-class experimental variable here:

* ``AUTO_ACKNOWLEDGE`` — the session acks each message right after its
  listener/receive completes (one ack message per data message);
* ``CLIENT_ACKNOWLEDGE`` — the application calls ``Message.acknowledge()``,
  which acks *all* messages consumed so far on the session (batching);
* ``DUPS_OK_ACKNOWLEDGE`` — the session acks lazily in fixed-size batches;
* ``SESSION_TRANSACTED`` — sends are buffered and consumed messages acked
  only at ``commit()``.

A session dispatches asynchronously-consumed messages serially (one
dispatcher process per session), matching the JMS single-threaded session
rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Protocol

from repro.jms.destination import Destination, Queue, Topic
from repro.jms.errors import IllegalStateException, JMSException
from repro.jms.message import Message
from repro.sim import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.jms.connection import Connection
    from repro.jms.consumer import MessageConsumer
    from repro.jms.producer import MessageProducer
    from repro.sim.kernel import Simulator


class AckMode:
    """javax.jms.Session acknowledgement-mode constants."""

    SESSION_TRANSACTED = 0
    AUTO_ACKNOWLEDGE = 1
    CLIENT_ACKNOWLEDGE = 2
    DUPS_OK_ACKNOWLEDGE = 3


class Provider(Protocol):
    """What a JMS provider (broker client runtime) must implement."""

    sim: "Simulator"

    def publish(self, message: Message) -> Generator[Any, Any, None]:
        """Deliver a message to the middleware."""
        ...  # pragma: no cover

    def subscribe(
        self,
        destination: Destination,
        selector_text: Optional[str],
        deliver: Callable[[Message], None],
        durable_name: Optional[str] = None,
    ) -> Generator[Any, Any, Any]:
        """Register a subscription; returns an opaque handle."""
        ...  # pragma: no cover

    def unsubscribe(self, handle: Any) -> Generator[Any, Any, None]:
        ...  # pragma: no cover

    def ack(self, messages: list[Message]) -> Generator[Any, Any, None]:
        """Acknowledge consumed messages to the middleware."""
        ...  # pragma: no cover

    def close(self) -> None:
        ...  # pragma: no cover


class Session:
    """A single-threaded context for producing and consuming messages."""

    #: DUPS_OK lazy-ack batch size.
    DUPS_OK_BATCH = 20

    def __init__(self, connection: "Connection", transacted: bool, ack_mode: int):
        if transacted:
            ack_mode = AckMode.SESSION_TRANSACTED
        if ack_mode not in (
            AckMode.SESSION_TRANSACTED,
            AckMode.AUTO_ACKNOWLEDGE,
            AckMode.CLIENT_ACKNOWLEDGE,
            AckMode.DUPS_OK_ACKNOWLEDGE,
        ):
            raise JMSException(f"invalid ack mode {ack_mode}")
        self.connection = connection
        self.transacted = transacted
        self.ack_mode = ack_mode
        self.closed = False
        self.sim = connection.provider.sim
        self.consumers: list["MessageConsumer"] = []
        self.producers: list["MessageProducer"] = []
        # Messages delivered but not yet acked (CLIENT / DUPS_OK / transacted).
        self._unacked: list[Message] = []
        # Buffered outbound messages (transacted sessions only).
        self._tx_sends: list[Message] = []
        # Serial dispatch queue for async consumers.
        self._dispatch_queue: Store = Store(self.sim)
        self._dispatcher = self.sim.process(self._dispatch_loop(), name="jms.session")

    # ------------------------------------------------------------ factories
    def create_producer(self, destination: Optional[Destination]) -> "MessageProducer":
        from repro.jms.producer import MessageProducer

        self._check_open()
        producer = MessageProducer(self, destination)
        self.producers.append(producer)
        return producer

    def create_publisher(self, topic: Topic) -> "TopicPublisherType":
        from repro.jms.producer import TopicPublisher

        self._check_open()
        publisher = TopicPublisher(self, topic)
        self.producers.append(publisher)
        return publisher

    def create_consumer(
        self,
        destination: Destination,
        selector: Optional[str] = None,
        listener: Optional[Callable[[Message], Any]] = None,
    ) -> Generator[Any, Any, "MessageConsumer"]:
        """Create (and register with the provider) a consumer.

        A generator: subscription registration is a network operation.
        """
        from repro.jms.consumer import MessageConsumer

        self._check_open()
        consumer = MessageConsumer(self, destination, selector, listener)
        yield from consumer._register()
        self.consumers.append(consumer)
        return consumer

    def create_subscriber(
        self,
        topic: Topic,
        selector: Optional[str] = None,
        listener: Optional[Callable[[Message], Any]] = None,
        durable_name: Optional[str] = None,
    ) -> Generator[Any, Any, "TopicSubscriberType"]:
        from repro.jms.consumer import TopicSubscriber

        self._check_open()
        subscriber = TopicSubscriber(self, topic, selector, listener, durable_name)
        yield from subscriber._register()
        self.consumers.append(subscriber)
        return subscriber

    # ------------------------------------------------------------- ids/time
    def next_message_id(self) -> str:
        """Connection-scoped: JMS message ids must be unique across sessions
        (brokers deduplicate routed events by id)."""
        return self.connection.next_message_id()

    # ---------------------------------------------------------------- sends
    def _send(self, message: Message) -> Generator[Any, Any, None]:
        self._check_open()
        if self.transacted:
            self._tx_sends.append(message)
            return
        yield from self.connection.provider.publish(message)

    # ------------------------------------------------------------- delivery
    def _on_delivery(self, consumer: "MessageConsumer", message: Message) -> None:
        """Provider push: enqueue for serial dispatch (async) or park in the
        consumer inbox (sync receive)."""
        if self.closed:
            return
        message._ack_session = self
        if consumer.listener is not None:
            self._dispatch_queue.put_nowait((consumer, message))
        else:
            consumer._inbox.put_nowait(message)

    def _dispatch_loop(self) -> Generator[Any, Any, None]:
        while True:
            consumer, message = yield self._dispatch_queue.get()
            if self.closed:
                return
            if (yield from self._expired(message)):
                continue
            message._set_read_only()
            result = consumer.listener(message)
            if hasattr(result, "send") and hasattr(result, "throw"):
                yield from result  # listener did simulated work
            consumer.messages_consumed += 1
            yield from self._after_consume(message)

    def _expired(self, message: Message) -> Generator[Any, Any, bool]:
        """The one expiry rule of both delivery paths: a message whose
        time-to-live ran out before the application saw it is dropped per
        JMS, but still acked away so the provider does not redeliver it."""
        if not (message.expiration and self.sim.now > message.expiration):
            return False
        yield from self._after_consume(message)
        return True

    def _after_consume(self, message: Message) -> Generator[Any, Any, None]:
        # Acks are posted without gating the session dispatcher: the ack is
        # a protocol write, and waiting a full (possibly retransmitted) ack
        # round trip here would stall delivery of every queued message.
        if self.ack_mode == AckMode.AUTO_ACKNOWLEDGE:
            self.sim.process(
                self.connection.provider.ack([message]), name="jms.auto-ack"
            )
        elif self.ack_mode == AckMode.DUPS_OK_ACKNOWLEDGE:
            self._unacked.append(message)
            if len(self._unacked) >= self.DUPS_OK_BATCH:
                batch, self._unacked = self._unacked, []
                self.sim.process(
                    self.connection.provider.ack(batch), name="jms.dupsok-ack"
                )
        else:  # CLIENT_ACKNOWLEDGE or transacted: application/commit acks
            self._unacked.append(message)
        if False:  # pragma: no cover - keep generator shape for callers
            yield

    # -------------------------------------------------------- client ack/tx
    def _acknowledge_up_to(self, message: Message) -> None:
        """CLIENT_ACKNOWLEDGE: ack everything consumed so far (fire & forget)."""
        if self.ack_mode != AckMode.CLIENT_ACKNOWLEDGE:
            return
        if not self._unacked:
            return
        batch, self._unacked = self._unacked, []
        provider = self.connection.provider
        self.sim.process(provider.ack(batch), name="jms.client-ack")

    def commit(self) -> Generator[Any, Any, None]:
        self._check_open()
        if not self.transacted:
            raise IllegalStateException("commit() on non-transacted session")
        sends, self._tx_sends = self._tx_sends, []
        for message in sends:
            yield from self.connection.provider.publish(message)
        if self._unacked:
            batch, self._unacked = self._unacked, []
            yield from self.connection.provider.ack(batch)

    def rollback(self) -> Generator[Any, Any, None]:
        self._check_open()
        if not self.transacted:
            raise IllegalStateException("rollback() on non-transacted session")
        self._tx_sends.clear()
        # Redeliver consumed-but-uncommitted messages.
        redeliveries, self._unacked = self._unacked, []
        for message in redeliveries:
            message.redelivered = True
            for consumer in self.consumers:
                if consumer.destination == message.destination:
                    self._on_delivery(consumer, message)
                    break
        if False:  # pragma: no cover - keep generator shape
            yield

    def recover(self) -> None:
        """Non-transacted redelivery of unacked messages (CLIENT mode)."""
        if self.transacted:
            raise IllegalStateException("recover() on transacted session")
        redeliveries, self._unacked = self._unacked, []
        for message in redeliveries:
            message.redelivered = True
            for consumer in self.consumers:
                if consumer.destination == message.destination:
                    self._on_delivery(consumer, message)
                    break

    # ----------------------------------------------------------------- close
    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        # Wake the dispatcher so it can exit.
        self._dispatch_queue.put_nowait((None, None))
        for consumer in self.consumers:
            consumer.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise IllegalStateException("session is closed")


# typing aliases used in signatures above (avoid import cycles at runtime)
TopicPublisherType = Any
TopicSubscriberType = Any
