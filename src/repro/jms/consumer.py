"""Message consumers: synchronous receive and asynchronous listeners.

"For synchronous transfer, the subscriber can either poll or wait for the
next message.  For asynchronous delivery, the subscriber registers itself as
a listening object, and the publisher will automatically send message by
invoking a method of the subscriber (callback)" (paper §II.B).  The paper's
receiving program uses the asynchronous path ("JMS notification mechanism").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.jms.destination import Destination, Topic
from repro.jms.errors import IllegalStateException, InvalidDestinationException
from repro.jms.message import Message
from repro.jms.selector import parse_selector
from repro.sim import Store, TimedOut

if TYPE_CHECKING:  # pragma: no cover
    from repro.jms.session import Session


class MessageConsumer:
    """Receives messages from one destination, optionally filtered."""

    def __init__(
        self,
        session: "Session",
        destination: Destination,
        selector_text: Optional[str] = None,
        listener: Optional[Callable[[Message], Any]] = None,
    ):
        self.session = session
        self.destination = destination
        self.selector = parse_selector(selector_text)  # validates eagerly
        self.selector_text = selector_text
        self.listener = listener
        self.closed = False
        self.messages_consumed = 0
        self._inbox: Store = Store(session.sim)
        self._handle: Any = None

    # ---------------------------------------------------------- registration
    def _register(self) -> Generator[Any, Any, None]:
        """Subscribe with the provider (network round trip)."""

        def deliver(message: Message) -> None:
            self.session.connection._route_delivery(self.session, self, message)

        self._handle = yield from self.session.connection.provider.subscribe(
            self.destination,
            self.selector_text,
            deliver,
            durable_name=getattr(self, "durable_name", None),
        )

    # -------------------------------------------------------------- receive
    def receive(
        self, timeout: Optional[float] = None
    ) -> Generator[Any, Any, Optional[Message]]:
        """Block for the next message; ``timeout`` seconds → None on expiry.

        ``timeout=0`` is the JMS ``receiveNoWait``.  An expired message is
        acked away unseen and the wait goes on until the original deadline.
        """
        if self.closed:
            raise IllegalStateException("consumer is closed")
        if self.listener is not None:
            raise IllegalStateException("receive() on a consumer with a listener")
        sim = self.session.sim
        deadline = None if timeout is None else sim.now + timeout
        remaining = timeout
        while True:
            if timeout == 0:
                if not len(self._inbox):
                    return None
                message = self._inbox.get_nowait()
            else:
                get_ev = self._inbox.get()
                if remaining is None:
                    message = yield get_ev
                else:
                    try:
                        message = yield from sim.wait_for(get_ev, remaining)
                    except TimedOut:
                        self._inbox.cancel_get(get_ev)
                        return None
            if not (yield from self.session._expired(message)):
                break
            if deadline is not None:
                remaining = max(0.0, deadline - sim.now)
        message._set_read_only()
        self.messages_consumed += 1
        yield from self.session._after_consume(message)
        return message

    # ------------------------------------------------------------- listener
    def set_listener(self, listener: Callable[[Message], Any]) -> None:
        """Switch to asynchronous delivery.  Pending inbox messages are
        re-dispatched through the session's serial dispatcher."""
        self.listener = listener
        while len(self._inbox):
            message = self._inbox.get_nowait()
            self.session._dispatch_queue.put_nowait((self, message))

    # ----------------------------------------------------------------- close
    def close(self) -> Generator[Any, Any, None]:
        if self.closed:
            return
        self.closed = True
        if self._handle is not None:
            yield from self.session.connection.provider.unsubscribe(self._handle)


class TopicSubscriber(MessageConsumer):
    """javax.jms.TopicSubscriber, optionally durable."""

    def __init__(
        self,
        session: "Session",
        topic: Topic,
        selector_text: Optional[str] = None,
        listener: Optional[Callable[[Message], Any]] = None,
        durable_name: Optional[str] = None,
    ):
        if not isinstance(topic, Topic):
            raise InvalidDestinationException(f"{topic!r} is not a Topic")
        self.durable_name = durable_name
        super().__init__(session, topic, selector_text, listener)

    @property
    def topic(self) -> Topic:
        assert isinstance(self.destination, Topic)
        return self.destination

    @property
    def durable(self) -> bool:
        return self.durable_name is not None
