"""Java Message Service (JMS 1.1) API model.

"JMS defines a set of Java APIs ... with which Java programmers can send and
receive messages via MOM in a uniform and vendor-neutral way regardless of
what the actual underlying middleware is" (paper §II.B).  This package is
that API surface, in Python: message types (the paper's workload uses
``MapMessage``), destinations, sessions with the standard acknowledgement
modes, producers/publishers, consumers/subscribers with synchronous receive
and asynchronous listeners, and a complete SQL-92 message-selector engine
(the paper's subscribers use the selector ``"id<10000"``).

The API is provider-neutral: it talks to any object implementing
:class:`repro.jms.session.Provider` — :mod:`repro.narada` supplies the
broker-backed implementation.
"""

from repro.jms.errors import (
    IllegalStateException,
    InvalidDestinationException,
    InvalidSelectorException,
    JMSException,
    MessageFormatException,
)
from repro.jms.message import (
    BytesMessage,
    DeliveryMode,
    MapMessage,
    Message,
    ObjectMessage,
    TextMessage,
)
from repro.jms.destination import Destination, Queue, Topic
from repro.jms.selector import Selector
from repro.jms.session import AckMode, Session
from repro.jms.connection import Connection, ConnectionFactory
from repro.jms.producer import MessageProducer, TopicPublisher
from repro.jms.consumer import MessageConsumer, TopicSubscriber

__all__ = [
    "AckMode",
    "BytesMessage",
    "Connection",
    "ConnectionFactory",
    "DeliveryMode",
    "Destination",
    "IllegalStateException",
    "InvalidDestinationException",
    "InvalidSelectorException",
    "JMSException",
    "MapMessage",
    "Message",
    "MessageConsumer",
    "MessageFormatException",
    "MessageProducer",
    "ObjectMessage",
    "Queue",
    "Selector",
    "Session",
    "TextMessage",
    "Topic",
    "TopicPublisher",
    "TopicSubscriber",
]
