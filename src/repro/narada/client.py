"""Client-side Narada runtime: the JMS Provider implementation.

One provider per JMS connection.  A reader process on the client node
receives broker pushes, charges receive CPU and fans messages out to the
registered subscription callbacks; that hand-off instant is stamped on the
message (``_t_arrived_client``) so the harness can decompose RTT into the
paper's PRT / PT / SRT phases (Fig 15).
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.jms.destination import Destination
from repro.jms.errors import JMSException
from repro.narada.config import NaradaConfig
from repro.transport.base import EOF, Channel, ChannelClosed, MessageLost

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.sim.kernel import Simulator

_provider_ids = count(1)


class NaradaProvider:
    """Implements :class:`repro.jms.session.Provider` over a broker channel."""

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        channel: Channel,
        config: Optional[NaradaConfig] = None,
    ):
        self.sim = sim
        self.node = node
        self.channel = channel
        self.config = config or NaradaConfig()
        self.name = f"narada-client-{next(_provider_ids)}"
        self._sub_seq = count(1)
        self._subscriptions: dict[str, Callable[[Any], None]] = {}
        self._pending_subscribes: dict[str, Any] = {}
        self.messages_lost = 0
        self.closed = False
        self._reader = sim.process(self._read_loop(), name=f"{self.name}.reader")

    # ----------------------------------------------------------- provider API
    def publish(self, message: Any) -> Generator[Any, Any, None]:
        nbytes = message.wire_size() + self.config.frame_overhead_bytes
        try:
            yield from self.channel.send(("publish", message), nbytes)
        except MessageLost:
            self.messages_lost += 1

    def subscribe(
        self,
        destination: Destination,
        selector_text: Optional[str],
        deliver: Callable[[Any], None],
        durable_name: Optional[str] = None,
    ) -> Generator[Any, Any, str]:
        sub_id = durable_name or f"{self.name}.sub{next(self._sub_seq)}"
        if sub_id in self._subscriptions:
            raise JMSException(f"duplicate durable subscription {sub_id!r}")
        self._subscriptions[sub_id] = deliver
        confirm = self.sim.event()
        self._pending_subscribes[sub_id] = confirm
        yield from self.channel.send(
            ("subscribe", sub_id, destination, selector_text, durable_name is not None),
            self.config.control_bytes,
        )
        yield confirm  # broker round trip — subscription is live after this
        if self.channel.closed and sub_id in self._subscriptions:
            # The reader saw EOF before the broker confirmed: the confirm
            # event was released so we don't park forever, but the
            # subscription never went live.
            self._subscriptions.pop(sub_id, None)
            raise ChannelClosed(f"broker connection lost during subscribe {sub_id!r}")
        return sub_id

    def unsubscribe(self, handle: str) -> Generator[Any, Any, None]:
        self._subscriptions.pop(handle, None)
        try:
            yield from self.channel.send(
                ("unsubscribe", handle), self.config.control_bytes
            )
        except (MessageLost, ChannelClosed):
            pass

    def ack(self, messages: list) -> Generator[Any, Any, None]:
        if not messages or self.closed:
            return
        # Per-subscription counts let the broker settle durable retention
        # (frame *content* only — the wire cost stays ``control_bytes``).
        per_sub: dict[str, int] = {}
        for message in messages:
            sub_id = getattr(message, "_sub_id", None)
            if sub_id is not None:
                per_sub[sub_id] = per_sub.get(sub_id, 0) + 1
        try:
            yield from self.channel.send(
                ("ack", len(messages), per_sub), self.config.control_bytes
            )
        except (MessageLost, ChannelClosed):
            pass

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.channel.close()

    # ---------------------------------------------------------------- reader
    def _read_loop(self) -> Generator[Any, Any, None]:
        while True:
            delivery = yield self.channel.receive()
            payload = delivery.payload
            if payload is EOF:
                # Release any subscriber parked on a confirm round trip so
                # it can observe the dead channel and retry elsewhere.
                pending, self._pending_subscribes = self._pending_subscribes, {}
                for confirm in pending.values():
                    if not confirm.triggered:
                        confirm.succeed()
                return
            yield from self.node.execute(
                self.channel.cost_model.recv_cost(delivery.nbytes)
            )
            kind = payload[0]
            if kind == "deliver":
                _, sub_id, message = payload
                handler = self._subscriptions.get(sub_id)
                if handler is None:
                    continue  # unsubscribed while in flight
                # Arrival = the instant the bytes reached this host; the
                # receive CPU charge and session dispatch above/after it are
                # part of the Subscribing Response Time (paper Fig 15).
                message._t_arrived_client = delivery.delivered_at
                message._sub_id = sub_id
                handler(message)
            elif kind == "subscribed":
                confirm = self._pending_subscribes.pop(payload[1], None)
                if confirm is not None:
                    confirm.succeed()
            else:
                raise JMSException(f"unexpected frame from broker: {kind!r}")


def narada_connection_factory(
    sim: "Simulator",
    transport: Any,
    client_node: "Node",
    broker_host: str,
    port: int,
    config: Optional[NaradaConfig] = None,
):
    """A :class:`repro.jms.ConnectionFactory` for the given broker address."""
    from repro.jms.connection import ConnectionFactory

    def provider_factory() -> Generator[Any, Any, NaradaProvider]:
        channel = yield from transport.connect(client_node, broker_host, port)
        return NaradaProvider(sim, client_node, channel, config)

    return ConnectionFactory(provider_factory)
