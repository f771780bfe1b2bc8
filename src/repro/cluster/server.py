"""The server process around a :class:`~repro.cluster.jvm.Jvm`.

Both of the paper's capacity walls are one mechanism — a JVM that accepts
a connection, charges it heap (and, thread-per-connection, a native stack)
and "ran out of memory to create new threads" (§III.E.2, §III.F.1).
:class:`JvmServer` is that process, written once for every broker that
lives in one: accept → charge per-connection heap → serve frames until EOF
→ release; a crash severs every accepted channel, a restart accepts again.
It is also the broker surface the fault injector drives (``name``,
``alive``, ``jvm``, ``node``, ``crash()``, ``restart()``).

Subclasses supply the protocol (:meth:`_handle`), what a disconnect tears
down (:meth:`_on_channel_closed`), what a crash loses besides its channels
(:meth:`_crashed`) and — when connections are not served by a thread each —
how an accepted channel is served (:meth:`_serve_channel`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.cluster.jvm import Jvm, OutOfMemoryError
from repro.telemetry.context import current as _telemetry
from repro.transport.base import EOF, Channel, ChannelClosed

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.sim.kernel import Simulator


class JvmServer:
    """One server process in a modelled JVM on one cluster node.

    ``config`` supplies the JVM budgets (``heap_bytes``,
    ``thread_stack_bytes``, ``native_budget_bytes``) and the per-connection
    charges (``per_connection_heap``, ``accept_cpu``); ``stats`` is the
    subclass's counter object and carries ``connections_accepted`` /
    ``connections_refused``.
    """

    #: Telemetry label of this middleware's hop marks.
    middleware = ""

    def __init__(
        self, sim: "Simulator", node: "Node", name: str, config: Any, stats: Any
    ):
        self.sim = sim
        self.node = node
        self.name = name
        self.config = config
        self.stats = stats
        self.jvm = Jvm(
            sim,
            node,
            f"{name}.jvm",
            heap_bytes=config.heap_bytes,
            thread_stack_bytes=config.thread_stack_bytes,
            native_budget_bytes=config.native_budget_bytes,
        )
        self.alive = True
        self.port: Optional[int] = None
        #: Currently-open accepted connections (drives scheduling overhead).
        self.open_connections = 0
        #: Accepted channels, tracked so a crash can sever them.
        self._client_channels: list[Channel] = []
        self.crashes = 0
        self.restarts = 0

    # ------------------------------------------------------------- serving
    def serve(self, transport: Any, port: int) -> None:
        """Start accepting connections on ``transport``/``port``."""
        self.port = port
        transport.listen(self.node, port, self._accept)

    def _accept(self, channel: Channel) -> None:
        """Transport acceptor; raising refuses the connection."""
        if not self.alive:
            self.stats.connections_refused += 1
            raise ChannelClosed(f"broker {self.name} is down")
        try:
            self.jvm.alloc(self.config.per_connection_heap, "connection state")
            self._serve_channel(channel)
        except OutOfMemoryError as exc:
            self.stats.connections_refused += 1
            raise ChannelClosed(f"broker {self.name} out of memory: {exc}") from exc
        self.stats.connections_accepted += 1
        self.open_connections += 1
        self._client_channels.append(channel)
        self.node.execute_process(self.config.accept_cpu)

    def _serve_channel(self, channel: Channel) -> None:
        """Serve an accepted channel: a dedicated JVM thread by default."""
        self.jvm.spawn_thread(
            self._connection_loop(channel), name=f"{self.name}.conn"
        )

    def _sched_overhead(self) -> float:
        """Per-message scheduling overhead growing with open connections."""
        return self.config.per_connection_cpu * self.open_connections

    def _connection_loop(
        self, channel: Channel, charged: bool = True
    ) -> Generator[Any, Any, None]:
        """Thread-per-connection service loop for one channel.

        ``charged=False`` marks a channel that never went through
        :meth:`_accept` (an inter-broker link, the connecting side of a
        tree link), so its EOF releases nothing.
        """
        while self.alive:
            delivery = yield channel.receive()
            if delivery.payload is EOF:
                self._disconnected(channel, charged)
                return
            if not self.alive:
                return  # crashed or shut down while parked in receive()
            yield from self.node.execute(
                channel.cost_model.recv_cost(delivery.nbytes)
            )
            yield from self._handle(channel, delivery.payload)

    def _disconnected(self, channel: Channel, charged: bool = True) -> None:
        """The one EOF path: release what :meth:`_accept` charged, forget
        the channel, then let the subclass tear down what hung off it."""
        if charged:
            self.jvm.free(self.config.per_connection_heap)
            self.open_connections -= 1
            try:
                self._client_channels.remove(channel)
            except ValueError:
                pass  # already severed by a crash
        self._on_channel_closed(channel)

    def _handle(self, channel: Channel, frame: tuple) -> Generator[Any, Any, None]:
        raise NotImplementedError  # pragma: no cover

    def _on_channel_closed(self, channel: Channel) -> None:
        """Subclass hook: ``channel`` saw EOF."""

    def _mark(self, message: Any, phase: str) -> None:
        """Stamp a broker hop on ``message``'s telemetry record, if any."""
        tel = _telemetry()
        if tel is None:
            return
        record = getattr(message, "_record", None)
        if record is not None:
            tel.mark(record, phase, self.sim.now, self.middleware, self.name)

    # ---------------------------------------------------------------- admin
    def shutdown(self) -> None:
        self.alive = False

    def crash(self) -> None:
        """Kill the process: refuse new connections, sever open ones.

        Each closed channel delivers an EOF through its normal service path
        (connection thread or shared queue), so heap accounting and teardown
        follow the clean-disconnect code — run by the dying threads, or by
        the restarted ones draining stale EOFs.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        for channel in list(self._client_channels):
            if not channel.closed:
                channel.close()
        self._client_channels.clear()
        self._crashed()

    def _crashed(self) -> None:
        """Subclass hook: drop the state that dies with the process."""

    def restart(self) -> None:
        """Bring a crashed server back up (the listener stays registered)."""
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        self._restarted()

    def _restarted(self) -> None:
        """Subclass hook: respawn the shared service threads, if any."""
