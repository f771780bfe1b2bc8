"""Edge clients: cursor-driven long-poll consumers with failover.

One :class:`EdgeClient` process stands for a *cohort* of ``weight`` real
clients (the gateway accounts parked memory per cohort weight), which is
what makes million-client populations simulable with bounded process
counts.  Every client counts its deliveries through a
:class:`~repro.core.records.Recorder` with its own ``(gen_id, seq)``
index; exactly one client per run is usually *stamping* — it writes
``t_arrived``/``t_received`` onto message records, so RTT percentiles come
from a real client clock while the rest of the population only exerts
load.

Recovery protocol (the reconnect-catch-up story):

* poll returns 204 after the gateway's 60 s park → re-poll with the same
  cursor; nothing can be missed, the ring holds the gap.
* request times out / connection dies / gateway refuses → fail over to the
  next gateway address with a *time* cursor (``catch_up_from`` = created
  time of the last delivered event); the new gateway replays its ring from
  that point minus a skew margin, and client-side ``(gen_id, seq)`` dedup
  makes the overlap exactly-once at the application layer.
* 503 → honour the jittered Retry-After.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.dedup import DedupIndex
from repro.core.records import Recorder, record_of
from repro.edge.config import EdgeConfig
from repro.transport.base import ChannelClosed, TransportError
from repro.transport.http import HttpClient, HttpTimeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.sim.kernel import Simulator


@dataclass
class EdgeClientStats:
    polls: int = 0
    empty_polls: int = 0
    timeouts: int = 0
    sheds: int = 0
    failovers: int = 0


class EdgeClient:
    """One (possibly cohort-weighted) long-polling subscriber."""

    def __init__(
        self,
        sim: "Simulator",
        transport: Any,
        node: "Node",
        gateway_addresses: list[tuple[str, int]],
        topic: str,
        config: Optional[EdgeConfig] = None,
        name: str = "edge-client",
        home: int = 0,
        weight: float = 1.0,
        stamping: bool = False,
        middleware_label: str = "edge",
        stop_at: Optional[float] = None,
        request_grace: float = 5.0,
        failover_backoff: float = 0.5,
    ):
        self.sim = sim
        self.transport = transport
        self.node = node
        self.gateway_addresses = list(gateway_addresses)
        self.topic = topic
        self.config = config or EdgeConfig()
        self.name = name
        self.weight = weight
        self.stop_at = stop_at
        self.request_grace = request_grace
        self.failover_backoff = failover_backoff
        self.stats = EdgeClientStats()
        self.gateway_index = home % len(self.gateway_addresses)
        self._http: Optional[HttpClient] = None
        self._cursor: Optional[tuple[str, int]] = None
        self._last_created: float = 0.0
        #: ``received``: unique events delivered to the application layer;
        #: ``redeliveries``: the cursor-overlap dedup's suppressions
        #: (expected > 0 across a failover; *not* an application-level
        #: duplicate); ``duplicates``: copies that escaped it (must stay 0).
        self.recorder = Recorder(
            sim, middleware_label, node.name, dedup=DedupIndex(),
            stamping=stamping,
        )

    def start(self) -> None:
        self.sim.process(self.run(), name=self.name)

    # ------------------------------------------------------------------- loop
    def run(self) -> Generator[Any, Any, None]:
        # Cover everything created from client start on: a failover before
        # the first delivery still catches up from here.
        self._last_created = self.sim.now
        while self.stop_at is None or self.sim.now < self.stop_at:
            if self._http is None:
                host, port = self.gateway_addresses[self.gateway_index]
                self._http = HttpClient(
                    self.sim, self.transport, self.node, host, port
                )
            # catch_up_from always rides along: if the cursor's epoch is
            # stale (gateway restarted under us between polls), the gateway
            # falls back to time-based replay instead of the ring tail.
            body: dict[str, Any] = {
                "topic": self.topic,
                "weight": self.weight,
                "catch_up_from": self._last_created,
            }
            if self._cursor is not None:
                body["cursor"] = self._cursor
            self.stats.polls += 1
            try:
                response = yield from self._http.request(
                    "/edge/poll",
                    body,
                    self.config.poll_request_bytes,
                    timeout=self.config.long_poll_timeout + self.request_grace,
                )
            except HttpTimeout:
                self.stats.timeouts += 1
                yield from self._failover()
                continue
            except (ChannelClosed, TransportError):
                yield from self._failover()
                continue
            if response.status == 503:
                self.stats.sheds += 1
                yield self.sim.timeout(response.body["retry_after"])
                continue
            if response.status == 204:
                self.stats.empty_polls += 1
                if response.body.get("cursor") is not None:
                    self._cursor = tuple(response.body["cursor"])
                continue
            if response.status != 200:
                yield self.sim.timeout(self.failover_backoff)
                continue
            self._cursor = tuple(response.body["cursor"])
            for payload in response.body["events"]:
                self._on_event(payload)

    def _failover(self) -> Generator[Any, Any, None]:
        """Switch to the next gateway with a time cursor."""
        self.stats.failovers += 1
        if self._http is not None:
            self._http.close()
            self._http = None
        self.gateway_index = (self.gateway_index + 1) % len(self.gateway_addresses)
        self._cursor = None  # foreign epoch — fall back to catch_up_from
        jitter = self.sim.rng.uniform(f"{self.name}.failover", 0.0, 0.25)
        yield self.sim.timeout(self.failover_backoff + jitter)

    # ------------------------------------------------------------------ sink
    def _on_event(self, payload: Any) -> None:
        if not self.recorder(payload, self.sim.now):
            return
        record = record_of(payload)
        if record is not None and record.t_before_send > self._last_created:
            self._last_created = record.t_before_send
