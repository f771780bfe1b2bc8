"""repro.telemetry — tracing, metrics and resource sampling in one session.

The paper's contribution is its measurements, and its method is "identical
instrumentation on every middleware": the same record book, the same vmstat
loop, the same clock.  This package is that method as a subsystem.  One
:class:`Telemetry` session owns

* a :class:`~repro.telemetry.spans.Tracer` of per-message spans with phase
  boundaries (created/published/broker-in/broker-out/arrived/delivered),
* a :class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges
  and streaming histograms keyed by middleware/component,
* :class:`~repro.telemetry.samplers.ResourceSampler` probes replicating the
  Figs 6/13 CPU-idle/memory methodology,
* the fault windows a :class:`repro.faults.FaultScheduler` armed, so
  exported spans carry fault annotations.

**Telemetry is off by default and has zero behavioural impact.**  Hook
sites guard on :func:`repro.telemetry.context.current` returning ``None``;
no session means no extra events, no extra allocations, bit-identical
experiment outputs.  Activating a session adds passive observation only —
marks and samplers read sim state but never mutate it or draw randomness —
so measured numbers are unchanged even when tracing is on (asserted by
``tests/telemetry/test_spans.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.telemetry.context import activate, current, deactivate, session
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricKey,
    MetricsRegistry,
    geometric_buckets,
)
from repro.telemetry.merge import (
    ImportedSampler,
    export_telemetry,
    merge_telemetry,
)
from repro.telemetry.samplers import ResourceSample, ResourceSampler
from repro.telemetry.spans import PHASES, Span, Tracer, phase_breakdown
from repro.telemetry.windows import (
    TimeWindow,
    WindowedQuantiles,
    complement_windows,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.core.records import RecordBook
    from repro.sim.kernel import Simulator

__all__ = [
    "Counter",
    "FaultWindow",
    "Gauge",
    "Histogram",
    "ImportedSampler",
    "MetricKey",
    "MetricsRegistry",
    "PHASES",
    "ResourceSample",
    "ResourceSampler",
    "Span",
    "Telemetry",
    "TimeWindow",
    "Tracer",
    "WindowedQuantiles",
    "activate",
    "complement_windows",
    "current",
    "deactivate",
    "export_telemetry",
    "geometric_buckets",
    "merge_telemetry",
    "phase_breakdown",
    "session",
]


class FaultWindow:
    """One armed fault's (kind, time window, target) for span annotation."""

    __slots__ = ("kind", "start", "end", "target")

    def __init__(self, kind: str, start: float, end: float, target: str):
        self.kind = kind
        self.start = start
        self.end = end
        self.target = target

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.target}"

    def overlaps(self, start: float, end: float) -> bool:
        return self.start < end and start < self.end

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "target": self.target,
        }


class Telemetry:
    """One observation session, usually wrapping one or more harness runs."""

    def __init__(self, label: str = "telemetry"):
        self.label = label
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.samplers: list[ResourceSampler] = []
        #: Every fault window any run inside this session armed.
        self.fault_windows: list[FaultWindow] = []
        #: Windows armed since the last ``observe_run`` — runs are separate
        #: simulations whose clocks all start at zero, so windows only
        #: annotate the run they were armed in.
        self._pending_windows: list[FaultWindow] = []
        #: One summary dict per observed run, in observation order.
        self.runs: list[dict] = []

    # ----------------------------------------------------------------- marks
    def mark(
        self,
        record: Any,
        phase: str,
        t: float,
        middleware: str,
        component: str,
    ) -> None:
        """Live phase mark from a middleware hook (plus a phase counter)."""
        self.tracer.mark(record, phase, t, component)
        self.metrics.counter(middleware, component, f"span.{phase}").inc()

    # ---------------------------------------------------------------- faults
    def fault_window(
        self, kind: str, start: float, end: float, target: str
    ) -> None:
        """Register an armed fault's window (called by the scheduler)."""
        window = FaultWindow(kind, start, end, target)
        self.fault_windows.append(window)
        self._pending_windows.append(window)

    # -------------------------------------------------------------- samplers
    def sample_node(
        self,
        sim: "Simulator",
        node: "Node",
        middleware: str,
        interval: float = 1.0,
    ) -> ResourceSampler:
        """Attach a Figs 6/13-style CPU/memory probe to ``node``."""
        sampler = ResourceSampler(
            sim,
            node,
            registry=self.metrics,
            middleware=middleware,
            interval=interval,
        )
        self.samplers.append(sampler)
        return sampler

    # ------------------------------------------------------------------ runs
    def observe_run(
        self,
        book: "RecordBook",
        middleware: str,
        measure_since: float = 0.0,
        label: str = "",
    ) -> list[Span]:
        """Bind a finished run's record book into spans and roll up metrics.

        Called by the harness run functions (``narada_run`` / ``rgma_run``
        / ``plog_run``) when a session is active.  Endpoint phases derive
        from the record book — the same data every paper metric uses — so
        span-based analyses agree exactly with the record-based ones.
        """
        spans = self.tracer.bind_book(book, middleware)
        for window in self._pending_windows:
            for span in spans:
                start = span.phases["created"]
                end = span.phases.get("delivered", float("inf"))
                if window.overlaps(start, end):
                    span.annotations.append(window.label)
        windows, self._pending_windows = self._pending_windows, []

        harness = self.metrics
        harness.counter(middleware, "harness", "messages_sent").inc(
            sum(1 for s in spans if s.phases["created"] >= measure_since)
        )
        delivered = [
            s
            for s in spans
            if "delivered" in s.phases and s.phases["created"] >= measure_since
        ]
        harness.counter(middleware, "harness", "messages_delivered").inc(
            len(delivered)
        )
        rtt = harness.histogram(middleware, "harness", "rtt_ms")
        for span in delivered:
            rtt.observe(span.rtt * 1e3)
        self.runs.append(
            {
                "label": label or f"{middleware} run {len(self.runs)}",
                "middleware": middleware,
                "spans": len(spans),
                "delivered": len(delivered),
                "measure_since": measure_since,
                "fault_windows": [w.to_dict() for w in windows],
            }
        )
        return spans

    def spans_for_book(self, book: "RecordBook") -> list[Span]:
        return self.tracer.spans_for_book(book)
