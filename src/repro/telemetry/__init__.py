"""repro.telemetry — tracing, metrics and resource sampling in one session.

The paper's contribution is its measurements, and its method is "identical
instrumentation on every middleware": the same record book, the same vmstat
loop, the same clock.  This package is that method as a subsystem.  One
:class:`Telemetry` session owns

* the per-message :class:`~repro.telemetry.spans.Span` of every observed
  run, bound from its record book (created/published/broker-in/broker-out/
  arrived/delivered — every phase is stamped on the message's own record),
* a :class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges
  and streaming histograms keyed by middleware/component,
* each run's :class:`~repro.cluster.vmstat.VmStat` node samples (the
  Figs 6/13 CPU-idle/memory methodology), read once the run has ended,
* the fault windows a :class:`repro.faults.FaultScheduler` armed, so
  exported spans carry fault annotations.

**Telemetry is off by default and has zero behavioural impact.**  Phase
marks are stamped on the message's record whether or not a session is
active (:meth:`repro.core.records.MessageRecord.mark`): they read sim
state but never mutate it or draw randomness, and they schedule no event.
Their cost is one small dict per marked record, ~370 B: on a
400-connection Narada run at bench scale, +2.7 % peak RSS and a few
percent of host CPU.  Metric hook sites guard on
:func:`repro.telemetry.context.current` returning ``None``; a session adds
only its counters, gauges and the spans it binds after a run, and the node
samples are the run's own, so a traced run schedules exactly the events an
untraced one does and measures the same numbers (asserted by
``tests/telemetry/test_spans.py`` and
``tests/harness/test_telemetry_integration.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.vmstat import VmStatSample
from repro.telemetry.context import activate, current, deactivate, session
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricKey,
    MetricsRegistry,
    geometric_buckets,
)
from repro.telemetry.merge import export_telemetry, merge_telemetry
from repro.telemetry.spans import PHASES, Span, bind_book, phase_breakdown
from repro.telemetry.windows import (
    TimeWindow,
    WindowedQuantiles,
    complement_windows,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.vmstat import VmStat
    from repro.core.records import RecordBook

__all__ = [
    "Counter",
    "FaultWindow",
    "Gauge",
    "Histogram",
    "MetricKey",
    "MetricsRegistry",
    "NodeSamples",
    "PHASES",
    "Span",
    "Telemetry",
    "TimeWindow",
    "WindowedQuantiles",
    "activate",
    "bind_book",
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


@dataclass
class NodeSamples:
    """One run's vmstat samples of one node, as plain picklable data."""

    node: str
    middleware: str
    interval: float
    samples: list[VmStatSample]
    #: Start of the run's steady-state window: the sampler summaries read
    #: CPU idle from here on, as ``RunResult.vmstat`` and Figs 6/13 do.
    measure_since: float = 0.0


class Telemetry:
    """One observation session, usually wrapping one or more harness runs."""

    def __init__(self, label: str = "telemetry"):
        self.label = label
        #: The spans of every observed run, in observation order.
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()
        #: The sampled nodes of every observed run, in observation order.
        self.node_samples: list[NodeSamples] = []
        #: Every fault window any run inside this session armed.
        self.fault_windows: list[FaultWindow] = []
        #: Windows armed since the last ``observe_run`` — runs are separate
        #: simulations whose clocks all start at zero, so windows only
        #: annotate the run they were armed in.
        self._pending_windows: list[FaultWindow] = []
        #: One summary dict per observed run, in observation order.
        self.runs: list[dict] = []

    # ---------------------------------------------------------------- faults
    def fault_window(
        self, kind: str, start: float, end: float, target: str
    ) -> None:
        """Register an armed fault's window (called by the scheduler)."""
        window = FaultWindow(kind, start, end, target)
        self.fault_windows.append(window)
        self._pending_windows.append(window)

    # ----------------------------------------------------------- node samples
    def observe_vmstat(
        self, vm: "VmStat", middleware: str, measure_since: float = 0.0
    ) -> None:
        """Keep a finished run's samples of one node (with the start of its
        steady-state window) and replay them all, in sample order, into its
        ``cpu_idle_percent`` and ``memory_used_bytes`` gauges."""
        node = vm.node.name
        samples = list(vm.samples)
        self.node_samples.append(
            NodeSamples(node, middleware, vm.interval, samples, measure_since)
        )
        if not samples:
            return
        idle = self.metrics.gauge(middleware, node, "cpu_idle_percent")
        memory = self.metrics.gauge(middleware, node, "memory_used_bytes")
        for sample in samples:
            idle.set(sample.cpu_idle_fraction * 100.0)
            memory.set(sample.memory_used_bytes)

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
        / ``plog_run``) when a session is active.  Every phase derives
        from the record book — the same data every paper metric uses — so
        span-based analyses agree exactly with the record-based ones.
        """
        spans = bind_book(book, middleware)
        self.spans.extend(spans)
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
