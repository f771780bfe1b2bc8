"""repro.telemetry — tracing, metrics and resource sampling in one session.

The paper's contribution is its measurements, and its method is "identical
instrumentation on every middleware": the same record book, the same vmstat
loop, the same clock.  This package is that method as a subsystem.  A
:class:`Telemetry` session observes **finished runs**.  It owns

* one :class:`ObservedRun` per run: its label, middleware,
  :class:`~repro.core.records.RecordBook`, measurement-window start, the
  fault windows of the plan it armed, and its
  :class:`~repro.cluster.vmstat.VmStat` node samples (the Figs 6/13
  CPU-idle/memory methodology).  The trace — span lines, fault-window
  lines, run summaries, sampler rows — is rendered from these when it is
  written (:mod:`repro.telemetry.exporters`): every phase of a message is
  stamped on its own record, so a span line is the record rendered;
* a :class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges
  and streaming histograms keyed by middleware/component.  Its hook-site
  instruments are the only thing a session collects live, because they
  have no record to be read from.

A harness point is observed one way whatever ``--jobs`` says:
:func:`repro.harness.parallel.map_points` runs it under a fresh session, in
process or in a worker, and the parent folds the sessions in point order
with :meth:`Telemetry.merge`.

**Telemetry is off by default and has zero behavioural impact.**  Phase
marks are stamped on the message's record whether or not a session is
active (:meth:`repro.core.records.MessageRecord.mark`): they read sim
state but never mutate it or draw randomness, and they schedule no event.
Their cost is one small dict per marked record, ~370 B: on a
400-connection Narada run at bench scale, +2.7 % peak RSS and a few
percent of host CPU.  Metric hook sites guard on
:func:`repro.telemetry.context.current` returning ``None``; a session adds
only its counters and gauges, and reads the book and node samples once the
run has ended, so a traced run schedules exactly the events an untraced
one does and measures the same numbers (asserted by
``tests/telemetry/test_spans.py`` and
``tests/harness/test_telemetry_integration.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable, Optional

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
from repro.telemetry.windows import (
    TimeWindow,
    WindowedQuantiles,
    complement_windows,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.vmstat import VmStat
    from repro.core.records import RecordBook
    from repro.faults.plan import FaultSpec

__all__ = [
    "Counter",
    "FaultWindow",
    "Gauge",
    "Histogram",
    "MetricKey",
    "MetricsRegistry",
    "NodeSamples",
    "ObservedRun",
    "Telemetry",
    "TimeWindow",
    "WindowedQuantiles",
    "activate",
    "complement_windows",
    "current",
    "deactivate",
    "geometric_buckets",
    "session",
]


@dataclass(frozen=True)
class FaultWindow:
    """One armed fault's (kind, time window, target) for span annotation."""

    kind: str
    start: float
    end: float
    target: str

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.target}"

    def overlaps(self, start: float, end: float) -> bool:
        return self.start < end and start < self.end

    def to_dict(self) -> dict:
        return asdict(self)


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


@dataclass
class ObservedRun:
    """One finished run, as a session keeps it."""

    label: str
    middleware: str
    book: "RecordBook"
    measure_since: float
    #: The windows of the fault plan the run armed, in plan order.  Runs
    #: are separate simulations whose clocks all start at zero, so a
    #: window annotates only the run that armed it.
    fault_windows: list[FaultWindow]
    node_samples: list[NodeSamples]

    def summary(self) -> dict:
        """The run's line in the trace header and the metrics JSON."""
        return {
            "label": self.label,
            "middleware": self.middleware,
            "spans": len(self.book),
            "delivered": sum(
                1 for r in self.book.after(self.measure_since).records
                if r.delivered
            ),
            "measure_since": self.measure_since,
            "fault_windows": [w.to_dict() for w in self.fault_windows],
        }


class Telemetry:
    """One observation session, usually wrapping one or more harness runs."""

    def __init__(self, label: str = "telemetry"):
        self.label = label
        self.metrics = MetricsRegistry()
        #: Every observed run, in observation (for a sweep: point) order.
        self.runs: list[ObservedRun] = []

    @property
    def node_samples(self) -> list[NodeSamples]:
        """The sampled nodes of every observed run, in observation order."""
        return [s for run in self.runs for s in run.node_samples]

    def observe(
        self,
        label: str,
        middleware: str,
        book: "RecordBook",
        measure_since: float = 0.0,
        plan: Optional[Iterable["FaultSpec"]] = None,
        vmstats: Iterable[tuple["VmStat", str]] = (),
    ) -> None:
        """Keep a finished run and roll it up into the harness metrics.

        ``plan`` is the fault plan the run armed (``None`` for none);
        ``vmstats`` pairs each sampled node's :class:`VmStat` with the
        middleware label it reports under.  Each node's samples replay, in
        sample order, into its ``cpu_idle_percent`` and
        ``memory_used_bytes`` gauges; the measurement window's records
        feed the ``harness`` counters and the ``rtt_ms`` histogram.
        """
        run = ObservedRun(
            label,
            middleware,
            book,
            measure_since,
            [FaultWindow(s.kind, s.at, s.until, s.target) for s in plan or ()],
            [
                NodeSamples(
                    vm.node.name, node_middleware, vm.interval,
                    list(vm.samples), measure_since,
                )
                for vm, node_middleware in vmstats
            ],
        )
        self.runs.append(run)
        metrics = self.metrics
        for node in run.node_samples:
            if not node.samples:
                continue
            idle = metrics.gauge(node.middleware, node.node, "cpu_idle_percent")
            memory = metrics.gauge(
                node.middleware, node.node, "memory_used_bytes"
            )
            for sample in node.samples:
                idle.set(sample.cpu_idle_fraction * 100.0)
                memory.set(sample.memory_used_bytes)
        window = book.after(measure_since).records
        delivered = [r for r in window if r.delivered]
        metrics.counter(middleware, "harness", "messages_sent").inc(len(window))
        metrics.counter(middleware, "harness", "messages_delivered").inc(
            len(delivered)
        )
        rtt = metrics.histogram(middleware, "harness", "rtt_ms")
        for record in delivered:
            rtt.observe(record.rtt * 1e3)

    def merge(self, other: "Telemetry") -> None:
        """Fold ``other`` — one sweep point's session — into this one: its
        runs follow ours, and its instruments merge into ours
        (:meth:`MetricsRegistry.merge_from`).  ``other`` is not used
        again."""
        self.runs.extend(other.runs)
        self.metrics.merge_from(other.metrics)
