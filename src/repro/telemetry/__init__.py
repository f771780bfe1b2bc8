"""repro.telemetry — tracing, metrics and resource sampling read off runs.

The paper's contribution is its measurements, and its method is "identical
instrumentation on every middleware", read after the run: the receiver
"dumped [sending and receiving time, etc] into a local text file for later
analysis" (§III.B) and ``vmstat`` ran beside every system (§III.C).  This
package is that method as a subsystem.  A :class:`Telemetry` session is a
pure function of the finished runs handed to it: it keeps each
:class:`~repro.harness.pipeline.RunResult` — label, middleware,
:class:`~repro.core.records.RecordBook`, measurement-window start, the
fault specs the run armed and its raw
:class:`~repro.cluster.vmstat.NodeSamples` (the Figs 6/13 CPU-idle/memory
methodology) — and rolls each into a
:class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges and
streaming histograms keyed by middleware/component.  The trace — span
lines, fault-window lines, run summaries, sampler rows — is rendered from
the kept results when it is written (:mod:`repro.telemetry.exporters`):
every phase of a message is stamped on its own record, so a span line is
the record rendered.

The harness hands a session every run of every sweep it reads
(:meth:`repro.harness.registry.RunContext.sweep`, under
``runner.run(telemetry=)``), in point order, wherever the run came from:
simulated in process, in a ``--jobs`` worker, or unpickled from the sweep
cache.  Model code imports nothing from this package: a phase mark is
stamped on the message's record, and tallied on its book
(:meth:`repro.core.records.MessageRecord.mark`), whether or not anyone
reads it.  Marks read sim state but never mutate it or draw randomness,
and they schedule no event, so a traced run *is* the untraced run.  Their
cost is one small dict per marked record, ~370 B: on a 400-connection
Narada run at bench scale, +2.7 % peak RSS and a few percent of host CPU.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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
    from repro.harness.pipeline import RunResult

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricKey",
    "MetricsRegistry",
    "Telemetry",
    "TimeWindow",
    "WindowedQuantiles",
    "complement_windows",
    "geometric_buckets",
]


class Telemetry:
    """One observation session over one or more finished runs."""

    def __init__(self, label: str = "telemetry"):
        self.label = label
        self.metrics = MetricsRegistry()
        #: Every observed run, in observation (for a sweep: point) order.
        self.runs: list["RunResult"] = []

    def observe(self, run: "RunResult") -> None:
        """Keep a finished run and roll it up into the metrics; a run this
        session already holds (the same object) is skipped.

        Each sampled node's samples replay, in sample order, into its
        ``cpu_idle_percent`` and ``memory_used_bytes`` gauges; the book's
        mark tally becomes the ``span.<phase>`` counters of each marking
        component; the measurement window's records feed the ``harness``
        counters and the ``rtt_ms`` histogram.
        """
        if any(kept is run for kept in self.runs):
            return
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
        for (middleware, component, phase), n in run.book.tally.items():
            metrics.counter(middleware, component, f"span.{phase}").inc(n)
        window = run.book.after(run.measure_since).records
        delivered = [r for r in window if r.delivered]
        middleware = run.middleware
        metrics.counter(middleware, "harness", "messages_sent").inc(len(window))
        metrics.counter(middleware, "harness", "messages_delivered").inc(
            len(delivered)
        )
        rtt = metrics.histogram(middleware, "harness", "rtt_ms")
        for record in delivered:
            rtt.observe(record.rtt * 1e3)
