"""Exporters: JSONL trace dump and paper-style text tables.

The JSONL trace format is line-delimited JSON with a self-describing
header (the "local text file for later analysis" of §III.B, grown up):

* line 1 — ``{"kind": "header", "schema": "repro.telemetry.trace",
  "version": 1, ...}``;
* then one ``{"kind": "fault_window", ...}`` line per armed fault;
* then one ``{"kind": "span", ...}`` line per traced message, with phase
  times in simulated seconds.

Every line is rendered from the session's finished runs when the file is
written: a span line is one :class:`~repro.core.records.MessageRecord`
(:func:`span_line`), and the fault-window lines and the header's run
summaries come from each kept :class:`~repro.harness.pipeline.RunResult`
(:func:`run_summary`).

:func:`validate_trace_file` re-reads a dump and checks the schema — the CI
trace-smoke step runs it against a fresh ``--trace`` export.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.cluster.vmstat import steady_state_summary
from repro.core.metrics import decompose
from repro.core.records import RecordBook
from repro.core.report import render_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.records import MessageRecord
    from repro.faults.plan import FaultSpec
    from repro.harness.pipeline import RunResult
    from repro.telemetry import Telemetry

TRACE_SCHEMA = "repro.telemetry.trace"
TRACE_VERSION = 1


class TraceSchemaError(ValueError):
    """A trace file violated the JSONL schema."""


# ------------------------------------------------------------------- spans

#: Phase names in life-cycle order.  ``created``..``delivered`` are the
#: record-book boundaries; ``broker_in``/``broker_out`` are broker marks,
#: and ``edge_in``/``parked``/``edge_out`` are the gateway-tier hop
#: (upstream delivery into the gateway, the long-poll park that consumed
#: the event, and the write into the long-poll response).
PHASES = (
    "created",
    "published",
    "broker_in",
    "broker_out",
    "edge_in",
    "parked",
    "edge_out",
    "arrived",
    "delivered",
)

#: The subset of phases whose ordering is a schema invariant (interior
#: broker phases may legitimately precede ``published`` — e.g. a plog
#: append lands before the produce acknowledgement returns).
ORDERED_PHASES = ("created", "published", "arrived", "delivered")


def fault_window(spec: "FaultSpec") -> dict:
    """An armed fault's (kind, time window, target), as the trace and the
    metrics JSON write it."""
    return {
        "kind": spec.kind, "start": spec.at, "end": spec.until,
        "target": spec.target,
    }


def span_line(
    record: "MessageRecord",
    middleware: str,
    faults: Iterable["FaultSpec"] = (),
) -> dict:
    """One record as a trace span line.

    The endpoint phases are the record's four timestamps; the interior
    phases, the components that first stamped each phase and the hop
    count are its :attr:`~repro.core.records.MessageRecord.marks` and
    :attr:`~repro.core.records.MessageRecord.hops`.  ``annotations`` names
    every armed fault (``kind@target``) whose window overlaps the
    message's life.
    A pure function of the record: a book unpickled from the sweep cache
    or a ``--jobs`` worker renders the same lines as the one the run
    filled.
    """
    stamps = {
        "created": record.t_before_send,
        "published": record.t_after_send,
        "arrived": record.t_arrived,
        "delivered": record.t_received,
    }
    marks = record.marks or {}
    phases = {}
    for phase in PHASES:
        t = stamps.get(phase)
        if t is None and phase in marks:
            t = marks[phase][0]
        if t is not None:
            phases[phase] = t
    line: dict = {
        "kind": "span",
        "middleware": middleware,
        "gen_id": record.gen_id,
        "seq": record.seq,
        "phases": phases,
    }
    if marks:
        line["components"] = {
            phase: component for phase, (_, component) in marks.items()
        }
        line["hops"] = record.hops
    end = phases.get("delivered", math.inf)
    start = phases["created"]
    annotations = [
        f"{f.kind}@{f.target}" for f in faults if f.at < end and start < f.until
    ]
    if annotations:
        line["annotations"] = annotations
    return line


def span_lines(telemetry: "Telemetry") -> Iterator[dict]:
    """Every observed record's :func:`span_line`, run by run."""
    for run in telemetry.runs:
        for record in run.book.records:
            yield span_line(record, run.middleware, run.faults)


def run_summary(run: "RunResult") -> dict:
    """A run's line in the trace header and the metrics JSON."""
    return {
        "label": run.label,
        "middleware": run.middleware,
        "spans": len(run.book),
        "delivered": sum(
            1 for r in run.book.after(run.measure_since).records if r.delivered
        ),
        "measure_since": run.measure_since,
        "fault_windows": [fault_window(f) for f in run.faults],
    }


# ------------------------------------------------------------------- writing

def write_trace_jsonl(telemetry: "Telemetry", path: str) -> int:
    """Dump the session's runs as spans (and fault windows) to ``path``.

    Returns the number of span lines written.
    """
    runs = telemetry.runs
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "kind": "header",
            "schema": TRACE_SCHEMA,
            "version": TRACE_VERSION,
            "label": telemetry.label,
            "runs": [run_summary(run) for run in runs],
            "span_count": sum(len(run.book) for run in runs),
        }
        fh.write(json.dumps(header) + "\n")
        for run in runs:
            for fault in run.faults:
                # The fault's own "kind" (packet_loss, ...) must not
                # collide with the line-kind discriminator, so it ships as
                # fault_kind.
                doc = fault_window(fault)
                doc["fault_kind"] = doc.pop("kind")
                fh.write(json.dumps({"kind": "fault_window", **doc}) + "\n")
        n_spans = 0
        for line in span_lines(telemetry):
            fh.write(json.dumps(line) + "\n")
            n_spans += 1
    return n_spans


def write_metrics_json(telemetry: "Telemetry", path: str) -> None:
    """Dump the metrics registry (plus node sample summaries, read as
    ``RunResult.vmstat`` reads them) as one JSON doc.  A sampler row's
    ``samples`` counts the whole run; its CPU-idle mean covers the
    measurement window from ``measure_since`` on.  The doc is strict JSON:
    a non-finite number is an error, not a ``NaN`` token."""
    samplers = []
    for run in telemetry.runs:
        for s in run.node_samples:
            summary = steady_state_summary(s.samples, run.measure_since)
            samplers.append({
                "node": s.node,
                "middleware": s.middleware,
                "samples": len(s.samples),
                "measure_since": run.measure_since,
                "mean_cpu_idle_percent": summary.mean_cpu_idle_percent,
                "memory_consumption_mb": summary.memory_consumption_mb,
            })
    doc = {
        "label": telemetry.label,
        "metrics": telemetry.metrics.to_dict(),
        "samplers": samplers,
        "runs": [run_summary(run) for run in telemetry.runs],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------- validation

def _check(condition: bool, line_no: int, message: str) -> None:
    if not condition:
        raise TraceSchemaError(f"line {line_no}: {message}")


def validate_trace_span(span: dict, line_no: int = 0) -> None:
    """Schema-check one span object (raises :class:`TraceSchemaError`)."""
    _check(isinstance(span.get("middleware"), str) and span["middleware"] != "",
           line_no, "span.middleware must be a non-empty string")
    for field_name in ("gen_id", "seq"):
        _check(isinstance(span.get(field_name), int),
               line_no, f"span.{field_name} must be an integer")
    phases = span.get("phases")
    _check(isinstance(phases, dict) and len(phases) > 0,
           line_no, "span.phases must be a non-empty object")
    for name, value in phases.items():
        _check(name in PHASES, line_no, f"unknown phase {name!r}")
        _check(isinstance(value, (int, float)) and value == value,
               line_no, f"phase {name!r} time must be a finite number")
    # Causal orderings only.  'published' is a publish *acknowledgement*
    # stamp, which can land after delivery (a plog produce ack or an R-GMA
    # insert response racing the consumer's poll), so published-vs-arrived is
    # deliberately unconstrained; interior broker phases likewise (a plog
    # append precedes its ack).
    for earlier, later in (
        ("created", "published"),
        ("created", "arrived"),
        ("arrived", "delivered"),
    ):
        if earlier in phases and later in phases:
            _check(phases[earlier] <= phases[later], line_no,
                   f"phase {earlier!r} at {phases[earlier]} is after "
                   f"{later!r} at {phases[later]}")


def validate_trace_file(path: str) -> dict:
    """Validate a ``--trace`` JSONL dump; returns a summary dict."""
    spans = complete = windows = 0
    saw_header = False
    middlewares: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(f"line {line_no}: not JSON: {exc}") from exc
            _check(isinstance(obj, dict), line_no, "line must be an object")
            kind = obj.get("kind")
            if line_no == 1:
                _check(kind == "header", line_no, "first line must be the header")
                _check(obj.get("schema") == TRACE_SCHEMA, line_no,
                       f"schema must be {TRACE_SCHEMA!r}")
                _check(obj.get("version") == TRACE_VERSION, line_no,
                       f"version must be {TRACE_VERSION}")
                saw_header = True
                continue
            if kind == "fault_window":
                _check(
                    isinstance(obj.get("fault_kind"), str)
                    and obj["fault_kind"] != "",
                    line_no, "fault_window needs a fault_kind",
                )
                _check(
                    isinstance(obj.get("start"), (int, float))
                    and isinstance(obj.get("end"), (int, float))
                    and obj["start"] <= obj["end"],
                    line_no, "fault_window needs start <= end",
                )
                windows += 1
                continue
            _check(kind == "span", line_no, f"unknown line kind {kind!r}")
            validate_trace_span(obj, line_no)
            spans += 1
            middlewares.add(obj["middleware"])
            if all(p in obj["phases"] for p in ORDERED_PHASES):
                complete += 1
    if not saw_header:
        raise TraceSchemaError("empty trace file (no header line)")
    # A header-only file is otherwise valid (nothing traced is legal).
    return {
        "spans": spans,
        "complete": complete,
        "fault_windows": windows,
        "middlewares": sorted(middlewares),
    }


# -------------------------------------------------------------- text tables

def phase_rows(telemetry: "Telemetry") -> list[list]:
    """One row per middleware: its span, complete and in-fault counts over
    every observed record, then PRT / PT / SRT / RTT (ms) decomposed over
    the pooled measurement windows of its runs, as the figures read them."""
    by_middleware: dict[str, list] = {}
    for run in telemetry.runs:
        by_middleware.setdefault(run.middleware, []).append(run)
    rows = []
    for middleware in sorted(by_middleware):
        window = RecordBook()
        spans = complete = in_fault = 0
        for run in by_middleware[middleware]:
            window.merge(run.book.after(run.measure_since))
            for record in run.book.records:
                line = span_line(record, middleware, run.faults)
                spans += 1
                complete += all(p in line["phases"] for p in ORDERED_PHASES)
                in_fault += "annotations" in line
        breakdown = decompose(window)
        rows.append([
            middleware, spans, complete, in_fault, breakdown.prt_ms,
            breakdown.pt_ms, breakdown.srt_ms, breakdown.rtt_ms,
        ])
    return rows


def metrics_tables(telemetry: "Telemetry") -> str:
    """Paper-style text tables for a whole session."""
    parts: list[str] = [f"== telemetry: {telemetry.label} =="]

    rows = phase_rows(telemetry)
    if rows:
        parts.append(render_table(
            ["middleware", "spans", "complete", "in-fault", "PRT (ms)",
             "PT (ms)", "SRT (ms)", "RTT (ms)"],
            rows,
        ))

    counter_rows, gauge_rows, histogram_rows = [], [], []
    for key, instrument in telemetry.metrics:
        if instrument.kind == "counter":
            counter_rows.append([str(key), instrument.value])
        elif instrument.kind == "gauge":
            gauge_rows.append([
                str(key), instrument.value, instrument.min, instrument.max,
                instrument.mean,
            ])
        else:
            histogram_rows.append([
                str(key), instrument.n, instrument.mean,
                instrument.quantile(0.50), instrument.quantile(0.95),
                instrument.quantile(0.99),
            ])
    if counter_rows:
        parts.append(render_table(["counter", "value"], counter_rows))
    if gauge_rows:
        parts.append(render_table(
            ["gauge", "last", "min", "max", "mean"], gauge_rows
        ))
    if histogram_rows:
        parts.append(render_table(
            ["histogram", "n", "mean", "p50", "p95", "p99"],
            histogram_rows,
        ))

    rows = []
    for run in telemetry.runs:
        for s in run.node_samples:
            summary = steady_state_summary(s.samples, run.measure_since)
            rows.append([
                s.node, s.middleware, summary.mean_cpu_idle_percent,
                summary.memory_consumption_mb, len(s.samples),
            ])
    if rows:
        parts.append(render_table(
            ["node", "middleware", "CPU idle %", "memory (MB)", "samples"],
            rows,
        ))
    return "\n".join(parts)
