"""Exporters: JSONL trace dump and paper-style text tables.

The JSONL trace format is line-delimited JSON with a self-describing
header (the "local text file for later analysis" of §III.B, grown up):

* line 1 — ``{"kind": "header", "schema": "repro.telemetry.trace",
  "version": 1, ...}``;
* then one ``{"kind": "fault_window", ...}`` line per armed fault;
* then one ``{"kind": "span", ...}`` line per traced message, with phase
  times in simulated seconds.

:func:`validate_trace_file` re-reads a dump and checks the schema — the CI
trace-smoke step runs it against a fresh ``--trace`` export.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Optional

from repro.core.report import render_table
from repro.telemetry.spans import ORDERED_PHASES, PHASES, phase_breakdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

TRACE_SCHEMA = "repro.telemetry.trace"
TRACE_VERSION = 1


class TraceSchemaError(ValueError):
    """A trace file violated the JSONL schema."""


# ------------------------------------------------------------------- writing

def write_trace_jsonl(telemetry: "Telemetry", path: str) -> int:
    """Dump the session's spans (and fault windows) to ``path``.

    Returns the number of span lines written.
    """
    spans = telemetry.tracer.spans
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "kind": "header",
            "schema": TRACE_SCHEMA,
            "version": TRACE_VERSION,
            "label": telemetry.label,
            "runs": telemetry.runs,
            "span_count": len(spans),
        }
        fh.write(json.dumps(header) + "\n")
        for window in telemetry.fault_windows:
            # The window's own "kind" (packet_loss, ...) must not collide
            # with the line-kind discriminator, so it ships as fault_kind.
            doc = window.to_dict()
            doc["fault_kind"] = doc.pop("kind")
            fh.write(json.dumps({"kind": "fault_window", **doc}) + "\n")
        for span in spans:
            fh.write(json.dumps({"kind": "span", **span.to_dict()}) + "\n")
    return len(spans)


def write_metrics_json(telemetry: "Telemetry", path: str) -> None:
    """Dump the metrics registry (plus sampler summaries) as one JSON doc."""
    doc = {
        "label": telemetry.label,
        "metrics": telemetry.metrics.to_dict(),
        "samplers": [
            {
                "node": s.node.name,
                "middleware": s.middleware,
                "samples": len(s.samples),
                **_sampler_summary(s),
            }
            for s in telemetry.samplers
        ],
        "runs": telemetry.runs,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sampler_summary(sampler) -> dict:
    summary = sampler.summary()
    return {
        "mean_cpu_idle_percent": summary.mean_cpu_idle_percent,
        "memory_consumption_mb": summary.memory_consumption_mb,
    }


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

def metrics_tables(telemetry: "Telemetry") -> str:
    """Paper-style text tables for a whole session."""
    parts: list[str] = [f"== telemetry: {telemetry.label} =="]

    by_middleware: dict[str, list] = {}
    for span in telemetry.tracer.spans:
        by_middleware.setdefault(span.middleware, []).append(span)
    if by_middleware:
        rows = []
        for middleware in sorted(by_middleware):
            spans = by_middleware[middleware]
            breakdown = phase_breakdown(spans)
            complete = sum(1 for s in spans if s.complete)
            annotated = sum(1 for s in spans if s.annotations)
            rows.append([
                middleware, len(spans), complete, annotated,
                breakdown.prt_ms, breakdown.pt_ms, breakdown.srt_ms,
                breakdown.rtt_ms,
            ])
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

    if telemetry.samplers:
        parts.append(render_table(
            ["node", "middleware", "CPU idle %", "memory (MB)", "samples"],
            [
                [
                    s.node.name,
                    s.middleware,
                    s.summary().mean_cpu_idle_percent,
                    s.summary().memory_consumption_mb,
                    len(s.samples),
                ]
                for s in telemetry.samplers
            ],
        ))
    return "\n".join(parts)
