"""JSONL trace round-trip, schema validation, tables and result bridge."""

import json
import math

import pytest

from repro.core.records import RecordBook
from repro.faults.plan import FaultSpec
from repro.harness.pipeline import RunResult
from repro.telemetry import Telemetry
from repro.telemetry.exporters import (
    TRACE_SCHEMA,
    TRACE_VERSION,
    TraceSchemaError,
    metrics_tables,
    validate_trace_file,
    validate_trace_span,
    write_metrics_json,
    write_trace_jsonl,
)


def _run(book: RecordBook, measure_since: float = 0.0, **fields) -> RunResult:
    """A hand-built result around ``book`` (only what a session reads is
    meaningful)."""
    return RunResult(
        label="unit-run", middleware="narada", book=book,
        measure_since=measure_since, sent=len(book), received=0,
        mean_rtt_ms=0.0, stddev_rtt_ms=0.0, loss_rate=0.0, rtts=None,
        **fields,
    )


def _session() -> tuple[Telemetry, RecordBook]:
    """A hand-built session: 4 delivered messages + 1 lost, 1 fault window."""
    tel = Telemetry("unit")
    book = RecordBook()
    for i in range(4):  # the marks are tallied into span.* counters
        r = book.new_record(gen_id=1, seq=i, t_before_send=float(i))
        r.t_after_send = i + 0.01
        r.t_arrived = i + 0.20
        r.t_received = i + 0.25
        r.mark("broker_in", i + 0.05, "narada", "broker1")
        r.mark("broker_out", i + 0.15, "narada", "broker1")
    book.new_record(gen_id=1, seq=99, t_before_send=1.5)  # never delivered
    tel.observe(_run(book, faults=[FaultSpec("packet_loss", 1.0, 1.0, "lan")]))
    return tel, book


# ------------------------------------------------------------- JSONL writing
def test_trace_jsonl_round_trip(tmp_path):
    tel, _ = _session()
    path = tmp_path / "trace.jsonl"
    n = write_trace_jsonl(tel, str(path))
    assert n == 5

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    header, windows = lines[0], [o for o in lines if o["kind"] == "fault_window"]
    assert header["kind"] == "header"
    assert header["schema"] == TRACE_SCHEMA
    assert header["version"] == TRACE_VERSION
    assert header["label"] == "unit"
    assert header["span_count"] == 5
    assert header["runs"][0]["label"] == "unit-run"
    assert len(windows) == 1 and windows[0]["target"] == "lan"
    assert windows[0]["fault_kind"] == "packet_loss"

    summary = validate_trace_file(str(path))
    assert summary == {
        "spans": 5,
        "complete": 4,
        "fault_windows": 1,
        "middlewares": ["narada"],
    }
    # The span overlapping the window carries its annotation on disk.
    annotated = [o for o in lines if o.get("annotations")]
    assert annotated and all(
        o["annotations"] == ["packet_loss@lan"] for o in annotated
    )


def test_header_only_trace_is_valid(tmp_path):
    tel = Telemetry("empty")
    path = tmp_path / "trace.jsonl"
    assert write_trace_jsonl(tel, str(path)) == 0
    summary = validate_trace_file(str(path))
    assert summary["spans"] == 0 and summary["middlewares"] == []


# ---------------------------------------------------------------- validation
def _write_lines(tmp_path, *objs):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(objs) + "\n")
    return str(path)


HEADER = json.dumps(
    {"kind": "header", "schema": TRACE_SCHEMA, "version": TRACE_VERSION}
)


def test_validate_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(TraceSchemaError, match="no header"):
        validate_trace_file(str(path))


def test_validate_rejects_missing_header(tmp_path):
    span = json.dumps(
        {"kind": "span", "middleware": "m", "gen_id": 1, "seq": 0,
         "phases": {"created": 0.0}}
    )
    with pytest.raises(TraceSchemaError, match="header"):
        validate_trace_file(_write_lines(tmp_path, span))


def test_validate_rejects_wrong_schema_or_version(tmp_path):
    bad_schema = json.dumps(
        {"kind": "header", "schema": "other", "version": TRACE_VERSION}
    )
    with pytest.raises(TraceSchemaError, match="schema"):
        validate_trace_file(_write_lines(tmp_path, bad_schema))
    bad_version = json.dumps(
        {"kind": "header", "schema": TRACE_SCHEMA, "version": 99}
    )
    with pytest.raises(TraceSchemaError, match="version"):
        validate_trace_file(_write_lines(tmp_path, bad_version))


def test_validate_rejects_bad_json_line(tmp_path):
    with pytest.raises(TraceSchemaError, match="not JSON"):
        validate_trace_file(_write_lines(tmp_path, HEADER, "{not json"))


def test_validate_rejects_unknown_kind(tmp_path):
    with pytest.raises(TraceSchemaError, match="unknown line kind"):
        validate_trace_file(
            _write_lines(tmp_path, HEADER, json.dumps({"kind": "mystery"}))
        )


def test_validate_rejects_inverted_fault_window(tmp_path):
    window = json.dumps(
        {"kind": "fault_window", "fault_kind": "packet_loss",
         "start": 5.0, "end": 1.0, "target": "lan"}
    )
    with pytest.raises(TraceSchemaError, match="start <= end"):
        validate_trace_file(_write_lines(tmp_path, HEADER, window))


def test_validate_rejects_window_without_fault_kind(tmp_path):
    window = json.dumps(
        {"kind": "fault_window", "start": 1.0, "end": 2.0, "target": "lan"}
    )
    with pytest.raises(TraceSchemaError, match="fault_kind"):
        validate_trace_file(_write_lines(tmp_path, HEADER, window))


def test_validate_span_schema_errors():
    ok = {
        "middleware": "m", "gen_id": 1, "seq": 0,
        "phases": {"created": 0.0, "arrived": 0.5, "delivered": 0.6},
    }
    validate_trace_span(ok)

    with pytest.raises(TraceSchemaError, match="middleware"):
        validate_trace_span({**ok, "middleware": ""})
    with pytest.raises(TraceSchemaError, match="gen_id"):
        validate_trace_span({**ok, "gen_id": "one"})
    with pytest.raises(TraceSchemaError, match="non-empty"):
        validate_trace_span({**ok, "phases": {}})
    with pytest.raises(TraceSchemaError, match="unknown phase"):
        validate_trace_span({**ok, "phases": {"teleported": 1.0}})
    with pytest.raises(TraceSchemaError, match="finite"):
        validate_trace_span({**ok, "phases": {"created": math.nan}})
    # Causal violation: delivery before arrival.
    with pytest.raises(TraceSchemaError, match="'arrived'.*after"):
        validate_trace_span(
            {**ok, "phases": {"created": 0.0, "arrived": 2.0, "delivered": 1.0}}
        )
    with pytest.raises(TraceSchemaError, match="'created'.*after"):
        validate_trace_span(
            {**ok, "phases": {"created": 3.0, "arrived": 2.0}}
        )
    # A publish ack landing after delivery is legal (documented race).
    validate_trace_span(
        {**ok, "phases": {"created": 0.0, "published": 0.9,
                          "arrived": 0.5, "delivered": 0.6}}
    )


# ------------------------------------------------------------------ exports
def test_metrics_json(tmp_path):
    tel, _ = _session()
    path = tmp_path / "metrics.json"
    write_metrics_json(tel, str(path))
    doc = json.loads(path.read_text())
    assert doc["label"] == "unit"
    assert doc["metrics"]["narada/harness/messages_sent"]["value"] == 5
    assert doc["metrics"]["narada/harness/messages_delivered"]["value"] == 4
    assert doc["metrics"]["narada/harness/rtt_ms"]["kind"] == "histogram"
    assert doc["runs"][0]["label"] == "unit-run"
    assert doc["samplers"] == []


def test_metrics_json_is_strict_when_nothing_is_delivered(tmp_path):
    """A middleware that delivers nothing in its window has an empty
    rtt_ms histogram: its quantiles are written as 0.0, never as NaN."""
    book = RecordBook()
    book.new_record(gen_id=1, seq=0, t_before_send=0.5)  # lost, pre-window
    tel = Telemetry("empty window")
    tel.observe(_run(book, measure_since=1.0))
    path = tmp_path / "metrics.json"
    write_metrics_json(tel, str(path))

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    doc = json.loads(path.read_text(), parse_constant=reject)
    rtt = doc["metrics"]["narada/harness/rtt_ms"]
    assert rtt["n"] == 0
    assert set(rtt["quantiles"].values()) == {0.0}


def test_metrics_tables_content():
    tel, _ = _session()
    text = metrics_tables(tel)
    assert "== telemetry: unit ==" in text
    assert "narada" in text
    assert "narada/broker1/span.broker_in" in text
    assert "narada/harness/rtt_ms" in text
    assert "PRT (ms)" in text
    header = next(line for line in text.splitlines() if "histogram" in line)
    assert header.split() == ["histogram", "n", "mean", "p50", "p95", "p99"]
