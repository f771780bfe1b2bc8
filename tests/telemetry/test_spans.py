"""Spans: middleware marks, rendered span lines, observation after the run.

The two load-bearing properties:

* **one reading** — a span line is its record rendered, and the telemetry
  table decomposes the same records with
  :func:`repro.core.metrics.decompose`, the figures' one PRT/PT/SRT mean;
* **zero impact** — a session reads a finished result and changes none of
  it: observing a run leaves its measured RTTs bit-identical.
"""

import pickle

import numpy as np
import pytest

from repro.core import MessageRecord, RecordBook, decompose
from repro.faults import FaultSpec
from repro.harness import runner
from repro.harness.narada_experiments import narada_run
from repro.harness.plog_experiments import plog_run
from repro.harness.rgma_experiments import rgma_run
from repro.harness.scale import Scale
from repro.telemetry import Telemetry
from repro.telemetry.exporters import (
    ORDERED_PHASES,
    phase_rows,
    span_line,
    span_lines,
)

SMOKE = Scale.smoke()


def _complete(lines):
    """The span lines with all four endpoint phases stamped."""
    return [line for line in lines if set(ORDERED_PHASES) <= set(line["phases"])]


def _observed(*runs):
    """A session that has observed ``runs``, in order."""
    tel = Telemetry("test")
    for run in runs:
        tel.observe(run)
    return tel


# ---------------------------------------------------------------- unit level
def test_tracer_first_mark_wins_and_counts_hops():
    record = MessageRecord(gen_id=1, seq=1, t_before_send=0.0)
    assert record.marks is None and record.hops == 0
    record.mark("broker_in", 1.0, "narada", "ingress")
    record.mark("broker_in", 2.0, "narada", "hub")  # forwarded: ignored
    record.mark("broker_out", 3.0, "narada", "hub")
    assert record.marks == {
        "broker_in": (1.0, "ingress"), "broker_out": (3.0, "hub")
    }
    assert record.hops == 3


def test_mark_is_tallied_on_its_book():
    """Every mark, first or not, bumps its book's tally under the mark's
    own middleware; a record no book made has no tally to bump."""
    book = RecordBook()
    record = book.new_record(1, 1, 0.0)
    record.mark("broker_in", 1.0, "narada", "broker1")
    record.mark("broker_in", 2.0, "narada", "broker1")
    record.mark("edge_in", 3.0, "edge", "gw0")
    assert book.tally == {
        ("narada", "broker1", "broker_in"): 2, ("edge", "gw0", "edge_in"): 1,
    }
    assert record.marks == {
        "broker_in": (1.0, "broker1"), "edge_in": (3.0, "gw0"),
    }
    assert record.hops == 3
    loose = MessageRecord(gen_id=1, seq=2, t_before_send=0.0)
    loose.mark("broker_in", 1.0, "narada", "broker1")
    assert loose.tally is None and loose.hops == 1


def test_multi_hop_span_counters_count_every_mark():
    """fig15_federation's span counters count every mark of every hop, keyed
    by the marking broker: each broker on a message's path to the control
    room marks it, so the root counts all 462 messages and each interior
    broker its subtree's 198, where a trace line names only the first
    (ingress) broker."""
    tel = Telemetry("fig15_federation")
    runner.run("fig15_federation", scale=SMOKE, seed=1, cache=False,
               telemetry=tel)
    broker_in = {
        f"fed{i}": tel.metrics.counter(
            "federation", f"fed{i}", "span.broker_in"
        ).value
        for i in range(3)
    }
    assert broker_in == {"fed0": 462, "fed1": 198, "fed2": 198}
    first_marks = sum(
        line.get("components", {}).get("broker_in") == "fed0"
        for line in span_lines(tel)
    )
    assert first_marks < broker_in["fed0"]


def test_pickled_record_keeps_marks_and_hops():
    """The sweep cache and ``--jobs`` workers ship records by pickle."""
    book = RecordBook()
    record = book.new_record(2, 5, 0.25)
    record.mark("broker_in", 0.5, "narada", "broker1")
    record.mark("broker_in", 0.6, "narada", "broker2")
    record.deliver(0.7, 0.8, "narada", "subscriber")
    restored = pickle.loads(pickle.dumps(book))
    (copy,) = restored.records
    assert copy == record
    assert restored.tally == book.tally and copy.tally is restored.tally
    assert copy.marks == {
        "broker_in": (0.5, "broker1"), "delivered": (0.8, "subscriber")
    }
    assert list(copy.marks) == ["broker_in", "delivered"]
    assert copy.hops == 3
    assert span_line(copy, "narada") == span_line(record, "narada")


def test_span_properties():
    """A span line is the record rendered: endpoint phases in life-cycle
    order, the first component of each mark, hops and fault annotations."""
    record = MessageRecord(gen_id=1, seq=2, t_before_send=1.0)
    assert span_line(record, "m") == {
        "kind": "span", "middleware": "m", "gen_id": 1, "seq": 2,
        "phases": {"created": 1.0},
    }
    record.t_after_send = 1.1
    record.mark("broker_in", 1.2, "m", "b1")
    record.mark("broker_in", 1.25, "m", "b2")
    record.deliver(1.4, 1.5, "m", "subscriber")
    line = span_line(record, "m", [FaultSpec("latency", 1.3, 1.0, "lan")])
    assert list(line) == [
        "kind", "middleware", "gen_id", "seq", "phases", "components",
        "hops", "annotations",
    ]
    assert line["phases"] == {
        "created": 1.0, "published": 1.1, "broker_in": 1.2, "arrived": 1.4,
        "delivered": 1.5,
    }
    assert line["components"] == {"broker_in": "b1", "delivered": "subscriber"}
    assert line["hops"] == 3
    assert line["annotations"] == ["latency@lan"]
    book = RecordBook()
    book.records.append(record)
    phases = decompose(book)
    assert phases.prt_ms == pytest.approx(100.0)
    assert phases.pt_ms == pytest.approx(300.0)
    assert phases.srt_ms == pytest.approx(100.0)
    assert phases.rtt_ms == pytest.approx(500.0)


# ------------------------------------------------------------ harness parity
def test_narada_spans_match_decompose_and_rtts_bit_identical():
    traced = narada_run(60, scale=SMOKE, seed=3)
    rtts, mean = traced.rtts.copy(), traced.mean_rtt_ms
    tel = _observed(traced)

    # Zero behavioural impact: observing leaves the measured RTTs as they were.
    assert np.array_equal(rtts, traced.rtts)
    assert mean == traced.mean_rtt_ms

    lines = list(span_lines(tel))
    assert len(lines) == len(traced.book.records)
    # The telemetry table reads the run's window as the figures do.
    figure = decompose(traced.book, since=traced.measure_since)
    ((*_, prt, pt, srt, rtt),) = phase_rows(tel)
    assert [prt, pt, srt, rtt] == [
        figure.prt_ms, figure.pt_ms, figure.srt_ms, figure.rtt_ms
    ]

    # Interior phases came from the broker hooks.
    delivered = _complete(lines)
    assert delivered
    assert all("broker_in" in s["phases"] for s in delivered)
    assert all("broker_out" in s["phases"] for s in delivered)
    assert all(s["components"]["broker_in"] == "broker1" for s in delivered)
    assert all(
        s["phases"]["created"]
        <= s["phases"]["broker_in"]
        <= s["phases"]["broker_out"]
        <= s["phases"]["delivered"]
        for s in delivered
    )


def test_narada_dbn_broker_in_is_ingress_broker():
    tel = _observed(narada_run(60, dbn=True, scale=SMOKE, seed=3))
    spans = _complete(span_lines(tel))
    assert spans
    # Publishers connect to leaf brokers; the hub (broker1) subscribes.
    assert all(s["components"]["broker_in"] != "broker1" for s in spans)
    assert all(s["components"]["broker_out"] == "broker1" for s in spans)
    # Forwarding across the BNM means more marks than distinct phases.
    assert any(s["hops"] > 2 for s in spans)


def test_rgma_spans_carry_servlet_phases():
    tel = _observed(rgma_run(20, scale=SMOKE, seed=3))
    spans = _complete(span_lines(tel))
    assert spans
    assert all(s["components"]["broker_in"].startswith("pp.") for s in spans)
    assert all(s["components"]["broker_out"].startswith("cs.") for s in spans)
    assert all(s["components"]["delivered"] == "subscriber" for s in spans)


def test_plog_spans_and_bit_identical_rtts():
    baseline = plog_run(40, scale=SMOKE, seed=3)
    traced = plog_run(40, scale=SMOKE, seed=3)
    tel = _observed(traced)
    assert np.array_equal(baseline.rtts, traced.rtts)
    spans = _complete(span_lines(tel))
    assert spans
    # The append lands before the produce ack returns: broker_in precedes
    # the 'published' stamp (the documented interior-phase ordering).
    assert all(
        s["phases"]["broker_in"] <= s["phases"]["published"] for s in spans
    )
    assert all("broker_out" in s["phases"] for s in spans)


def test_rgma_run_bit_identical_with_telemetry():
    baseline = rgma_run(20, scale=SMOKE, seed=3)
    traced = rgma_run(20, scale=SMOKE, seed=3)
    tel = _observed(traced)
    tel.observe(traced)  # the same object again: skipped
    assert tel.runs == [traced]
    assert np.array_equal(baseline.rtts, traced.rtts)


# ------------------------------------------------------------- fault windows
def test_fault_windows_annotate_only_their_own_run():
    from repro.faults import FaultPlan

    def plan(measure_since, duration):
        p = FaultPlan()
        p.packet_loss(measure_since, duration / 2, 0.3)
        return p

    faulted = plog_run(40, scale=SMOKE, seed=3, fault_plan=plan)
    clean = plog_run(40, scale=SMOKE, seed=4)
    tel = _observed(faulted, clean)

    (fault,) = tel.runs[0].faults
    assert tel.runs[1].faults == []
    lines = list(span_lines(tel))
    faulted_spans = lines[: len(faulted.book)]
    clean_spans = lines[len(faulted.book):]
    assert any("annotations" in s for s in faulted_spans)
    # A window belongs to the run that armed it: the second (fault-free)
    # run's spans carry no annotations even though its clock overlaps it.
    assert not any("annotations" in s for s in clean_spans)
    assert all(
        a == f"{fault.kind}@{fault.target}"
        for s in faulted_spans for a in s.get("annotations", ())
    )


def test_observe_run_metrics_rollup():
    run = narada_run(60, scale=SMOKE, seed=3)
    tel = _observed(run)
    sent = tel.metrics.counter("narada", "harness", "messages_sent").value
    delivered = tel.metrics.counter(
        "narada", "harness", "messages_delivered"
    ).value
    assert sent == run.sent
    assert delivered == run.received
    rtt = tel.metrics.histogram("narada", "harness", "rtt_ms")
    assert rtt.n == run.received
    assert rtt.mean == pytest.approx(run.mean_rtt_ms)
