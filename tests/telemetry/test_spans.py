"""Spans: middleware hooks, record-book parity, zero behavioural impact.

The two load-bearing properties of the tentpole:

* **parity** — span-based phase breakdowns agree with the legacy
  :func:`repro.core.metrics.decompose` over the same record book, because
  endpoint phases *are* the record's timestamps;
* **zero impact** — running the same experiment with telemetry active
  yields bit-identical measured RTTs (marks and samplers are passive).
"""

import numpy as np
import pytest

from repro.core import decompose
from repro.harness.narada_experiments import narada_run
from repro.harness.plog_experiments import plog_run
from repro.harness.rgma_experiments import rgma_run
from repro.harness.scale import Scale
from repro.telemetry import Telemetry, phase_breakdown
from repro.telemetry.context import activate, current, deactivate, session
from repro.telemetry.spans import Span, Tracer

SMOKE = Scale.smoke()


# ---------------------------------------------------------------- unit level
def test_context_stack():
    assert current() is None
    a, b = Telemetry("a"), Telemetry("b")
    activate(a)
    activate(b)
    assert current() is b
    with pytest.raises(RuntimeError):
        deactivate(a)  # not innermost
    deactivate(b)
    assert current() is a
    deactivate(a)
    assert current() is None
    with session(a):
        assert current() is a
    assert current() is None


def test_tracer_first_mark_wins_and_counts_hops():
    tracer = Tracer()
    record = object()
    tracer.mark(record, "broker_in", 1.0, "ingress")
    tracer.mark(record, "broker_in", 2.0, "hub")  # forwarded: ignored
    tracer.mark(record, "broker_out", 3.0, "hub")
    marks = tracer._marks[id(record)]
    assert marks["broker_in"] == (1.0, "ingress")
    assert tracer._hops[id(record)] == 3


def test_binding_consumes_marks_so_a_reused_id_starts_clean():
    """A record created after an earlier run's book was freed can get that
    run's ``id()``; it must not inherit the old record's marks."""
    from repro.core import RecordBook

    tracer = Tracer()
    book = RecordBook()
    record = book.new_record(1, 1, 0.0)
    tracer.mark(record, "broker_in", 0.5, "broker1")
    (span,) = tracer.bind_book(book, "narada")
    assert span.components["broker_in"] == "broker1"
    assert id(record) not in tracer._marks and id(record) not in tracer._hops


def test_span_properties():
    span = Span(middleware="m", gen_id=1, seq=2)
    assert not span.complete
    span.phases.update(
        {"created": 1.0, "published": 1.1, "arrived": 1.4, "delivered": 1.5}
    )
    assert span.complete
    assert span.prt == pytest.approx(0.1)
    assert span.pt == pytest.approx(0.3)
    assert span.srt == pytest.approx(0.1)
    assert span.rtt == pytest.approx(0.5)
    d = span.to_dict()
    assert list(d["phases"]) == ["created", "published", "arrived", "delivered"]


# ------------------------------------------------------------ harness parity
def test_narada_spans_match_decompose_and_rtts_bit_identical():
    baseline = narada_run(60, scale=SMOKE, seed=3)

    tel = Telemetry("test")
    with session(tel):
        traced = narada_run(60, scale=SMOKE, seed=3)

    # Zero behavioural impact: same seed, bit-identical measured RTTs.
    assert np.array_equal(baseline.rtts, traced.rtts)
    assert baseline.mean_rtt_ms == traced.mean_rtt_ms

    spans = tel.spans_for_book(traced.book)
    assert len(spans) == len(traced.book.records)
    legacy = decompose(traced.book, since=traced.measure_since)
    via_spans = phase_breakdown(spans, since=traced.measure_since)
    assert via_spans.prt_ms == pytest.approx(legacy.prt_ms, rel=1e-12)
    assert via_spans.pt_ms == pytest.approx(legacy.pt_ms, rel=1e-12)
    assert via_spans.srt_ms == pytest.approx(legacy.srt_ms, rel=1e-12)

    # Interior phases came from the live broker hooks.
    delivered = [s for s in spans if s.complete]
    assert delivered
    assert all("broker_in" in s.phases for s in delivered)
    assert all("broker_out" in s.phases for s in delivered)
    assert all(s.components["broker_in"] == "broker1" for s in delivered)
    assert all(
        s.phases["created"]
        <= s.phases["broker_in"]
        <= s.phases["broker_out"]
        <= s.phases["delivered"]
        for s in delivered
    )


def test_narada_dbn_broker_in_is_ingress_broker():
    tel = Telemetry("test")
    with session(tel):
        run = narada_run(60, dbn=True, scale=SMOKE, seed=3)
    spans = [s for s in tel.spans_for_book(run.book) if s.complete]
    assert spans
    # Publishers connect to leaf brokers; the hub (broker1) subscribes.
    assert all(s.components["broker_in"] != "broker1" for s in spans)
    assert all(s.components["broker_out"] == "broker1" for s in spans)
    # Forwarding across the BNM means more marks than distinct phases.
    assert any(s.hops > 2 for s in spans)


def test_rgma_spans_carry_servlet_phases():
    tel = Telemetry("test")
    with session(tel):
        run = rgma_run(20, scale=SMOKE, seed=3)
    spans = [s for s in tel.spans_for_book(run.book) if s.complete]
    assert spans
    assert all(s.components["broker_in"].startswith("pp.") for s in spans)
    assert all(s.components["broker_out"].startswith("cs.") for s in spans)
    assert all(s.components["delivered"] == "subscriber" for s in spans)


def test_plog_spans_and_bit_identical_rtts():
    baseline = plog_run(40, scale=SMOKE, seed=3)
    tel = Telemetry("test")
    with session(tel):
        traced = plog_run(40, scale=SMOKE, seed=3)
    assert np.array_equal(baseline.rtts, traced.rtts)
    spans = [s for s in tel.spans_for_book(traced.book) if s.complete]
    assert spans
    # The append lands before the produce ack returns: broker_in precedes
    # the 'published' stamp (the documented interior-phase ordering).
    assert all(s.phases["broker_in"] <= s.phases["published"] for s in spans)
    assert all("broker_out" in s.phases for s in spans)


def test_rgma_run_bit_identical_with_telemetry():
    baseline = rgma_run(20, scale=SMOKE, seed=3)
    tel = Telemetry("test")
    with session(tel):
        traced = rgma_run(20, scale=SMOKE, seed=3)
    assert np.array_equal(baseline.rtts, traced.rtts)


# ------------------------------------------------------------- fault windows
def test_fault_windows_annotate_only_their_own_run():
    from repro.faults import FaultPlan

    def plan(measure_since, duration):
        p = FaultPlan()
        p.packet_loss(measure_since, duration / 2, 0.3)
        return p

    tel = Telemetry("test")
    with session(tel):
        faulted = plog_run(40, scale=SMOKE, seed=3, fault_plan=plan)
        clean = plog_run(40, scale=SMOKE, seed=4)

    assert len(tel.fault_windows) == 1
    faulted_spans = tel.spans_for_book(faulted.book)
    clean_spans = tel.spans_for_book(clean.book)
    assert any(s.annotations for s in faulted_spans)
    # Windows are consumed per observe_run: the second (fault-free) run's
    # spans carry no annotations even though its clock overlaps the window.
    assert not any(s.annotations for s in clean_spans)
    label = tel.fault_windows[0].label
    assert all(a == label for s in faulted_spans for a in s.annotations)
    assert tel.runs[0]["fault_windows"] and not tel.runs[1]["fault_windows"]


def test_observe_run_metrics_rollup():
    tel = Telemetry("test")
    with session(tel):
        run = narada_run(60, scale=SMOKE, seed=3)
    sent = tel.metrics.counter("narada", "harness", "messages_sent").value
    delivered = tel.metrics.counter(
        "narada", "harness", "messages_delivered"
    ).value
    assert sent == run.sent
    assert delivered == run.received
    rtt = tel.metrics.histogram("narada", "harness", "rtt_ms")
    assert rtt.n == run.received
    assert rtt.mean == pytest.approx(run.mean_rtt_ms)
