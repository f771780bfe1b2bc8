"""Instrument merging and the export/merge fan-out round trip."""

import math
import pickle

import numpy as np
import pytest

from repro.core.records import RecordBook
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    export_telemetry,
    merge_telemetry,
)
from repro.telemetry.merge import ImportedSampler
from repro.telemetry.samplers import ResourceSample


# ---------------------------------------------------------------- counters

def test_counter_merge_is_exact():
    a, b = Counter(), Counter()
    a.inc(3)
    b.inc(39)
    a.merge(b)
    assert a.value == 42


def test_gauge_merge_combines_extremes_and_mean():
    a, b = Gauge(), Gauge()
    for v in (2.0, 4.0):
        a.set(v)
    for v in (1.0, 9.0):
        b.set(v)
    a.merge(b)
    assert a.n == 4
    assert a.min == 1.0
    assert a.max == 9.0
    assert a.mean == pytest.approx(4.0)
    assert a.value == 9.0  # merged-in side counts as later


def test_gauge_merge_empty_other_is_noop():
    a, b = Gauge(), Gauge()
    a.set(5.0)
    a.merge(b)
    assert (a.n, a.value, a.min, a.max) == (1, 5.0, 5.0, 5.0)


# -------------------------------------------------------------- histograms

def _split_merge(values, split):
    whole = Histogram()
    for v in values:
        whole.observe(v)
    left, right = Histogram(), Histogram()
    for v in values[:split]:
        left.observe(v)
    for v in values[split:]:
        right.observe(v)
    left.merge(right)
    return whole, left


def test_histogram_merge_buckets_exact():
    rng = np.random.default_rng(7)
    values = list(rng.lognormal(mean=2.0, sigma=1.0, size=400))
    whole, merged = _split_merge(values, 173)
    assert merged.n == whole.n
    assert merged.counts == whole.counts
    assert merged.total == pytest.approx(whole.total)
    assert merged.min == whole.min
    assert merged.max == whole.max
    # Exact bucket counts mean exact bucketed quantiles.
    for q in (0.5, 0.9, 0.99):
        assert merged.quantile(q) == whole.quantile(q)


def test_registry_merge_equals_serial_fill_on_every_quantile():
    """--jobs N merges half-registries; every reported quantile must be the
    one a single registry filled serially reports."""
    rng = np.random.default_rng(13)
    samples = {
        ("narada", "rtt_ms"): rng.lognormal(1.0, 0.8, 1200),
        ("rgma", "rtt_ms"): np.concatenate(
            [rng.normal(300.0, 20.0, 700), rng.normal(1500.0, 90.0, 500)]
        ).clip(0.1),
    }
    serial, left, right = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    for (middleware, name), values in samples.items():
        half = len(values) // 2
        for registry, chunk in ((serial, values), (left, values[:half]),
                                (right, values[half:])):
            hist = registry.histogram(middleware, "harness", name)
            for v in chunk:
                hist.observe(float(v))
    left.merge_from(right)
    merged, whole = left.to_dict(), serial.to_dict()
    assert merged.keys() == whole.keys()
    for key, hist in serial:
        mine = left.histogram(key.middleware, key.component, key.name)
        assert mine.counts == hist.counts
        assert merged[str(key)]["quantiles"] == whole[str(key)]["quantiles"]
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0):
            assert mine.quantile(q) == hist.quantile(q)


def test_histogram_merge_rejects_mismatched_buckets():
    a = Histogram(buckets=(1.0, 2.0))
    b = Histogram(buckets=(1.0, 3.0))
    with pytest.raises(ValueError):
        a.merge(b)


# ---------------------------------------------------------- export / merge

def _worker_session():
    """A tiny 'worker-side' session: one observed book + assorted metrics."""
    telemetry = Telemetry("worker")
    book = RecordBook()
    for i in range(3):
        record = book.new_record(1, i, float(i))
        record.t_after_send = float(i) + 0.001
        record.t_arrived = float(i) + 0.002
        record.t_received = float(i) + 0.003
        telemetry.mark(record, "broker_in", float(i) + 0.0015, "plog", "b1")
    telemetry.fault_window("packet_loss", 0.5, 1.5, "lan")
    telemetry.observe_run(book, middleware="plog", label="tiny run")
    telemetry.metrics.gauge("plog", "b1", "depth").set(4.0)
    telemetry.samplers.append(
        ImportedSampler(
            node="hydra1",
            middleware="plog",
            interval=1.0,
            samples=[ResourceSample(1.0, 0.75, 1e6), ResourceSample(2.0, 0.5, 3e6)],
        )
    )
    return telemetry, book


def test_export_merge_round_trip_rebinds_spans():
    telemetry, book = _worker_session()
    payload = pickle.dumps(
        (book, export_telemetry(telemetry, books=[book]))
    )
    new_book, export = pickle.loads(payload)  # fresh record identities

    parent = Telemetry("parent")
    merge_telemetry(parent, export, books=[new_book])

    assert len(parent.tracer.spans) == 3
    spans = parent.spans_for_book(new_book)
    assert len(spans) == 3
    assert spans[0].phases["broker_in"] == pytest.approx(0.0015)
    assert [s.seq for s in spans] == [0, 1, 2]
    assert parent.metrics.counter("plog", "harness", "messages_delivered").value == 3
    assert parent.metrics.gauge("plog", "b1", "depth").value == 4.0
    assert [r["label"] for r in parent.runs] == ["tiny run"]
    assert len(parent.fault_windows) == 1
    assert parent.fault_windows[0].kind == "packet_loss"
    sampler = parent.samplers[0]
    assert sampler.node.name == "hydra1"
    summary = sampler.summary()
    assert summary.mean_cpu_idle_percent == pytest.approx(62.5)
    assert summary.memory_consumption_bytes == pytest.approx(2e6)


def test_merge_accumulates_across_workers():
    parent = Telemetry("parent")
    books = []
    for _ in range(2):
        telemetry, book = _worker_session()
        book2, export = pickle.loads(
            pickle.dumps((book, export_telemetry(telemetry, books=[book])))
        )
        merge_telemetry(parent, export, books=[book2])
        books.append(book2)
    assert len(parent.tracer.spans) == 6
    assert parent.metrics.counter("plog", "harness", "messages_sent").value == 6
    rtt = parent.metrics.histogram("plog", "harness", "rtt_ms")
    assert rtt.n == 6
    for book in books:
        assert len(parent.spans_for_book(book)) == 3


def test_merge_rejects_unknown_version_and_book_mismatch():
    telemetry, book = _worker_session()
    export = export_telemetry(telemetry, books=[book])
    with pytest.raises(ValueError):
        merge_telemetry(Telemetry("p"), {**export, "version": 99}, books=[book])
    with pytest.raises(ValueError):
        merge_telemetry(Telemetry("p"), export, books=[])
