"""Telemetry: traced fig15 with exported artefacts + estimator throughput.

The traced bench doubles as the artefact generator: it leaves a validated
sample JSONL trace and the metrics JSON in ``benchmarks/results/`` (CI
uploads that directory), proving the whole span pipeline — middleware
marks, span lines rendered from the record books, JSONL export, schema
validation — end to end.
It traces fig15 at smoke scale whatever ``REPRO_SCALE`` says, the scale of
the committed artefacts, so a run leaves them byte-identical.
"""

import numpy as np

from benchmarks.conftest import RESULTS_DIR
from repro.harness import runner
from repro.telemetry import Histogram, Telemetry
from repro.telemetry.exporters import (
    validate_trace_file,
    write_metrics_json,
    write_trace_jsonl,
)

#: The scale of the committed ``trace_sample.jsonl`` / ``telemetry_metrics.json``.
ARTEFACT_SCALE = "smoke"


def test_fig15_traced_writes_valid_artifacts(benchmark):
    RESULTS_DIR.mkdir(exist_ok=True)
    scale = ARTEFACT_SCALE
    sessions = []

    def traced():
        tel = Telemetry(f"bench fig15 [{scale}]")
        sessions.append(tel)
        return runner.run("fig15", scale=scale, telemetry=tel)

    benchmark.pedantic(traced, rounds=1, iterations=1)
    tel = sessions[-1]

    trace_path = RESULTS_DIR / "trace_sample.jsonl"
    metrics_path = RESULTS_DIR / "telemetry_metrics.json"
    n_spans = write_trace_jsonl(tel, str(trace_path))
    write_metrics_json(tel, str(metrics_path))

    summary = validate_trace_file(str(trace_path))
    assert summary["spans"] == n_spans > 0
    assert summary["middlewares"] == ["narada", "rgma"]
    assert summary["complete"] > 0

    # Every broker-side mark was made: interior phases flow through to disk.
    assert tel.metrics.counter("narada", "broker1", "span.broker_in").value > 0
    assert (
        tel.metrics.counter("rgma", "harness", "messages_delivered").value > 0
    )


def test_histogram_observe_throughput(benchmark):
    """Streaming cost of one histogram observation."""
    xs = np.random.default_rng(7).lognormal(3.0, 1.2, 20_000)

    def fill():
        h = Histogram()
        for x in xs:
            h.observe(float(x))
        return h

    h = benchmark(fill)
    assert h.n == xs.size
    exact = float(np.percentile(xs, 99))
    assert abs(h.quantile(0.99) - exact) / exact < 0.25
