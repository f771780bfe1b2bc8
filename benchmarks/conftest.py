"""Benchmark-suite plumbing.

``bench_findings.py`` runs every experiment the findings registry
(``repro.harness.findings``) reads, checks each finding, and writes the
rendered results to ``benchmarks/results/<experiment>.txt`` so the numbers
that back EXPERIMENTS.md are reproducible artefacts.  The other
``bench_*.py`` files time the host: the kernel, parallel sweeps, the
fleet engine and the telemetry pipeline.

Scale selection:

* default: the ``bench`` preset (compressed durations, real connection
  counts);
* ``REPRO_SCALE=smoke|bench|full`` overrides;
* ``REPRO_FULL=1`` selects the paper-scale preset (30-minute runs).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    if os.environ.get("REPRO_FULL") == "1":
        return "full"
    return os.environ.get("REPRO_SCALE", "bench")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(result) -> None:
        path = RESULTS_DIR / f"{result.experiment_id}.txt"
        path.write_text(result.render() + "\n", encoding="utf-8")

    return _save
