"""Benchmark-suite plumbing.

Each ``bench_*.py`` regenerates one table/figure of the paper via the
harness, asserts the paper's qualitative shape, and writes the rendered
series to ``benchmarks/results/<experiment>.txt`` so the numbers that back
EXPERIMENTS.md are reproducible artefacts.

Scale selection:

* default: the ``bench`` preset (compressed durations, real connection
  counts) — the whole suite runs in minutes;
* ``REPRO_SCALE=smoke|bench|full`` overrides;
* ``REPRO_FULL=1`` selects the paper-scale preset (30-minute runs).

Sweeps are shared across benches through the runner's in-process cache, so
e.g. fig6/7/8 pay for the Narada scaling sweep once.
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


def run_experiment(
    benchmark, experiment_id: str, scale: str, save_result, rounds: int = 1
):
    """Run one experiment under pytest-benchmark and persist its output.

    The runner's sweep cache is kept warm for the *first* round (so benches
    sharing a sweep — e.g. fig6/7/8 — pay for it once) but cleared between
    subsequent rounds: repeated rounds should measure the experiment, not a
    cache hit.  The cache itself is LRU-bounded (``SweepCache.max_entries``)
    so a long bench session cannot accumulate every sweep's RecordBooks.
    """
    from repro.harness import runner

    state = {"round": 0}

    def _setup():
        if state["round"] > 0:
            runner.clear_cache()
        state["round"] += 1
        return (), {}

    result = benchmark.pedantic(
        lambda: runner.run(experiment_id, scale=scale),
        setup=_setup,
        rounds=rounds,
        iterations=1,
    )
    save_result(result)
    return result
