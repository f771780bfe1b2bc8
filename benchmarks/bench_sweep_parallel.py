"""Machine-readable perf trajectory: kernel hot paths + parallel sweeps.

Unlike the other benches (which regenerate paper figures), this one tracks
the *harness itself*: how fast the simulation kernel retires events, and
what ``--jobs N`` plus the two-tier sweep cache buy on a real sweep.  It
writes everything it measures to ``benchmarks/results/BENCH_kernel.json``
(uploaded as a CI artifact) so the perf trajectory of the repo is a
reviewable number, not a claim.

Regression gate: absolute timings are machine-dependent, so the kernel
guard is a *ratio* measured within one run — the 10k-event kernel loop
against a raw ``heapq`` push/pop loop over the same tuples (the
irreducible cost of the kernel's own data structure).  The optimised loop
measures ~2.05× the floor; the limit of 2.5 is ~20 % above that, so a
>20 % event-throughput regression fails CI on any host.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from heapq import heappop, heappush
from pathlib import Path

import pytest

from repro.harness import runner
from repro.sim import Simulator, Store

RESULTS_DIR = Path(__file__).parent / "results"
OUT_PATH = RESULTS_DIR / "BENCH_kernel.json"

N_EVENTS = 10_000
N_SWITCHES = 2_000

#: Kernel-loop / raw-heap-loop ratio above which CI fails (see module doc).
EVENT_OVERHEAD_LIMIT = 2.5

#: Results accumulated by the tests and flushed once per session.
_report: dict = {}


@pytest.fixture(scope="session", autouse=True)
def bench_report():
    _report.update(
        schema="repro.bench_kernel/1",
        host={
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
        },
    )
    yield _report
    RESULTS_DIR.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(_report, indent=2) + "\n", encoding="utf-8")


def _best_of(fn, rounds: int = 7) -> float:
    """Minimum wall-clock over ``rounds`` runs (the stablest estimator)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ------------------------------------------------------------ kernel paths

def _event_loop():
    sim = Simulator()
    for i in range(N_EVENTS):
        sim.timeout(i * 0.001)
    sim.run()


def _raw_heap_floor():
    heap: list = []
    push, pop = heappush, heappop
    for i in range(N_EVENTS):
        push(heap, (i * 0.001, i, None))
    while heap:
        pop(heap)


def _switch_loop():
    sim = Simulator()
    store_a, store_b = Store(sim), Store(sim)

    def ping():
        for _ in range(N_SWITCHES // 2):
            yield store_a.put("x")
            yield store_b.get()

    def pong():
        for _ in range(N_SWITCHES // 2):
            yield store_a.get()
            yield store_b.put("y")

    sim.process(ping())
    sim.process(pong())
    sim.run()


def test_kernel_event_throughput_vs_floor(bench_report):
    events_s = _best_of(_event_loop)
    floor_s = _best_of(_raw_heap_floor)
    switch_s = _best_of(_switch_loop)
    ratio = events_s / floor_s
    bench_report["kernel"] = {
        "events": N_EVENTS,
        "events_best_s": events_s,
        "events_per_s": N_EVENTS / events_s,
        "raw_heap_floor_s": floor_s,
        "overhead_ratio": ratio,
        "overhead_ratio_limit": EVENT_OVERHEAD_LIMIT,
        "switches": N_SWITCHES,
        "switch_best_s": switch_s,
        "switches_per_s": N_SWITCHES / switch_s,
    }
    assert ratio <= EVENT_OVERHEAD_LIMIT, (
        f"kernel event loop is {ratio:.2f}x the raw-heap floor "
        f"(limit {EVENT_OVERHEAD_LIMIT}): event throughput regressed >20%"
    )


# --------------------------------------------------- sweep fan-out + cache

def test_sweep_wall_clock_parallel_and_cache(scale, bench_report):
    """fig7 three ways: serial cold, warm disk cache, ``--jobs <nproc>``.

    The serial and parallel runs must agree exactly (the fan-out's
    determinism contract); the speedup itself is only asserted on hosts
    with enough cores to show one, but is always *recorded*.
    """
    cpu_count = os.cpu_count() or 1
    jobs = cpu_count

    runner.clear_cache()
    t0 = time.perf_counter()
    serial = runner.run("fig7", scale=scale, jobs=1)
    serial_s = time.perf_counter() - t0

    runner.SWEEPS.forget()  # memory tier only: measure a *disk* hit
    t0 = time.perf_counter()
    warm = runner.run("fig7", scale=scale, jobs=1)
    cache_hit_s = time.perf_counter() - t0

    runner.clear_cache()
    t0 = time.perf_counter()
    parallel = runner.run("fig7", scale=scale, jobs=jobs)
    parallel_s = time.perf_counter() - t0
    runner.clear_cache()

    bench_report["sweep"] = {
        "experiment": "fig7",
        "scale": scale,
        "serial_cold_s": serial_s,
        "disk_cache_hit_s": cache_hit_s,
        "cache_hit_speedup": serial_s / cache_hit_s,
        "cpu_count": cpu_count,
        "parallel_jobs": jobs,
        "parallel_cold_s": parallel_s,
        "parallel_speedup": serial_s / parallel_s,
    }

    assert serial.series == parallel.series == warm.series
    assert serial.notes == parallel.notes
    assert cache_hit_s < 5.0, f"warm-cache re-run took {cache_hit_s:.1f}s"
    if cpu_count == 1:
        return  # single-core host: speedup ~1.0 is expected, not a regression
    if jobs >= 4:
        speedup = serial_s / parallel_s
        assert speedup >= 1.5, (
            f"--jobs {jobs} only {speedup:.2f}x faster than serial"
        )
