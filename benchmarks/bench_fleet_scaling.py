"""Machine-readable fleet trajectory: million-publisher sweeps + speedup.

Tracks the vectorized cohort fleet engine the way ``bench_sweep_parallel``
tracks the kernel: every swept publisher count's throughput (events/s) and
wall-clock per publisher — aggregate mode vs the per-process exactness
reference — land in ``benchmarks/results/BENCH_fleet.json`` (uploaded as a
CI artifact) so the engine's perf trajectory is a reviewable number, not a
claim.

Regression gates, machine-independent:

* aggregate mode must be >= 100x cheaper per publisher than per-process at
  the largest common point (the ISSUE's acceptance floor; measured ~1000x);
* aggregate vs per-process must agree on message/loss/duplicate counts
  exactly and on P50/P95/P99 within tolerance (``fleet_scaling`` raises
  otherwise), including with a zoomed-out cohort;
* per-publisher cost must improve monotonically (within noise) as cohort
  size grows, up to the plateau — the batching actually amortizes.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

from repro.harness import fleet_experiments as fleet
from repro.harness.parallel import sweep
from repro.harness.registry import RunContext
from repro.harness.scale import Scale
from repro.powergrid.fleet_engine import FLEET_MIDDLEWARES, run_fleet_point

RESULTS_DIR = Path(__file__).parent / "results"
OUT_PATH = RESULTS_DIR / "BENCH_fleet.json"

#: The acceptance floor for aggregate-vs-process per-publisher cost.
SPEEDUP_FLOOR = 100.0

#: Cohort widths for the shape gate (doublings up to the default).
SHAPE_SIZES = (128, 512, 2048, 8192)
SHAPE_N = 16_384

#: Results accumulated by the tests and flushed once per session.
_report: dict = {}


@pytest.fixture(scope="session", autouse=True)
def fleet_report():
    _report.update(
        schema="repro.bench_fleet/1",
        host={
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
        },
    )
    yield _report
    RESULTS_DIR.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(_report, indent=2) + "\n", encoding="utf-8")


def _point_entry(o) -> dict:
    return {
        "published": o.published,
        "lost": o.lost,
        "duplicates": o.duplicates,
        "p50_ms": o.p50_ms,
        "p99_ms": o.p99_ms,
        "wall_s": o.wall_s,
        "wall_per_publisher_us": o.wall_per_publisher_s * 1e6,
        "events_per_s": o.events_per_s,
        "kernel_events": o.events_scheduled,
        "cohort_ticks": o.ticks,
    }


def test_fleet_scaling_trajectory(scale, save_result, fleet_report):
    run_scale = Scale.named(scale)
    jobs = min(os.cpu_count() or 1, len(fleet.FLEET_SWEEP))

    t0 = time.perf_counter()
    ctx = RunContext(run_scale)
    aggregate = sweep(fleet.fleet_sweep(ctx, "aggregate"), jobs)
    process = sweep(fleet.fleet_sweep(ctx, "process"), jobs)
    sweep_s = time.perf_counter() - t0

    # Raises on any aggregate-vs-process or zoom disagreement: the CI gate.
    result = fleet.fleet_scaling(aggregate, process, scale=run_scale)
    save_result(result)

    speedups = result.meta["speedup_per_publisher"]
    fleet_report["fleet"] = {
        "scale": run_scale.name,
        "publisher_counts": list(fleet.FLEET_SWEEP),
        "process_counts": list(fleet.PROCESS_SWEEP),
        "cohort_size": fleet.COHORT_SIZE,
        "sweep_wall_clock_s": sweep_s,
        "speedup_per_publisher": speedups,
        "speedup_floor": SPEEDUP_FLOOR,
        "agreement": {
            mw: {str(n): ok for n, ok in per_mw.items()}
            for mw, per_mw in result.meta["agreement"].items()
        },
        "zoom_ok": result.meta["zoom_ok"],
        "points": {
            mw: {
                "aggregate": {
                    str(n): _point_entry(o)
                    for n, o in result.meta["aggregate"][mw].items()
                },
                "process": {
                    str(n): _point_entry(o)
                    for n, o in result.meta["process"][mw].items()
                },
            }
            for mw in FLEET_MIDDLEWARES
        },
    }

    for mw in FLEET_MIDDLEWARES:
        assert speedups[mw] >= SPEEDUP_FLOOR, (
            f"{mw}: aggregate mode only {speedups[mw]:.0f}x cheaper per "
            f"publisher than per-process (floor {SPEEDUP_FLOOR:.0f}x)"
        )
        # The million-publisher point actually ran, at sane throughput.
        biggest = aggregate[mw, max(fleet.FLEET_SWEEP)]
        assert biggest.published > 0
        assert biggest.events_per_s > 100_000


def test_cohort_size_shape_gate(fleet_report):
    """Per-publisher wall-clock must improve (or plateau) as cohorts widen:
    each doubling may never *regress* beyond noise, and the widest cohort
    must beat the narrowest outright — the batching amortizes."""
    smoke = Scale.smoke()
    walls: dict[int, float] = {}
    for size in SHAPE_SIZES:
        best = float("inf")
        for _ in range(3):
            out = run_fleet_point(
                "narada", SHAPE_N, smoke, mode="aggregate", cohort_size=size
            )
            best = min(best, out.wall_s)
        walls[size] = best / SHAPE_N
    fleet_report["cohort_shape"] = {
        "n_publishers": SHAPE_N,
        "wall_per_publisher_us": {
            str(s): w * 1e6 for s, w in walls.items()
        },
    }
    for narrow, wide in zip(SHAPE_SIZES, SHAPE_SIZES[1:]):
        assert walls[wide] <= walls[narrow] * 1.10, (
            f"cohort {wide} is slower per publisher than {narrow} "
            f"({walls[wide]*1e6:.1f}us vs {walls[narrow]*1e6:.1f}us)"
        )
    assert walls[SHAPE_SIZES[-1]] < walls[SHAPE_SIZES[0]]
