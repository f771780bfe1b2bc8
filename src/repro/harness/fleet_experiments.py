"""The ``fleet_scaling`` experiment: 10^3 -> 10^6 publishers, three ways.

Sweeps the vectorized cohort fleet engine
(:mod:`repro.powergrid.fleet_engine`) across publisher counts far beyond
the paper's thousands, on all three middleware service models.  Aggregate
mode carries the full 10^3 -> 10^6 sweep; per-process mode re-runs the two
smallest points as the exactness reference — the agreement check
(:func:`repro.powergrid.fleet_engine.verify_agreement`) asserts identical
message/loss/duplicate counts and matching P50/P95/P99, and the headline
is the wall-clock-per-publisher ratio between the modes at the largest
common point.  A zoom check additionally re-runs one aggregate point with
a mid-fleet cohort carved back out to per-process simulation, which must
change nothing at all.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.core import ExperimentResult
from repro.harness.parallel import RunSpec
from repro.harness.registry import Experiment, RunContext
from repro.harness.scale import Scale
from repro.powergrid.fleet_engine import (
    DEFAULT_COHORT_SIZE,
    FLEET_MIDDLEWARES,
    FleetOutcome,
    FleetRunParams,
    run_fleet_point,
    verify_agreement,
)

#: Aggregate-mode publisher counts (the ROADMAP's million-source target).
FLEET_SWEEP = (1_000, 10_000, 100_000, 1_000_000)

#: Per-process reference points (the modes must agree here exactly; the
#: largest is the speedup denominator).
PROCESS_SWEEP = (1_000, 10_000)

#: Cohort width for the aggregate sweeps.
COHORT_SIZE = DEFAULT_COHORT_SIZE

#: Zoom check: this id range of the smallest aggregate point re-runs as
#: per-process simulation inside the otherwise-aggregate run.
ZOOM_RANGE = (128, 192)

#: Quantile tolerance for aggregate-vs-process agreement (bit-identical in
#: practice; the tolerance covers quantile interpolation only).
AGREEMENT_RTOL = 1e-9


def sweep_points(scale: Scale, mode: str) -> tuple[int, ...]:
    """Publisher counts for one sweep leg (same at every scale preset —
    the preset moves the per-point duration, not the axis)."""
    return FLEET_SWEEP if mode == "aggregate" else PROCESS_SWEEP


def fleet_sweep(
    ctx: RunContext,
    mode: str,
    points: Optional[tuple[int, ...]] = None,
    middlewares: tuple[str, ...] = FLEET_MIDDLEWARES,
    cohort_size: int = COHORT_SIZE,
) -> dict[tuple[str, int], RunSpec]:
    """One sweep leg (``"aggregate"`` or ``"process"``) over every service
    model: ``{(middleware, n_publishers): spec}`` in middleware, then point
    order."""
    if points is None:
        points = sweep_points(ctx.scale, mode)
    return {
        (mw, n): ctx.spec(
            run_fleet_point, middleware=mw, n_publishers=n, mode=mode,
            cohort_size=cohort_size,
        )
        for mw in middlewares
        for n in points
    }


def zoom_check(
    middleware: str,
    n_publishers: int,
    scale: Scale,
    seed: int = 1,
    zoom: tuple[int, int] = ZOOM_RANGE,
) -> tuple[FleetOutcome, FleetOutcome]:
    """Aggregate vs aggregate-with-zoomed-cohort; verifies and returns both."""
    plain = run_fleet_point(
        middleware, n_publishers, scale, seed=seed, mode="aggregate"
    )
    zoomed = run_fleet_point(
        middleware, n_publishers, scale, seed=seed, mode="aggregate",
        zoom=zoom,
    )
    verify_agreement(plain, zoomed, rtol=AGREEMENT_RTOL)
    return plain, zoomed


def fleet_scaling(
    aggregate: dict[tuple[str, int], FleetOutcome],
    process: dict[tuple[str, int], FleetOutcome],
    scale: Scale,
    seed: int = 1,
    zoom: Optional[tuple[int, int]] = ZOOM_RANGE,
) -> ExperimentResult:
    """Build the ``fleet_scaling`` result from the two sweep legs
    (``{(middleware, n_publishers): outcome}``, as :func:`fleet_sweep`
    keys them).

    Verifies aggregate-vs-process agreement at every common point (raises
    on any mismatch — the CI gate) and runs the zoom escape-hatch check on
    the smallest point of every middleware.
    """
    result = ExperimentResult(
        "fleet_scaling",
        "Vectorized cohort fleets: 10^3 -> 10^6 publishers",
        "publishers",
        "events/s (emitted, wall-clock)",
    )
    headers = [
        "middleware", "mode", "publishers", "published", "lost", "dup",
        "p50 ms", "p99 ms", "wall s", "us/publisher", "events/s",
    ]
    rows: list[list] = []
    speedups: dict[str, float] = {}
    agreement: dict[str, dict[int, bool]] = {}
    aggregate, process = _by_middleware(aggregate), _by_middleware(process)
    for mw in FLEET_MIDDLEWARES:
        agg = aggregate.get(mw, {})
        proc = process.get(mw, {})
        for n, outcome in sorted(agg.items()):
            result.add_point(f"{mw} aggregate", n, outcome.events_per_s)
            rows.append(_row(mw, outcome))
        for n, outcome in sorted(proc.items()):
            result.add_point(f"{mw} process", n, outcome.events_per_s)
            rows.append(_row(mw, outcome))
        common = sorted(set(agg) & set(proc))
        agreement[mw] = {}
        for n in common:
            verify_agreement(agg[n], proc[n], rtol=AGREEMENT_RTOL)
            agreement[mw][n] = True
        if common:
            n = common[-1]
            speedups[mw] = (
                proc[n].wall_per_publisher_s / agg[n].wall_per_publisher_s
            )
    zoom_ok: dict[str, bool] = {}
    if zoom is not None:
        for mw in FLEET_MIDDLEWARES:
            agg = aggregate.get(mw, {})
            if not agg:
                continue
            smallest = min(agg)
            zoom_check(mw, smallest, scale, seed=seed, zoom=zoom)
            zoom_ok[mw] = True
    result.table = (headers, rows)
    result.meta["aggregate"] = aggregate
    result.meta["process"] = process
    result.meta["speedup_per_publisher"] = speedups
    result.meta["agreement"] = agreement
    result.meta["zoom_ok"] = zoom_ok
    result.meta["params"] = {
        n: FleetRunParams.from_scale(scale, n).cache_key()
        for n in FLEET_SWEEP
    }
    for mw, speedup in sorted(speedups.items()):
        n = max(set(aggregate.get(mw, {})) & set(process.get(mw, {})))
        result.note(
            f"{mw}: aggregate mode is {speedup:,.0f}x cheaper per publisher "
            f"than per-process at n={n:,}"
        )
    biggest = max(
        (o for sweeps in aggregate.values() for o in sweeps.values()),
        key=lambda o: o.n_publishers,
        default=None,
    )
    if biggest is not None:
        result.note(
            f"largest aggregate point: {biggest.n_publishers:,} publishers, "
            f"{biggest.published:,} messages in {biggest.wall_s:.2f}s wall "
            f"({biggest.events_per_s:,.0f} events/s, "
            f"{biggest.ticks} cohort ticks, "
            f"{biggest.events_scheduled} kernel events)"
        )
    if agreement and all(v for per_mw in agreement.values() for v in per_mw.values()):
        result.note(
            "aggregate vs per-process: identical message/loss/duplicate "
            "counts and matching P50/P95/P99 at every common point; "
            "zoomed cohorts change nothing"
        )
    return result


def _by_middleware(
    sweep: dict[tuple[str, int], FleetOutcome]
) -> dict[str, dict[int, FleetOutcome]]:
    nested: dict[str, dict[int, FleetOutcome]] = {}
    for (mw, n), outcome in sweep.items():
        nested.setdefault(mw, {})[n] = outcome
    return nested


def _row(mw: str, o: FleetOutcome) -> list:
    return [
        mw,
        o.mode,
        o.n_publishers,
        o.published,
        o.lost,
        o.duplicates,
        f"{o.p50_ms:.3f}",
        f"{o.p99_ms:.3f}",
        f"{o.wall_s:.3f}",
        f"{o.wall_per_publisher_s * 1e6:.1f}",
        f"{o.events_per_s:,.0f}",
    ]


EXPERIMENTS = (
    Experiment(
        "fleet_scaling",
        "Vectorized cohort fleets: 10^3-10^6 publishers, 3 middlewares",
        fleet_scaling,
        reads=(
            partial(fleet_sweep, mode="aggregate"),
            partial(fleet_sweep, mode="process"),
        ),
        params=("scale", "seed"),
    ),
)
