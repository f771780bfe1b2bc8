"""Machine-readable edge-tier trajectory: pooled fan-in + RTT tails.

Every swept ``(clients, gateways)`` point's RTT percentiles, upstream
connection counts and shed/park counters — against the no-edge direct
baseline — land in ``benchmarks/results/BENCH_edge.json`` (uploaded as a
CI artifact) so the gateway tier's perf trajectory is a reviewable number,
not a claim.

Regression gates are *shape* properties, machine-independent:

* pooled upstream connections must be independent of the client population
  at every gateway count (the pgbouncer-style multiplexing headline);
* edge P99 RTT at the ~10k-client point must stay within a bounded factor
  of direct middleware delivery — the gateway hop is cheap;
* delivery loss must be 0 at every swept point.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

from repro.harness import edge_experiments as edge
from repro.harness.parallel import sweep as run_sweep
from repro.harness.registry import RunContext
from repro.harness.scale import Scale

RESULTS_DIR = Path(__file__).parent / "results"
OUT_PATH = RESULTS_DIR / "BENCH_edge.json"

#: Edge P99 may cost at most this factor of direct delivery at ~10k clients.
P99_FACTOR_BOUND = 2.0

#: Results accumulated by the test and flushed once per session.
_report: dict = {}


@pytest.fixture(scope="session", autouse=True)
def edge_report():
    _report.update(
        schema="repro.bench_edge/1",
        host={
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
        },
    )
    yield _report
    RESULTS_DIR.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(_report, indent=2) + "\n", encoding="utf-8")


def _point_entry(run: edge.EdgeRunResult) -> dict:
    return {
        "rtt_p50_ms": run.rtt_p50_ms,
        "rtt_p99_ms": run.rtt_p99_ms,
        "loss_rate": run.loss_rate,
        "sent": run.sent,
        "received": run.received,
        "pooled_connections": run.pooled_connections,
        "baseline_connections": run.baseline_connections,
        "long_polls_parked": run.long_polls_parked,
        "polls_shed": run.polls_shed,
        "polls_timed_out": run.polls_timed_out,
    }


def test_edge_scaling_trajectory(scale, save_result, edge_report):
    run_scale = Scale.named(scale)
    specs = edge.edge_sweep(RunContext(run_scale))
    points = tuple(specs)
    jobs = min(os.cpu_count() or 1, len(points))

    t0 = time.perf_counter()
    sweep = run_sweep(specs, jobs)
    direct = edge.direct_point("narada", scale=run_scale)
    sweep_s = time.perf_counter() - t0

    result = edge.edge_scaling(sweep, {"narada": direct})
    save_result(result)

    edge_report["edge"] = {
        "scale": run_scale.name,
        "middleware": "narada",
        "points_swept": [list(p) for p in points],
        "sweep_wall_clock_s": sweep_s,
        "direct": {
            "rtt_p50_ms": direct.rtt_p50_ms,
            "rtt_p99_ms": direct.rtt_p99_ms,
            "loss_rate": direct.loss_rate,
        },
        "points": {
            f"{c}x{g}": _point_entry(sweep[(c, g)]) for c, g in points
        },
        "p99_factor_bound": P99_FACTOR_BOUND,
    }

    # shape gates (machine-independent)
    by_gateways: dict[int, list[edge.EdgeRunResult]] = {}
    for (c, g), run in sweep.items():
        by_gateways.setdefault(g, []).append(run)
    for g, runs in by_gateways.items():
        pooled = {r.pooled_connections for r in runs}
        assert len(pooled) == 1, (
            f"pooled connections vary with client count at {g} gateway(s): "
            f"{sorted(pooled)} — the multiplexing headline is broken"
        )
    max_clients = max(c for c, _ in points)
    max_pooled = max(r.pooled_connections for r in sweep.values())
    assert max_pooled < max_clients / 100, (
        f"{max_pooled} upstream connections for {max_clients} clients: "
        "fan-in is not being pooled"
    )

    sample = min(
        sweep.values(), key=lambda r: (abs(r.n_clients - 10_000), r.n_gateways)
    )
    factor = sample.rtt_p99_ms / direct.rtt_p99_ms
    edge_report["edge"]["p99_factor_at_10k"] = factor
    assert factor <= P99_FACTOR_BOUND, (
        f"edge P99 {sample.rtt_p99_ms:.1f} ms at {sample.n_clients} clients "
        f"is {factor:.2f}x direct ({direct.rtt_p99_ms:.1f} ms), "
        f"over the {P99_FACTOR_BOUND}x bound"
    )

    for (c, g), run in sweep.items():
        assert run.loss_rate == 0.0, f"lost messages at {c} clients x{g} gateways"
