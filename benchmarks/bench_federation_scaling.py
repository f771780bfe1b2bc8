"""Machine-readable federation trajectory: per-link traffic + RTT tails.

Tracks the federation subsystem the way ``bench_sweep_parallel`` tracks the
kernel: every swept broker count's per-link message counts and delivery RTT
percentiles — routed tree vs broadcast DBN — land in
``benchmarks/results/BENCH_federation.json`` (uploaded as a CI artifact) so
the subsystem's perf trajectory is a reviewable number, not a claim.

Regression gates are *shape* properties, machine-independent:

* routed per-link traffic must grow strictly slower than broadcast across
  the sweep (the topic-aware-routing headline);
* broadcast growth must be ~linear in broker count (the v1.1.3 DBN model);
* routed delivery loss must be 0 at every swept scale — the traffic saving
  is not paid in delivery guarantees.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

from repro.harness import federation_experiments as fed
from repro.harness.parallel import sweep
from repro.harness.registry import RunContext
from repro.harness.scale import Scale

RESULTS_DIR = Path(__file__).parent / "results"
OUT_PATH = RESULTS_DIR / "BENCH_federation.json"

#: Results accumulated by the test and flushed once per session.
_report: dict = {}


@pytest.fixture(scope="session", autouse=True)
def federation_report():
    _report.update(
        schema="repro.bench_federation/1",
        host={
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
        },
    )
    yield _report
    RESULTS_DIR.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(_report, indent=2) + "\n", encoding="utf-8")


def _leg_entry(run: fed.FederationRunResult) -> dict:
    return {
        "per_link_mean": run.per_link_mean,
        "per_link_max": run.per_link_max,
        "rtt_p50_ms": run.rtt_p50_ms,
        "rtt_p99_ms": run.rtt_p99_ms,
        "loss_rate": run.loss_rate,
        "sent": run.sent,
        "received": run.received,
    }


def test_federation_scaling_trajectory(scale, save_result, federation_report):
    run_scale = Scale.named(scale)
    ctx = RunContext(run_scale)
    counts = tuple(fed.routed_sweep(ctx))
    jobs = min(os.cpu_count() or 1, len(counts))

    t0 = time.perf_counter()
    routed = sweep(fed.routed_sweep(ctx), jobs)
    broadcast = sweep(fed.broadcast_sweep(ctx), jobs)
    sweep_s = time.perf_counter() - t0

    result = fed.federation_scaling(routed, broadcast)
    save_result(result)

    lo, hi = counts[0], counts[-1]
    broker_growth = hi / lo
    routed_growth = routed[hi].per_link_mean / routed[lo].per_link_mean
    bcast_growth = broadcast[hi].per_link_mean / broadcast[lo].per_link_mean
    federation_report["federation"] = {
        "scale": run_scale.name,
        "broker_counts": list(counts),
        "fanout": fed.FANOUT,
        "sweep_wall_clock_s": sweep_s,
        "points": {
            str(n): {
                "routed": _leg_entry(routed[n]),
                "broadcast": _leg_entry(broadcast[n]),
            }
            for n in counts
        },
        "broker_growth": broker_growth,
        "routed_per_link_growth": routed_growth,
        "broadcast_per_link_growth": bcast_growth,
    }

    # shape gates (machine-independent)
    assert routed_growth < bcast_growth, (
        f"routed per-link traffic grew x{routed_growth:.2f} vs broadcast "
        f"x{bcast_growth:.2f}: topic-aware routing lost its headline"
    )
    # broadcast floods every link: growth tracks broker count ~linearly
    assert bcast_growth == pytest.approx(broker_growth, rel=0.15)
    # routed stays sub-linear: well under half the broadcast slope
    assert routed_growth < 0.75 * bcast_growth
    for n in counts:
        assert routed[n].loss_rate == 0.0, (
            f"routed leg lost messages at {n} brokers"
        )
        assert routed[n].per_link_mean < broadcast[n].per_link_mean
