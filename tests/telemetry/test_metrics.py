"""Counters, gauges and the bucketed streaming histogram.

The accuracy tests pit the histogram against ``numpy.percentile`` on
adversarial distributions: the relative error is bounded by ``factor - 1``
(~19 % at the default ratio) whenever the value lies inside the bucket
range — the documented bound, asserted on every distribution.
"""

import math

import numpy as np
import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKET_FACTOR,
    Counter,
    Gauge,
    Histogram,
    MetricKey,
    MetricsRegistry,
    QUANTILES,
    geometric_buckets,
)


def _bimodal(rng: np.random.Generator) -> np.ndarray:
    """Two well-separated modes (~5 ms and ~500 ms), 60/40 mix."""
    return np.concatenate(
        [rng.normal(5.0, 0.5, 30_000), rng.normal(500.0, 40.0, 20_000)]
    ).clip(0.02)


def _heavy_tail(rng: np.random.Generator) -> np.ndarray:
    """Pareto(α=1.5): infinite variance, the worst case for fixed buckets."""
    return (rng.pareto(1.5, 50_000) + 1.0) * 3.0


def _lognormal(rng: np.random.Generator) -> np.ndarray:
    return rng.lognormal(3.0, 1.2, 50_000)


DISTRIBUTIONS = {
    "bimodal": _bimodal,
    "heavy_tail": _heavy_tail,
    "lognormal": _lognormal,
}


def _fill(xs: np.ndarray) -> Histogram:
    h = Histogram()
    for x in xs:
        h.observe(float(x))
    return h


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("q", QUANTILES)
def test_bucketed_quantile_within_documented_bound(name, q):
    xs = DISTRIBUTIONS[name](np.random.default_rng(42))
    h = _fill(xs)
    exact = float(np.percentile(xs, q * 100.0))
    estimate = h.quantile(q)
    bound = DEFAULT_BUCKET_FACTOR - 1.0  # ~19 % relative
    assert abs(estimate - exact) / exact <= bound


def test_geometric_buckets_cover_range_and_validate():
    bounds = geometric_buckets(1e-2, 1e5)
    assert bounds[0] == 1e-2
    assert bounds[-1] >= 1e5
    ratios = [b / a for a, b in zip(bounds, bounds[1:])]
    assert all(r == pytest.approx(DEFAULT_BUCKET_FACTOR) for r in ratios)
    with pytest.raises(ValueError):
        geometric_buckets(0.0, 1.0)
    with pytest.raises(ValueError):
        geometric_buckets(1.0, 1.0)
    with pytest.raises(ValueError):
        geometric_buckets(1.0, 2.0, factor=1.0)


def test_histogram_edge_cases():
    h = Histogram(buckets=(1.0, 2.0, 4.0))
    assert math.isnan(h.quantile(0.5))
    # ... but the exported dict is strict JSON: an empty histogram's
    # quantiles are written as zeros, like its mean/min/max.
    assert set(h.to_dict()["quantiles"].values()) == {0.0}
    for x in (0.5, 1.5, 3.0, 100.0):  # 100.0 lands in the overflow bucket
        h.observe(x)
    assert h.n == 4
    assert h.counts[-1] == 1
    assert h.quantile(1.0) == 100.0
    assert h.min == 0.5 and h.max == 100.0
    with pytest.raises(ValueError):
        h.quantile(1.5)
    with pytest.raises(ValueError):
        Histogram(buckets=(2.0, 1.0))
    d = h.to_dict()
    assert d["n"] == 4
    assert set(d["quantiles"]) == {"p50", "p90", "p95", "p99"}


def test_counter_and_gauge():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)
    g = Gauge()
    assert g.to_dict()["min"] == 0.0  # empty gauge renders zeros
    for v in (3.0, 1.0, 2.0):
        g.set(v)
    assert g.value == 2.0 and g.min == 1.0 and g.max == 3.0
    assert g.mean == pytest.approx(2.0)


def test_registry_get_or_create_and_kind_mismatch():
    reg = MetricsRegistry()
    c = reg.counter("plog", "broker1", "produces")
    assert reg.counter("plog", "broker1", "produces") is c
    with pytest.raises(TypeError):
        reg.gauge("plog", "broker1", "produces")
    with pytest.raises(TypeError):
        reg.histogram("plog", "broker1", "produces")
    reg.gauge("narada", "broker1", "heap")
    reg.histogram("rgma", "harness", "rtt_ms")
    assert len(reg) == 3
    keys = [str(k) for k, _ in reg]
    assert keys == sorted(keys)  # deterministic iteration order
    assert str(MetricKey("a", "b", "c")) == "a/b/c"
    d = reg.to_dict()
    assert d["plog/broker1/produces"]["kind"] == "counter"
    assert d["narada/broker1/heap"]["kind"] == "gauge"
    assert d["rgma/harness/rtt_ms"]["kind"] == "histogram"
