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


# --------------------------------------------------------------- add_many

def test_add_many_matches_observe_loop_exactly():
    """Batch feeding must leave n/total/min/max and every bucket count
    exactly as the equivalent observe() loop would — bucketed quantiles
    and merge() then agree by construction."""
    rng = np.random.default_rng(5)
    values = np.concatenate([
        rng.lognormal(1.0, 1.5, 4000),
        [0.0, 1e-9, 1e12],  # underflow edge, tiny, overflow bucket
        np.array([1.0, 1.0, 1.0]),  # exact bound duplicates
    ])
    batched = Histogram()
    batched.add_many(values)
    looped = Histogram()
    for v in values:
        looped.observe(float(v))
    assert batched.n == looped.n
    assert batched.total == pytest.approx(looped.total, rel=1e-12)
    assert batched.min == looped.min
    assert batched.max == looped.max
    assert batched.counts == looped.counts
    for q in (0.5, 0.95, 0.99):
        assert batched.quantile(q) == looped.quantile(q)


def test_add_many_exact_bucket_boundary_values():
    """searchsorted(side='left') must agree with _bucket_index's binary
    search on values sitting exactly on a bucket bound."""
    h_batch = Histogram(buckets=(1.0, 2.0, 4.0))
    h_loop = Histogram(buckets=(1.0, 2.0, 4.0))
    vals = [1.0, 2.0, 4.0, 0.5, 3.0, 5.0]
    h_batch.add_many(vals)
    for v in vals:
        h_loop.observe(v)
    assert h_batch.counts == h_loop.counts == [2, 1, 2, 1]


def test_add_many_empty_and_incremental():
    h = Histogram()
    h.add_many([])
    assert h.n == 0
    h.add_many([1.0, 2.0])
    h.add_many(np.array([3.0]))
    assert h.n == 3
    assert h.total == pytest.approx(6.0)
    assert (h.min, h.max) == (1.0, 3.0)
