"""Counters, gauges and streaming histograms keyed by middleware/component.

A histogram keeps fixed geometric buckets of ratio ``factor``, because the
paper's figures need tails (percentile-of-RTT, Figs 4/8-10/12/14) and a
serving stack cannot afford to keep every sample.  A quantile is linearly
interpolated inside its bucket, so the estimate and the exact value share a
bucket and the relative error is bounded by ``factor - 1`` (the documented
bound ``tests/telemetry/test_metrics.py`` asserts against
``numpy.percentile`` on bimodal and heavy-tailed inputs).  A session fills
its instruments from finished runs in point order, so a float mean is the
same running total under any ``--jobs`` and from any cache tier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

#: Quantiles every histogram reports in :meth:`Histogram.to_dict`.
QUANTILES = (0.50, 0.90, 0.95, 0.99)

#: Default geometric bucket ratio; bounds the bucketed-quantile relative
#: error at ``DEFAULT_BUCKET_FACTOR - 1`` (~19 %).
DEFAULT_BUCKET_FACTOR = 2.0 ** 0.25


def geometric_buckets(
    lo: float = 1e-2,
    hi: float = 1e5,
    factor: float = DEFAULT_BUCKET_FACTOR,
) -> tuple[float, ...]:
    """Bucket upper bounds ``lo * factor**k`` covering ``[lo, hi]``.

    The defaults span 0.01 ms .. 100 s — every latency this testbed can
    produce — in ~93 buckets.
    """
    if lo <= 0 or hi <= lo or factor <= 1.0:
        raise ValueError("need 0 < lo < hi and factor > 1")
    bounds = []
    b = lo
    while b < hi:
        bounds.append(b)
        b *= factor
    bounds.append(b)
    return tuple(bounds)


class Counter:
    """A monotone event count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def to_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A sampled level (queue depth, heap bytes, CPU idle)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0
        self.n = 0
        self.min = math.inf
        self.max = -math.inf
        self._total = 0.0

    def set(self, value: float) -> None:
        self.value = value
        self.n += 1
        self._total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._total / self.n if self.n else 0.0

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "n": self.n,
            "min": self.min if self.n else 0.0,
            "max": self.max if self.n else 0.0,
            "mean": self.mean,
        }


class Histogram:
    """Fixed-bucket streaming histogram."""

    kind = "histogram"

    def __init__(self, buckets: Optional[Sequence[float]] = None):
        self.bounds = tuple(buckets) if buckets is not None else geometric_buckets()
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("bucket bounds must be ascending")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.n = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.n += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.counts[self._bucket_index(value)] += 1

    def _bucket_index(self, value: float) -> int:
        # Binary search over the upper bounds: bucket i covers
        # (bounds[i-1], bounds[i]]; everything above the last bound lands
        # in the overflow bucket.
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else float("nan")

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile (error bound: one bucket ratio)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.n == 0:
            return float("nan")
        if q >= 1.0:
            return self.max
        target = q * self.n
        cum = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            if cum + count >= target:
                lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                frac = (target - cum) / count
                return lo + frac * (hi - lo)
            cum += count
        return self.max  # pragma: no cover - q<1 always lands in-loop

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean if self.n else 0.0,
            "min": self.min if self.n else 0.0,
            "max": self.max if self.n else 0.0,
            "quantiles": {
                f"p{q * 100:g}": self.quantile(q) if self.n else 0.0
                for q in QUANTILES
            },
        }


@dataclass(frozen=True)
class MetricKey:
    """What a metric is keyed by: who produced it and what it counts."""

    middleware: str
    component: str
    name: str

    def __str__(self) -> str:
        return f"{self.middleware}/{self.component}/{self.name}"


class MetricsRegistry:
    """Get-or-create registry of instruments keyed middleware/component."""

    def __init__(self) -> None:
        self._metrics: dict[MetricKey, object] = {}

    def _get(self, key: MetricKey, factory):
        instrument = self._metrics.get(key)
        if instrument is None:
            instrument = factory()
            self._metrics[key] = instrument
        return instrument

    def counter(self, middleware: str, component: str, name: str) -> Counter:
        instrument = self._get(MetricKey(middleware, component, name), Counter)
        if not isinstance(instrument, Counter):
            raise TypeError(f"{middleware}/{component}/{name} is not a counter")
        return instrument

    def gauge(self, middleware: str, component: str, name: str) -> Gauge:
        instrument = self._get(MetricKey(middleware, component, name), Gauge)
        if not isinstance(instrument, Gauge):
            raise TypeError(f"{middleware}/{component}/{name} is not a gauge")
        return instrument

    def histogram(
        self,
        middleware: str,
        component: str,
        name: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        instrument = self._get(
            MetricKey(middleware, component, name),
            lambda: Histogram(buckets=buckets),
        )
        if not isinstance(instrument, Histogram):
            raise TypeError(f"{middleware}/{component}/{name} is not a histogram")
        return instrument

    def __iter__(self) -> Iterator[tuple[MetricKey, object]]:
        return iter(sorted(self._metrics.items(), key=lambda kv: str(kv[0])))

    def __len__(self) -> int:
        return len(self._metrics)

    def to_dict(self) -> dict:
        out: dict = {}
        for key, instrument in self:
            out[str(key)] = {
                "kind": instrument.kind,  # type: ignore[attr-defined]
                **instrument.to_dict(),  # type: ignore[attr-defined]
            }
        return out
