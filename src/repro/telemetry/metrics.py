"""Counters, gauges and streaming histograms keyed by middleware/component.

A histogram keeps fixed geometric buckets of ratio ``factor``, because the
paper's figures need tails (percentile-of-RTT, Figs 4/8-10/12/14) and a
serving stack cannot afford to keep every sample.  A quantile is linearly
interpolated inside its bucket, so the estimate and the exact value share a
bucket and the relative error is bounded by ``factor - 1`` (the documented
bound ``tests/telemetry/test_metrics.py`` asserts against
``numpy.percentile`` on bimodal and heavy-tailed inputs).  Bucket counts
add, so a histogram merged from ``--jobs N`` workers reports exactly the
quantiles of one filled serially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

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


#: Buckets for leader-election latency (seconds): elections resolve within
#: one failure-detection scan (~0.25 s), so the default milliseconds-first
#: latency buckets would lump every observation into a handful of bins.
#: 1 ms .. ~60 s at the default factor keeps the histogram informative for
#: both the detection delay and pathological multi-failure stalls.
ELECTION_LATENCY_BUCKETS = geometric_buckets(1e-3, 60.0)


class Counter:
    """A monotone event count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def merge(self, other: "Counter") -> None:
        """Fold a fan-out worker's counter into this one (exact)."""
        self.value += other.value

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

    def merge(self, other: "Gauge") -> None:
        """Fold a worker's gauge in: n/total/min/max are exact; ``value``
        (last set) takes the merged-in side's, treating it as later."""
        if other.n == 0:
            return
        self.n += other.n
        self._total += other._total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.value = other.value

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

    def add_many(self, values) -> None:
        """Vectorized :meth:`observe` for a whole batch of values.

        ``n``, ``total``, ``min``/``max`` and the bucket counts update
        exactly as a loop of ``observe`` calls would (``searchsorted`` over
        the same bounds ``_bucket_index`` binary-searches), so quantiles and
        :meth:`merge` behave identically.
        """
        import numpy as np

        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        self.n += int(arr.size)
        self.total += float(arr.sum())
        lo = float(arr.min())
        hi = float(arr.max())
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        idx = np.searchsorted(np.asarray(self.bounds), arr, side="left")
        counts = np.bincount(idx, minlength=len(self.counts))
        self.counts = [a + int(b) for a, b in zip(self.counts, counts)]

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

    def merge(self, other: "Histogram") -> None:
        """Fold a worker's histogram in: bucket counts, n, total and
        min/max merge exactly (bounds must match)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        if other.n == 0:
            return
        self.n += other.n
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean if self.n else 0.0,
            "min": self.min if self.n else 0.0,
            "max": self.max if self.n else 0.0,
            "quantiles": {f"p{q * 100:g}": self.quantile(q) for q in QUANTILES},
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

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold every instrument of ``other`` into this registry.

        Instruments absent here are adopted by reference (``other`` is a
        discarded worker export, never used again); same-key instruments
        must agree on kind and merge via their ``merge`` methods.
        """
        for key, instrument in other:
            mine = self._metrics.get(key)
            if mine is None:
                self._metrics[key] = instrument
                continue
            if mine.kind != instrument.kind:  # type: ignore[attr-defined]
                raise TypeError(
                    f"cannot merge {instrument.kind} into {mine.kind} at {key}"  # type: ignore[attr-defined]
                )
            mine.merge(instrument)  # type: ignore[attr-defined]

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
