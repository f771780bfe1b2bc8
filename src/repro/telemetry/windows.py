"""Time-windowed quantiles: during-burst vs steady-state tails.

Scenario scorecards need "P99 while the alarm storm was blowing" next to
"P99 in calm air" — the same RTT population sliced by *send time* into
labeled :class:`TimeWindow` slices.  :class:`WindowedQuantiles` does the
slicing and keeps the raw samples per label, so quantiles are exact
(``np.percentile`` over the full slice), not streaming approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class TimeWindow:
    """One labeled slice of simulated time: ``start`` <= t < ``end``."""

    label: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("time window must end after it starts")

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end


def complement_windows(
    windows: Sequence[TimeWindow], start: float, end: float, label: str
) -> tuple[TimeWindow, ...]:
    """The gaps between ``windows`` inside ``[start, end)``, as ``label``.

    This is how a scenario's steady-state slice is derived from its burst
    slices: everything in the measurement window that no burst covers.
    """
    edges = sorted(
        (max(w.start, start), min(w.end, end))
        for w in windows
        if w.end > start and w.start < end
    )
    gaps: list[TimeWindow] = []
    cursor = start
    for lo, hi in edges:
        if lo > cursor:
            gaps.append(TimeWindow(label, cursor, lo))
        cursor = max(cursor, hi)
    if cursor < end:
        gaps.append(TimeWindow(label, cursor, end))
    return tuple(gaps)


class WindowedQuantiles:
    """Per-label RTT samples, sliced by a timestamp at observe time.

    Several windows may share a label (a storm front is many regional burst
    windows, all ``"burst"``); their samples pool into one population.
    """

    def __init__(self, windows: Iterable[TimeWindow]):
        self.windows = tuple(windows)
        self._samples: dict[str, list[float]] = {
            w.label: [] for w in self.windows
        }

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._samples)

    def observe(self, t: float, value: float) -> None:
        """File ``value`` under every window containing ``t``."""
        for w in self.windows:
            if w.contains(t):
                self._samples[w.label].append(value)

    def count(self, label: str) -> int:
        return len(self._samples[label])

    def samples(self, label: str) -> np.ndarray:
        return np.asarray(self._samples[label], dtype=float)

    def quantile(self, label: str, q: float) -> float:
        """The ``q``-quantile (0-100) of one label's slice; NaN when empty."""
        values = self._samples[label]
        if not values:
            return float("nan")
        return float(np.percentile(np.asarray(values, dtype=float), q))

    def p99_ms(self, label: str) -> float:
        return self.quantile(label, 99) * 1e3
