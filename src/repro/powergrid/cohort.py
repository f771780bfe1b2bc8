"""Vectorized generator-cohort dynamics and rate integration.

A homogeneous cohort — contiguous ``gen_id`` range, one capacity, one site
— evolves as arrays.  Randomness comes from :mod:`repro.powergrid.noise`
(counter-based: a message's :func:`~repro.powergrid.noise.key` of
``(seed, gen_id, seq)`` plus a field tag), so the *same* functions
evaluated over a length-1 array reproduce one generator's trajectory
bit-for-bit — the zoom escape hatch of :mod:`repro.powergrid.fleet_engine`.

:meth:`CohortDynamics.breaker` is the trip/reclose rule, the only piece of
generator state a fleet outcome reads (it sets the payload size).  Power,
voltage and frequency readings reach no fleet outcome, so no cohort
computes them.

:func:`advance_interval` is the cohort-wide twin of
:func:`repro.powergrid.rates.rate_sleep`: it integrates a
:class:`~repro.powergrid.rates.RateSchedule` over one publication interval
for every generator at once, replicating ``rate_sleep``'s float operations
expression-for-expression (including ``now + (horizon - now)`` at window
boundaries and the ``_EPS`` comparisons) so a vectorized cohort and a
per-process generator wake at *identical* float timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.powergrid import noise
from repro.powergrid.rates import _EPS, RateSchedule


@dataclass(frozen=True)
class CohortSpec:
    """One homogeneous generator cohort: ``gen_lo <= gen_id < gen_hi``."""

    gen_lo: int
    gen_hi: int
    capacity_kw: float = 50.0
    site: str = "uk-site"
    trip_probability: float = 0.002

    def __post_init__(self) -> None:
        if self.gen_hi <= self.gen_lo:
            raise ValueError("cohort needs a non-empty generator range")

    @property
    def size(self) -> int:
        return self.gen_hi - self.gen_lo

    def gen_ids(self) -> np.ndarray:
        return np.arange(self.gen_lo, self.gen_hi, dtype=np.int64)

    def cache_key(self) -> tuple:
        return (
            self.gen_lo,
            self.gen_hi,
            self.capacity_kw,
            self.site,
            self.trip_probability,
        )


class CohortDynamics:
    """The :class:`PowerGenerator` breaker over generator-id arrays.

    :meth:`breaker` accepts arrays of any shape (length-1 for the zoomed
    per-process path) and is a pure function of the message key plus the
    carried state — no sequential RNG, no call-order dependence.
    """

    def __init__(self, seed: int, spec: CohortSpec):
        self.seed = seed
        self.spec = spec

    def breaker(self, k: np.ndarray, closed: np.ndarray) -> np.ndarray:
        """The breaker state after one message keyed ``k``: a closed breaker
        trips with ``trip_probability``, an open one recloses with 0.2."""
        u = noise.u01(k, noise.FIELD_TRIP)
        return np.where(closed, u >= self.spec.trip_probability, u < 0.2)


def warmup_times(
    seed: int, gen_ids: Any, warmup_lo: float, warmup_hi: float
) -> np.ndarray:
    """Per-generator warm-up sleeps in ``[lo, hi)`` (paper: 10-20 s)."""
    return noise.uniform(
        noise.key(seed, gen_ids, 0), noise.FIELD_WARMUP, warmup_lo, warmup_hi
    )


def _multiplier_at(
    schedule: RateSchedule, gen_ids: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Vector twin of :meth:`RateSchedule.multiplier_at` (same window order,
    so the product accumulates through the same float multiplications)."""
    m = np.ones(t.shape)
    for w in schedule:
        mask = (
            (gen_ids >= w.gen_lo)
            & (gen_ids < w.gen_hi)
            & (t >= w.start)
            & (t < w.end)
        )
        if mask.any():
            m = np.where(mask, m * w.multiplier, m)
    return m


def _next_boundary(
    schedule: RateSchedule, gen_ids: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Vector twin of :meth:`RateSchedule.next_boundary`; ``inf`` for none."""
    best = np.full(t.shape, np.inf)
    for w in schedule:
        in_range = (gen_ids >= w.gen_lo) & (gen_ids < w.gen_hi)
        for edge in (w.start, w.end):
            better = in_range & (edge > t + _EPS) & (edge < best)
            if better.any():
                best = np.where(better, edge, best)
    return best


def advance_interval(
    schedule: Optional[RateSchedule],
    gen_ids: Any,
    now: Any,
    base_interval: float,
    stop_at: Any,
) -> np.ndarray:
    """The wake time ending one publication interval begun at ``now``.

    Per-generator, vectorized; replicates :func:`rate_sleep` float-op for
    float-op, so the returned times equal ``sim.now`` after ``yield from
    rate_sleep(...)`` exactly.  A generator that ``rate_sleep`` would leave
    untouched (entry with ``now >= stop_at - _EPS``) keeps its entry time —
    callers detect the lack of progress the same way the publish loops do.
    """
    ids = np.asarray(gen_ids, dtype=np.int64)
    now = np.array(now, dtype=float)
    stop = np.broadcast_to(np.asarray(stop_at, dtype=float), now.shape)
    if schedule is None or not len(schedule):
        return now + base_interval
    need = np.ones(now.shape)
    returned = np.zeros(now.shape, dtype=bool)
    while True:
        work = ~returned & (need > _EPS)
        if not work.any():
            return now
        stopped = work & (now >= stop - _EPS)
        returned |= stopped
        work &= ~stopped
        if not work.any():
            continue
        m = _multiplier_at(schedule, ids, now)
        horizon = np.minimum(_next_boundary(schedule, ids, now), stop)
        frozen = work & (m <= 0.0)
        rest = work & ~frozen
        with np.errstate(divide="ignore", invalid="ignore"):
            remaining = need * base_interval / m
        finish = rest & (now + remaining <= horizon + _EPS)
        cont = rest & ~finish
        step = now + (horizon - now)
        need = np.where(
            cont, need - (horizon - now) * m / base_interval, need
        )
        now = np.where(finish, now + remaining, np.where(
            frozen | cont, step, now
        ))
        returned |= finish
