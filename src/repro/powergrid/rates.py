"""Mid-run publication-rate overrides.

The paper's workload publishes at a fixed per-generator rate for the whole
test.  Grid *scenarios* (``repro.scenario``) need the rate to move while the
fleet is running — an alarm storm multiplies a region's publication rate for
a window, a substation outage silences its generators — without restarting
the fleet or touching its RNG draws.

A :class:`RateSchedule` is pure data: a sorted set of piecewise-constant
:class:`RateWindow` entries, each multiplying the base publication rate of a
contiguous generator-id cohort over an absolute time window.  Overlapping
windows compose by *product* (a regional storm on top of a fleet-wide surge
multiplies), and a multiplier of ``0`` silences the cohort (publisher
die-off).  Ramps are discretized into constant steps at compile time
(:mod:`repro.scenario.compiler`), so the schedule stays piecewise-constant
and every window boundary is known in advance.

The fleet loops sleep through :func:`rate_sleep`, which integrates the
schedule: under multiplier ``m`` a generator accrues publication "work" at
``m`` base-intervals per base-interval, and it wakes at every window
boundary to re-read the multiplier — so a rate change takes effect *at the
event timestamp*, not at the generator's next full sleep.  With no schedule
the sleep degenerates to the paper's plain ``timeout(interval)``, event for
event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Boundary comparisons tolerate accumulated float error from the phase
#: integration without ever sleeping a zero-length segment.
_EPS = 1e-9


@dataclass(frozen=True)
class RateWindow:
    """One piecewise-constant rate multiplier.

    Applies to generators with ``gen_lo <= gen_id < gen_hi`` between the
    absolute simulated times ``start`` (inclusive) and ``end`` (exclusive).
    """

    start: float
    end: float
    gen_lo: int
    gen_hi: int
    multiplier: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("rate window must start at >= 0")
        if self.end <= self.start:
            raise ValueError("rate window must end after it starts")
        if self.gen_hi <= self.gen_lo:
            raise ValueError("rate window needs a non-empty generator range")
        if self.multiplier < 0:
            raise ValueError("rate multiplier must be >= 0")

    def covers(self, gen_id: int, t: float) -> bool:
        return (
            self.gen_lo <= gen_id < self.gen_hi and self.start <= t < self.end
        )


class RateSchedule:
    """A builder-style ordered set of :class:`RateWindow` entries."""

    def __init__(self) -> None:
        self._windows: list[RateWindow] = []

    def window(
        self,
        start: float,
        end: float,
        gen_lo: int,
        gen_hi: int,
        multiplier: float,
    ) -> "RateSchedule":
        """Multiply the cohort's base rate by ``multiplier`` over a window."""
        self._windows.append(RateWindow(start, end, gen_lo, gen_hi, multiplier))
        self._windows.sort(
            key=lambda w: (w.start, w.end, w.gen_lo, w.gen_hi, w.multiplier)
        )
        return self

    @property
    def windows(self) -> tuple[RateWindow, ...]:
        return tuple(self._windows)

    def __iter__(self) -> Iterator[RateWindow]:
        return iter(self._windows)

    def __len__(self) -> int:
        return len(self._windows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RateSchedule {len(self._windows)} windows>"

    def multiplier_at(self, gen_id: int, t: float) -> float:
        """Product of every active window's multiplier for one generator."""
        multiplier = 1.0
        for w in self._windows:
            if w.covers(gen_id, t):
                multiplier *= w.multiplier
        return multiplier

    def next_boundary(self, gen_id: int, t: float) -> float | None:
        """The next window edge after ``t`` that affects ``gen_id``.

        Between consecutive boundaries the multiplier is constant, so a
        sleeping generator only ever needs to wake at the next one.
        """
        best: float | None = None
        for w in self._windows:
            if not (w.gen_lo <= gen_id < w.gen_hi):
                continue
            for edge in (w.start, w.end):
                if edge > t + _EPS and (best is None or edge < best):
                    best = edge
        return best


def rate_sleep(
    sim: "Simulator",
    schedule: RateSchedule | None,
    gen_id: int,
    base_interval: float,
    stop_at: float,
) -> Generator[Any, Any, None]:
    """Sleep one *publication interval* of work under ``schedule``.

    Phase integration: the generator owes one base interval of waiting; a
    multiplier ``m`` burns that debt ``m`` times faster (``m = 0`` freezes
    it).  The sleep is segmented at window boundaries, so the effective rate
    changes exactly when the schedule says — a generator mid-sleep when a
    burst starts finishes the *remaining* fraction at the burst rate.

    Returns as soon as the debt is paid or ``stop_at`` is reached (the
    caller's publish loop re-checks ``sim.now < stop_at`` anyway).
    """
    if schedule is None or not len(schedule):
        yield sim.timeout(base_interval)
        return
    need = 1.0  # fraction of one base interval still owed
    while need > _EPS:
        now = sim.now
        if now >= stop_at - _EPS:
            return
        m = schedule.multiplier_at(gen_id, now)
        boundary = schedule.next_boundary(gen_id, now)
        horizon = stop_at if boundary is None else min(boundary, stop_at)
        if m <= 0.0:
            # Silenced: hold the debt until the window lifts (or the run ends).
            yield sim.timeout(horizon - now)
            continue
        remaining = need * base_interval / m
        if now + remaining <= horizon + _EPS:
            yield sim.timeout(remaining)
            return
        yield sim.timeout(horizon - now)
        need -= (horizon - now) * m / base_interval
