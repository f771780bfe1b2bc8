"""The scenario DSL: named, seeded timelines of grid events.

A :class:`Scenario` is pure data — a name, a regional decomposition of the
generator fleet, and an ordered list of :class:`ScenarioEvent` entries
pinned to absolute simulated times.  Building one draws no randomness and
arms nothing; the compiler (:mod:`repro.scenario.compiler`) lowers it onto
a concrete fleet as a :class:`~repro.powergrid.rates.RateSchedule` plus a
:class:`~repro.faults.FaultPlan`, so the *same physical event* perturbs the
publication workload and the infrastructure simultaneously — an alarm
storm is a rate burst, a substation outage is a link partition *and* a
publisher die-off, from one script.

Regions are contiguous generator-id blocks: region ``r`` of ``R`` over
``n`` generators is ``[r*n//R, (r+1)*n//R)`` — aligned with the fleets'
block assignment of generators to client nodes, so a region maps onto the
node(s) physically hosting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

#: Event kinds the compiler understands.
EVENT_KINDS = ("rate_burst", "substation_outage")


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed grid event.

    ``region`` selects a generator cohort (``None`` = the whole fleet);
    workload parameters (``multiplier``, ``ramp``) apply to ``rate_burst``
    events.
    """

    kind: str
    #: Absolute simulated start time.
    at: float
    #: Window length; every scenario event has one.
    duration: float
    #: Region index, or ``None`` for fleet-wide events.
    region: Optional[int] = None
    #: Rate multiplier during the window (``rate_burst``).
    multiplier: float = 1.0
    #: Seconds spent climbing linearly from 1x to ``multiplier``.
    ramp: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown scenario event kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("event time must be >= 0")
        if self.duration <= 0:
            raise ValueError("event duration must be > 0")
        if self.multiplier < 0:
            raise ValueError("rate multiplier must be >= 0")
        if not 0.0 <= self.ramp <= self.duration:
            raise ValueError("ramp must be within [0, duration]")

    @property
    def until(self) -> float:
        return self.at + self.duration


@dataclass
class Scenario:
    """A builder-style named timeline of grid events."""

    name: str
    #: How many contiguous-id regions the fleet is divided into.
    n_regions: int = 4
    description: str = ""
    events: list[ScenarioEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_regions < 1:
            raise ValueError("a scenario needs at least one region")

    # ------------------------------------------------------------- builders
    def alarm_storm(
        self,
        at: float,
        duration: float,
        region: Optional[int] = None,
        multiplier: float = 8.0,
        ramp: float = 0.0,
    ) -> "Scenario":
        """Multiply a region's (or the fleet's) publication rate: every
        generator in the cohort raises correlated alarms for the window."""
        return self._add(
            ScenarioEvent(
                "rate_burst", at, duration, region=region,
                multiplier=multiplier, ramp=ramp,
            )
        )

    def substation_outage(
        self, at: float, duration: float, region: int
    ) -> "Scenario":
        """Take a region's substation down: the client node(s) hosting its
        generators partition off the LAN and the generators stop publishing
        (die-off) until the window lifts."""
        return self._add(
            ScenarioEvent("substation_outage", at, duration, region=region)
        )

    # ------------------------------------------------------------- plumbing
    def _add(self, event: ScenarioEvent) -> "Scenario":
        if event.region is not None and not (
            0 <= event.region < self.n_regions
        ):
            raise ValueError(
                f"region {event.region} out of range for "
                f"{self.n_regions} regions"
            )
        self.events.append(event)
        self.events.sort(key=lambda e: (e.at, e.kind))
        return self

    def region_range(self, region: int, n_generators: int) -> tuple[int, int]:
        """[lo, hi) of generator ids in ``region`` for a concrete fleet."""
        if not 0 <= region < self.n_regions:
            raise ValueError(
                f"region {region} out of range for {self.n_regions} regions"
            )
        lo = region * n_generators // self.n_regions
        hi = (region + 1) * n_generators // self.n_regions
        return lo, hi

    def __iter__(self) -> Iterator[ScenarioEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Scenario {self.name!r}: {len(self.events)} events>"
