"""The vectorized cohort fleet engine: million-publisher sweep points.

Every existing sweep models each generator as its own sim process, so the
cost of a point grows linearly in publisher count and caps sweeps near the
paper's thousands.  This engine scales load the way hierarchical pub/sub
evaluations do — by aggregating homogeneous client populations into
batched arrival processes — while keeping an **exactness escape hatch**:

* **aggregate mode** — generators partition into :class:`CohortSpec`
  cohorts; each cohort is one :class:`repro.sim.CohortProcess` whose tick
  (a single heap entry) emits the whole cohort's messages for the next
  publish interval as array ops: breaker trips, payload size, service
  latency, fault-window loss/duplicate draws, all vectorized over the
  cohort;
* **process mode / zoom** — the same generators as real sim processes,
  one :func:`rate_sleep` timeout per message, applying the same
  :meth:`~repro.powergrid.cohort.CohortDynamics.breaker` on length-1
  arrays.

Both modes draw every random quantity from :mod:`repro.powergrid.noise`
(counter-based: one :func:`~repro.powergrid.noise.key` of
``(seed, gen_id, seq)`` per emitted batch, shared by the breaker and the
delivery draws) and share every float expression — publish timestamps via
:func:`~repro.powergrid.cohort.advance_interval` mirroring
:func:`~repro.powergrid.rates.rate_sleep`, the breaker via
:class:`CohortDynamics`, delivery via one service model — so an aggregate
cohort and its zoomed per-process twin produce **identical** message sets:
same timestamps, same payload bytes, same latencies, same loss/duplicate
decisions.  :func:`verify_agreement` asserts exactly that.

A draw is made iff the outcome reads it.  A :class:`FleetOutcome` depends
on each message's breaker state (payload size), service jitter and, inside
loss windows, the loss and duplicate draws — not on the power, voltage or
frequency a generator would report, so the engine never computes those.
Counter-based keys make skipping a draw safe: no other draw's value moves.

Delivery is an analytic per-middleware service model (base + payload +
load terms with counter-keyed jitter), calibrated to the paper's measured
scales: Narada ~1.5 ms at-most-once, R-GMA ~0.9 s with retry-on-loss,
plog ~4 ms at-least-once (retransmissions can duplicate).  ``packet_loss``
windows of a :class:`repro.faults.FaultPlan` drive the loss draws against
message timestamps; this closed model has no links, brokers or gateways to
apply any other fault kind to, so a plan containing one is rejected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from repro.faults import PLANS
from repro.powergrid import noise
from repro.powergrid.cohort import (
    CohortDynamics,
    CohortSpec,
    advance_interval,
    warmup_times,
)
from repro.powergrid.rates import RateSchedule, rate_sleep
from repro.sim import CohortProcess, Simulator

#: Middlewares the engine models.
FLEET_MIDDLEWARES = ("narada", "rgma", "plog")

#: Default cohort width: wide enough that per-tick numpy fixed costs
#: amortize, small enough that a 10^6-publisher point stays cache-friendly.
DEFAULT_COHORT_SIZE = 8192

#: Aggregate points cap the per-generator publishing phase so a
#: 10^6-publisher point at ``full`` scale stays within laptop memory
#: (message buffers grow linearly in duration x publishers).
DURATION_CAP = 90.0


@dataclass(frozen=True)
class ServiceModel:
    """Analytic delivery model for one middleware."""

    name: str
    base_s: float
    per_byte_s: float
    per_publisher_s: float
    jitter_mean_s: float
    #: "at_most_once" drops on loss; "retry" redelivers late; and
    #: "at_least_once" redelivers late and may duplicate.
    delivery: str
    retry_penalty_s: float = 0.0


SERVICE_MODELS: dict[str, ServiceModel] = {
    "narada": ServiceModel(
        "narada", 1.5e-3, 2.0e-8, 2.0e-9, 5.0e-4, "at_most_once"
    ),
    "rgma": ServiceModel(
        "rgma", 0.9, 1.0e-7, 4.0e-8, 0.08, "retry", retry_penalty_s=1.0
    ),
    "plog": ServiceModel(
        "plog", 4.0e-3, 3.0e-8, 4.0e-9, 1.2e-3, "at_least_once",
        retry_penalty_s=0.05,
    ),
}

#: Fixed payload framing per middleware (map message / tuple row / record),
#: plus the breaker-status string ("ON" vs "TRIPPED") per message.
_PAYLOAD_BASE = {"narada": 230, "rgma": 180, "plog": 120}


@dataclass(frozen=True)
class FleetRunParams:
    """Timeline shape of one fleet point (a pure function of scale and n)."""

    n_publishers: int
    publish_interval: float
    creation_interval: float
    warmup_lo: float
    warmup_hi: float
    duration: float

    @classmethod
    def from_scale(cls, scale: Any, n_publishers: int) -> "FleetRunParams":
        """The paper's workload shape, ramp-compressed for huge fleets.

        The creation stagger shrinks so the whole fleet is born within one
        publishing duration — a million generators at the paper's 0.5 s
        stagger would spend days just ramping.
        """
        duration = min(scale.duration, DURATION_CAP)
        creation = min(
            scale.creation_interval_narada, duration / n_publishers
        )
        return cls(
            n_publishers=n_publishers,
            publish_interval=10.0,
            creation_interval=creation,
            warmup_lo=scale.warmup[0],
            warmup_hi=scale.warmup[1],
            duration=duration,
        )


@dataclass(frozen=True)
class FleetOutcome:
    """Compact result of one fleet point (no per-message arrays)."""

    middleware: str
    mode: str
    n_publishers: int
    cohort_size: int
    published: int
    delivered: int
    lost: int
    duplicates: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    sim_span_s: float
    events_scheduled: int
    ticks: int
    wall_s: float

    @property
    def events_per_s(self) -> float:
        return self.published / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def wall_per_publisher_s(self) -> float:
        return self.wall_s / self.n_publishers


def payload_bytes(
    middleware: str, breaker_closed: np.ndarray, payload_multiplier: int = 1
) -> np.ndarray:
    """Message size: framing plus the status string, as an int array."""
    status = np.where(breaker_closed, 2, 7)  # "ON" / "TRIPPED"
    return (_PAYLOAD_BASE[middleware] + status) * payload_multiplier


def loss_windows_of(plan: Any) -> tuple[tuple[float, float, float], ...]:
    """The ``packet_loss`` windows of a fault plan as (at, until, p).

    Raises ``ValueError`` for a plan with any other fault kind, which the
    engine could only drop while reporting the run under the plan's name.
    """
    if plan is None:
        return ()
    unsupported = sorted({s.kind for s in plan} - {"packet_loss"})
    if unsupported:
        raise ValueError(
            "the fleet engine models packet_loss windows only; "
            f"unsupported fault kinds in plan: {', '.join(unsupported)}"
        )
    return tuple(
        (s.at, s.until, s.param("probability", 0.0))
        for s in plan
        if s.kind == "packet_loss"
    )


class _DeliverySink:
    """Accumulates delivery stats; identical math for both modes."""

    def __init__(
        self,
        middleware: str,
        n_publishers: int,
        loss_windows: tuple[tuple[float, float, float], ...],
        payload_multiplier: int = 1,
    ):
        self.model = SERVICE_MODELS[middleware]
        self.middleware = middleware
        self.loss_windows = loss_windows
        model = self.model
        # The deterministic latency term of a closed / a tripped breaker's
        # message — payload_bytes takes two values, so it is two floats.
        self._base_closed, self._base_tripped = (
            model.base_s
            + model.per_byte_s * payload_bytes(
                middleware, np.array([True, False]), payload_multiplier
            )
            + model.per_publisher_s * n_publishers
        )
        self.published = 0
        self.lost = 0
        self.duplicates = 0
        self._latencies: list[np.ndarray] = []

    def emit(
        self,
        times: np.ndarray,
        closed: np.ndarray,
        k: np.ndarray,
    ) -> None:
        """Deliver one batch: messages stamped ``times`` whose breakers read
        ``closed``, drawing from the batch's noise key ``k``."""
        model = self.model
        lat = np.where(closed, self._base_closed, self._base_tripped)
        lat += noise.exponential(k, noise.FIELD_SERVICE, model.jitter_mean_s)
        if self.loss_windows:
            u = noise.u01(k, noise.FIELD_LOSS)
            hit = np.zeros(times.shape, dtype=bool)
            for at, until, p in self.loss_windows:
                hit |= (times >= at) & (times < until) & (u < p)
            if model.delivery == "at_most_once":
                self.lost += int(hit.sum())
                lat = lat[~hit]
            else:  # retry / at_least_once: redelivered late
                lat = np.where(hit, lat + model.retry_penalty_s, lat)
                if model.delivery == "at_least_once":
                    dup = hit & (noise.u01(k, noise.FIELD_DUP) < 0.5)
                    self.duplicates += int(dup.sum())
        self.published += int(times.size)
        if lat.size:
            self._latencies.append(lat)

    def summarise(
        self,
        mode: str,
        n_publishers: int,
        cohort_size: int,
        sim: Simulator,
        ticks: int,
        wall_s: float,
    ) -> FleetOutcome:
        if self._latencies:
            lat = np.sort(np.concatenate(self._latencies))
        else:
            lat = np.zeros(0)
        if lat.size:
            p50, p95, p99 = (
                float(x) for x in np.quantile(lat, (0.50, 0.95, 0.99)) * 1e3
            )
            mean = float(lat.sum() / lat.size * 1e3)
            peak = float(lat[-1] * 1e3)
        else:
            p50 = p95 = p99 = mean = peak = float("nan")
        return FleetOutcome(
            middleware=self.middleware,
            mode=mode,
            n_publishers=n_publishers,
            cohort_size=cohort_size,
            published=self.published,
            delivered=self.published - self.lost,
            lost=self.lost,
            duplicates=self.duplicates,
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            mean_ms=mean,
            max_ms=peak,
            sim_span_s=sim.now,
            events_scheduled=sim.events_scheduled,
            ticks=ticks,
            wall_s=wall_s,
        )


class _CohortEngine:
    """One aggregate cohort: a single batch tick per publish interval."""

    def __init__(
        self,
        sim: Simulator,
        seed: int,
        spec: CohortSpec,
        params: FleetRunParams,
        schedule: Optional[RateSchedule],
        sink: _DeliverySink,
    ):
        self.params = params
        self.schedule = schedule
        self.sink = sink
        self.dynamics = CohortDynamics(seed, spec)
        self.ids = spec.gen_ids()
        births = self.ids * params.creation_interval
        start = births + warmup_times(
            seed, self.ids, params.warmup_lo, params.warmup_hi
        )
        self.stop = start + params.duration
        self.next_pub = start.copy()
        self.seq = np.zeros(self.ids.shape, dtype=np.int64)
        self.closed = np.ones(self.ids.shape, dtype=bool)
        self.process = CohortProcess(
            sim, self.on_tick, at=float(start.min())
        )

    def on_tick(self, now: float) -> Optional[float]:
        """Emit every message due before ``now + publish_interval``.

        Message timestamps come straight from the per-generator wake-time
        arrays (exact floats), so the tick cadence affects only how many
        heap entries the kernel sees — never the emitted record.  Inner
        rounds handle rate multipliers > 1 (several publishes per
        generator inside one window).
        """
        horizon = now + self.params.publish_interval
        while True:
            due = np.flatnonzero(self.next_pub < horizon)
            if not due.size:
                break
            t = self.next_pub[due]
            ids = self.ids[due]
            seqs = self.seq[due] + 1
            self.seq[due] = seqs
            k = noise.key(self.dynamics.seed, ids, seqs)
            closed = self.dynamics.breaker(k, self.closed[due])
            self.closed[due] = closed
            self.sink.emit(t, closed, k)
            stop = self.stop[due]
            nxt = advance_interval(
                self.schedule, ids, t, self.params.publish_interval, stop
            )
            alive = (nxt < stop) & (nxt > t)
            self.next_pub[due] = np.where(alive, nxt, np.inf)
        earliest = float(self.next_pub.min())  # inf: every generator retired
        return None if earliest == np.inf else earliest


def _gen_process(
    sim: Simulator,
    seed: int,
    gen_id: int,
    spec: CohortSpec,
    params: FleetRunParams,
    schedule: Optional[RateSchedule],
    sink: _DeliverySink,
    stop: float,
) -> Generator[Any, Any, None]:
    """One zoomed generator: a real sim process, one timeout per message.

    Applies the same :meth:`CohortDynamics.breaker` on length-1 arrays and
    sleeps through the real :func:`rate_sleep`, so its trajectory is
    bit-identical to the aggregate path's row for this ``gen_id``.
    """
    dynamics = CohortDynamics(seed, spec)
    ids = np.array([gen_id], dtype=np.int64)
    closed = np.ones(1, dtype=bool)
    seq = 0
    while True:
        t = sim.now
        seq += 1
        k = noise.key(seed, ids, seq)
        closed = dynamics.breaker(k, closed)
        sink.emit(np.array([t]), closed, k)
        yield from rate_sleep(
            sim, schedule, gen_id, params.publish_interval, stop
        )
        if not (sim.now < stop and sim.now > t):
            return


def _cohort_ranges(
    n: int, cohort_size: int, zoom: Optional[tuple[int, int]]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Partition ``[0, n)`` into aggregate ranges and zoomed ranges."""
    zoom_ranges: list[tuple[int, int]] = []
    if zoom is not None:
        lo, hi = zoom
        if not (0 <= lo < hi <= n):
            raise ValueError(f"zoom range {zoom!r} outside [0, {n})")
        zoom_ranges.append((lo, hi))
    aggregate: list[tuple[int, int]] = []
    for chunk_lo in range(0, n, cohort_size):
        chunk_hi = min(n, chunk_lo + cohort_size)
        pieces = [(chunk_lo, chunk_hi)]
        for zlo, zhi in zoom_ranges:
            next_pieces = []
            for lo, hi in pieces:
                if zhi <= lo or zlo >= hi:
                    next_pieces.append((lo, hi))
                    continue
                if lo < zlo:
                    next_pieces.append((lo, zlo))
                if zhi < hi:
                    next_pieces.append((zhi, hi))
            pieces = next_pieces
        aggregate.extend(pieces)
    return aggregate, zoom_ranges


def run_fleet_point(
    middleware: str,
    n_publishers: int,
    scale: Any,
    seed: int = 1,
    mode: str = "aggregate",
    cohort_size: int = DEFAULT_COHORT_SIZE,
    schedule: Optional[RateSchedule] = None,
    fault_plan: Optional[str] = None,
    zoom: Optional[tuple[int, int]] = None,
    payload_multiplier: int = 1,
) -> FleetOutcome:
    """One fleet sweep point; returns its :class:`FleetOutcome`.

    ``mode="aggregate"`` runs cohorts as batched arrival processes;
    ``mode="process"`` runs every generator as its own sim process (the
    exactness reference); ``zoom=(lo, hi)`` carves that id range out of an
    aggregate run and simulates it per-process instead — the outcome must
    be identical either way (:func:`verify_agreement`).
    """
    if middleware not in SERVICE_MODELS:
        raise ValueError(
            f"unknown middleware {middleware!r}; choose from {FLEET_MIDDLEWARES}"
        )
    if mode not in ("aggregate", "process"):
        raise ValueError(f"unknown fleet mode {mode!r}")
    if zoom is not None and mode != "aggregate":
        raise ValueError("zoom only applies to aggregate mode")
    for name, value in (
        ("n_publishers", n_publishers),
        ("cohort_size", cohort_size),
        ("payload_multiplier", payload_multiplier),
    ):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    params = FleetRunParams.from_scale(scale, n_publishers)
    plan = None
    if fault_plan is not None:
        plan = PLANS[fault_plan](params.warmup_hi, params.duration)
    t0 = time.perf_counter()
    sim = Simulator(seed=seed)
    sink = _DeliverySink(
        middleware, n_publishers, loss_windows_of(plan), payload_multiplier
    )
    if mode == "process":
        aggregate_ranges: list[tuple[int, int]] = []
        process_ranges = [(0, n_publishers)]
    else:
        aggregate_ranges, process_ranges = _cohort_ranges(
            n_publishers, cohort_size, zoom
        )
    ticks = 0
    engines = []
    for lo, hi in aggregate_ranges:
        engines.append(
            _CohortEngine(
                sim, seed, CohortSpec(lo, hi), params, schedule, sink
            )
        )
    for lo, hi in process_ranges:
        spec = CohortSpec(lo, hi)
        ids = np.arange(lo, hi, dtype=np.int64)
        births = ids * params.creation_interval
        starts = births + warmup_times(
            seed, ids, params.warmup_lo, params.warmup_hi
        )
        for offset, gen_id in enumerate(range(lo, hi)):
            start = float(starts[offset])
            stop = start + params.duration

            def launch(
                gen_id: int = gen_id, spec: CohortSpec = spec,
                stop: float = stop,
            ) -> None:
                sim.process(
                    _gen_process(
                        sim, seed, gen_id, spec, params, schedule, sink, stop
                    )
                )

            sim.call_at(start, launch)
    sim.run()
    ticks = sum(e.process.ticks for e in engines)
    wall = time.perf_counter() - t0
    return sink.summarise(
        mode if zoom is None else "aggregate+zoom",
        n_publishers,
        cohort_size,
        sim,
        ticks,
        wall,
    )


def verify_agreement(
    a: FleetOutcome, b: FleetOutcome, rtol: float = 1e-9
) -> None:
    """Assert two fleet outcomes describe the same message record.

    Message/loss/duplicate counts must match **exactly**; the tracked
    percentiles (P50/P95/P99) within ``rtol`` (they are bit-identical in
    practice — the tolerance only allows for quantile interpolation over
    equal multisets).  Raises ``AssertionError`` with a field-by-field
    report otherwise.
    """
    problems = []
    for field_name in ("published", "delivered", "lost", "duplicates"):
        va, vb = getattr(a, field_name), getattr(b, field_name)
        if va != vb:
            problems.append(f"{field_name}: {va} != {vb}")
    for field_name in ("p50_ms", "p95_ms", "p99_ms"):
        va, vb = getattr(a, field_name), getattr(b, field_name)
        both_nan = np.isnan(va) and np.isnan(vb)
        if not both_nan and not np.isclose(va, vb, rtol=rtol, atol=0.0):
            problems.append(f"{field_name}: {va!r} !~ {vb!r}")
    if problems:
        raise AssertionError(
            f"fleet outcomes disagree ({a.mode} vs {b.mode}, "
            f"n={a.n_publishers}): " + "; ".join(problems)
        )
