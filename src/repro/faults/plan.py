"""Deterministic fault schedules.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries, each
pinned to an absolute simulated time.  Plans are *data*: building one draws
no randomness and arms nothing — the :class:`~repro.faults.injector.FaultScheduler`
turns a plan into scheduled kernel callbacks and link-fault windows when it
is attached to a run.  Any randomness a fault needs at injection time (loss
draws, retry jitter) comes from the kernel's named
:class:`~repro.sim.rng.RngStreams`, so two runs with the same seed and the
same plan are bit-identical — the property the chaos experiments assert.

Targets are symbolic so one plan works against any middleware:

=====================  =====================================================
``"*"``                every host pair (link faults)
``"host:hydra5"``      link faults touching one host
``"broker:1"``         the second broker of whatever deployment is attached
``"consumer:0"``       the first attached consumer (application faults)
=====================  =====================================================

The named templates at the bottom (:data:`PLANS`) are functions of the
measurement window — ``template(measure_since, duration)`` — so the same
``--fault-plan loss_burst`` lands its fault window inside the steady-state
window at every scale preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Fault kinds the scheduler understands.
FAULT_KINDS = (
    "packet_loss",
    "latency",
    "partition",
    "broker_crash",
    "consumer_crash",
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault event."""

    kind: str
    #: Absolute simulated time the fault starts.
    at: float
    #: How long it lasts; 0 for instantaneous faults (crash without restart).
    duration: float = 0.0
    #: Symbolic target (see module docstring).
    target: str = "*"
    #: Kind-specific parameters.
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("fault time must be >= 0")
        if self.duration < 0:
            raise ValueError("fault duration must be >= 0")

    @property
    def until(self) -> float:
        return self.at + self.duration

    def param(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)


class FaultPlan:
    """A builder-style ordered schedule of faults."""

    def __init__(self) -> None:
        self._specs: list[FaultSpec] = []

    # ------------------------------------------------------------ link faults
    def packet_loss(
        self,
        at: float,
        duration: float,
        probability: float,
        src: str = "*",
        dst: str = "*",
    ) -> "FaultPlan":
        """Raise per-fragment datagram loss to ``probability`` in a window.

        Only droppable (datagram) traffic is affected; stream transfers are
        the transport layer's reliability problem and never vanish mid-wire.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        return self._add(
            FaultSpec(
                "packet_loss", at, duration, f"{src}->{dst}",
                {"probability": probability, "src": src, "dst": dst},
            )
        )

    def latency(
        self,
        at: float,
        duration: float,
        extra: float,
        jitter: float = 0.0,
        src: str = "*",
        dst: str = "*",
    ) -> "FaultPlan":
        """Add ``extra`` seconds (plus exponential ``jitter`` mean) per
        transfer in a window — a congested or flapping path."""
        if extra < 0 or jitter < 0:
            raise ValueError("latency amounts must be >= 0")
        return self._add(
            FaultSpec(
                "latency", at, duration, f"{src}->{dst}",
                {"extra": extra, "jitter": jitter, "src": src, "dst": dst},
            )
        )

    def partition(
        self, at: float, duration: float, hosts: tuple[str, ...]
    ) -> "FaultPlan":
        """Isolate ``hosts`` from the rest of the LAN.

        Datagrams crossing the cut are dropped; stream traffic is *held*
        (delivered only once the partition heals), matching TCP's contract
        that accepted bytes eventually arrive.
        """
        if not hosts:
            raise ValueError("partition needs at least one host")
        return self._add(
            FaultSpec(
                "partition", at, duration, ",".join(hosts),
                {"hosts": tuple(hosts)},
            )
        )

    # ---------------------------------------------------------- broker faults
    def broker_crash(
        self, at: float, broker: str = "broker:0", restart_after: float | None = None
    ) -> "FaultPlan":
        """Kill a broker process (sever its connections); optionally restart
        it ``restart_after`` seconds later."""
        duration = restart_after if restart_after is not None else 0.0
        return self._add(
            FaultSpec(
                "broker_crash", at, duration, broker,
                {"restart_after": restart_after},
            )
        )

    # ----------------------------------------------------- application faults
    def consumer_crash(self, at: float, consumer: int) -> "FaultPlan":
        """Close one consumer (its group should rebalance around it)."""
        return self._add(FaultSpec("consumer_crash", at, 0.0, f"consumer:{consumer}"))

    # ------------------------------------------------------------ composition
    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """Compose two plans into a new one (neither input is modified).

        Scenario-generated faults and a user ``--fault-plan`` land on the
        same run through this: the union of both spec lists, kept in the
        canonical ``(at, kind, target)`` order so merge order does not
        matter.  Exact duplicate specs collapse to one; two *different*
        specs of the same kind with overlapping windows on the same target
        (e.g. two loss windows on one link) are a contradiction — which
        parameters apply mid-overlap? — and raise :class:`ValueError`
        instead of silently stacking.  Partitions are the exception: a cut
        has no parameters to disagree on, so overlapping ones on a host stay
        two specs, as a scenario arms them, and the link checks every
        active window.
        """
        merged = FaultPlan()
        seen: set[tuple] = set()
        for spec in (*self._specs, *other._specs):
            fingerprint = (
                spec.kind, spec.at, spec.duration, spec.target,
                tuple(sorted(spec.params.items())),
            )
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            merged._add(spec)
        by_key: dict[tuple[str, str], list[FaultSpec]] = {}
        for spec in merged._specs:
            by_key.setdefault((spec.kind, spec.target), []).append(spec)
        for (kind, target), specs in by_key.items():
            if kind == "partition":
                continue
            for a, b in zip(specs, specs[1:]):  # sorted by `at` already
                if b.at < a.until or a.at == b.at:
                    raise ValueError(
                        f"conflicting {kind} windows on {target!r}: "
                        f"[{a.at:g}, {a.until:g}) overlaps "
                        f"[{b.at:g}, {b.until:g})"
                    )
        return merged

    # -------------------------------------------------------------- plumbing
    def _add(self, spec: FaultSpec) -> "FaultPlan":
        self._specs.append(spec)
        self._specs.sort(key=lambda s: (s.at, s.kind, s.target))
        return self

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        return tuple(self._specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultPlan {len(self._specs)} specs>"


# --------------------------------------------------------------- templates
#: A template maps the steady-state measurement window onto a concrete plan.
PlanTemplate = Callable[[float, float], FaultPlan]


def loss_burst(measure_since: float, duration: float) -> FaultPlan:
    """25 % per-fragment datagram loss over the middle of the window."""
    return FaultPlan().packet_loss(
        at=measure_since + 0.2 * duration,
        duration=0.4 * duration,
        probability=0.25,
    )


def latency_spike(measure_since: float, duration: float) -> FaultPlan:
    """+40 ms (plus 10 ms exponential jitter) per transfer mid-window."""
    return FaultPlan().latency(
        at=measure_since + 0.2 * duration,
        duration=0.4 * duration,
        extra=0.040,
        jitter=0.010,
    )


def partition_window(measure_since: float, duration: float) -> FaultPlan:
    """Cut one client node (hydra7) off the switch for a fifth of the run."""
    return FaultPlan().partition(
        at=measure_since + 0.3 * duration,
        duration=0.2 * duration,
        hosts=("hydra7",),
    )


def broker_outage(measure_since: float, duration: float) -> FaultPlan:
    """Crash the second broker a quarter in; restart it after 0.35·duration."""
    return FaultPlan().broker_crash(
        at=measure_since + 0.25 * duration,
        broker="broker:1",
        restart_after=0.35 * duration,
    )


def coordinator_outage(measure_since: float, duration: float) -> FaultPlan:
    """Crash broker 0 — the one hosting the group coordinator (and, when
    replicated, the ``__offsets`` partition leader) — a quarter in; restart
    it after 0.35·duration.  Exercises coordinator re-election."""
    return FaultPlan().broker_crash(
        at=measure_since + 0.25 * duration,
        broker="broker:0",
        restart_after=0.35 * duration,
    )


def gateway_outage(measure_since: float, duration: float) -> FaultPlan:
    """Crash the first *gateway* a quarter in; restart after 0.35·duration.

    Edge runs attach their gateways first in the scheduler's broker list,
    so ``broker:0`` resolves to gateway 0 — the one the stamping client
    calls home.  Exercises dropped long-polls, client failover with a time
    cursor, and catch-up replay from the surviving gateway's ring.
    """
    return FaultPlan().broker_crash(
        at=measure_since + 0.25 * duration,
        broker="broker:0",
        restart_after=0.35 * duration,
    )


def durability_gauntlet(measure_since: float, duration: float) -> FaultPlan:
    """The exactly-once obstacle course: broker crash + consumer crash +
    client partition, one after another inside the measured window.

    * ``broker:0`` dies early and restarts after at most ~6 s (capped in
      absolute terms so a fixed client retry budget clears it at every
      scale preset).  Against Narada that is the single broker — durable
      replay territory; against plog it is the group coordinator *and* a
      partition leader — re-election plus idempotent retry territory.
    * ``consumer:1`` (the hydra6 receiver) is killed mid-window: durable
      re-subscribe / group rebalance must hand its messages over without
      losing or double-counting any.
    * hydra7 drops off the switch late in the window: TCP holds client
      traffic, producer-side retry fires, and broker-side dedup must
      absorb the duplicate sends that arrive after the heal.
    """
    outage = min(0.2 * duration, 6.0)
    return (
        FaultPlan()
        .broker_crash(
            at=measure_since + 0.15 * duration,
            broker="broker:0",
            restart_after=outage,
        )
        .consumer_crash(at=measure_since + 0.55 * duration, consumer=1)
        .partition(
            at=measure_since + 0.7 * duration,
            duration=0.15 * duration,
            hosts=("hydra7",),
        )
    )


def mixed(measure_since: float, duration: float) -> FaultPlan:
    """Loss burst plus a latency spike, overlapping — a genuinely bad day."""
    plan = loss_burst(measure_since, duration)
    plan.latency(
        at=measure_since + 0.5 * duration,
        duration=0.3 * duration,
        extra=0.025,
        jitter=0.005,
    )
    return plan


#: ``--fault-plan`` registry: name -> template.
PLANS: dict[str, PlanTemplate] = {
    "loss_burst": loss_burst,
    "latency_spike": latency_spike,
    "partition": partition_window,
    "broker_outage": broker_outage,
    "coordinator_outage": coordinator_outage,
    "gateway_outage": gateway_outage,
    "durability_gauntlet": durability_gauntlet,
    "mixed": mixed,
}


def named_plan(name: str) -> PlanTemplate:
    try:
        return PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault plan {name!r}; choose from {sorted(PLANS)}"
        ) from None
