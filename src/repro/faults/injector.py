"""Turning a :class:`~repro.faults.plan.FaultPlan` into scheduled havoc.

``FaultScheduler(sim, plan).attach(lan=..., brokers=..., consumers=...)``
resolves the plan's symbolic targets against one concrete run and arms
everything:

* link faults become time-predicated windows on the LAN's
  :class:`~repro.faults.link.LinkFaults`;
* broker and consumer faults become ``sim.call_at`` callbacks (crash,
  restart, consumer close);
* every fault that actually fires appends a :class:`FaultLogEntry`, so an
  experiment can report its injected timeline next to its measurements.

The broker surface is :class:`repro.cluster.server.JvmServer` — ``name``,
``alive``, ``jvm``, ``node``, ``crash()``, ``restart()`` — which
:class:`repro.narada.Broker`, :class:`repro.federation.FederatedBroker` and
:class:`repro.plog.broker.PlogBroker` subclass.
:class:`repro.edge.gateway.EdgeGateway` still duck-types it: it has no
per-connection accept charge and restarts as a new incarnation, so the
shared accept/EOF/restart skeleton does not describe it.
Specs whose target does not resolve (e.g. ``broker:1`` against a
single-broker run) are skipped and logged, not errors — one plan serves
every deployment shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.faults.link import LinkFaults
from repro.faults.plan import FaultPlan, FaultSpec
from repro.telemetry.context import current as _telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.network import Lan
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class FaultLogEntry:
    """One line of the injected-fault timeline."""

    t: float
    kind: str
    target: str
    note: str

    def render(self) -> str:
        return f"t={self.t:9.3f}s  {self.kind:<16} {self.target:<18} {self.note}"


class FaultScheduler:
    """Arms one plan against one run."""

    def __init__(self, sim: "Simulator", plan: FaultPlan):
        self.sim = sim
        self.plan = plan
        self.log: list[FaultLogEntry] = []
        self.link_faults: Optional[LinkFaults] = None
        self._brokers: list[Any] = []
        self._consumers: list[Any] = []
        self._attached = False

    # ---------------------------------------------------------------- attach
    def attach(
        self,
        lan: Optional["Lan"] = None,
        brokers: Sequence[Any] = (),
        consumers: Sequence[Any] = (),
    ) -> "FaultScheduler":
        if self._attached:
            raise RuntimeError("fault scheduler already attached")
        self._attached = True
        self._brokers = list(brokers)
        self._consumers = list(consumers)
        if lan is not None:
            if lan.faults is None:
                lan.faults = LinkFaults(self.sim)
            self.link_faults = lan.faults
        tel = _telemetry()
        for spec in self.plan:
            if tel is not None:
                tel.fault_window(spec.kind, spec.at, spec.until, spec.target)
            self._arm(spec)
        return self

    def _note(self, t: float, kind: str, target: str, note: str) -> None:
        self.log.append(FaultLogEntry(t, kind, target, note))

    def render_log(self) -> list[str]:
        return [entry.render() for entry in sorted(self.log, key=lambda e: e.t)]

    # --------------------------------------------------------------- resolve
    def _broker_for(self, target: str) -> Optional[Any]:
        if target.startswith("broker:"):
            index = int(target.split(":", 1)[1])
            if 0 <= index < len(self._brokers):
                return self._brokers[index]
            return None
        for broker in self._brokers:
            if broker.name == target:
                return broker
        return None

    def _consumer_for(self, target: str) -> Optional[Any]:
        index = int(target.split(":", 1)[1])
        if 0 <= index < len(self._consumers):
            return self._consumers[index]
        return None

    # ------------------------------------------------------------------- arm
    def _arm(self, spec: FaultSpec) -> None:
        kind = spec.kind
        if kind in ("packet_loss", "latency", "partition"):
            self._arm_link(spec)
        elif kind == "broker_crash":
            self._arm_broker_crash(spec)
        elif kind == "consumer_crash":
            self._arm_consumer_crash(spec)

    def _skip(self, spec: FaultSpec, why: str) -> None:
        self._note(spec.at, spec.kind, spec.target, f"skipped: {why}")

    def _arm_link(self, spec: FaultSpec) -> None:
        if self.link_faults is None:
            self._skip(spec, "no LAN attached")
            return
        lf = self.link_faults
        if spec.kind == "packet_loss":
            lf.add_loss(
                spec.at, spec.until, spec.param("probability"),
                spec.param("src", "*"), spec.param("dst", "*"),
            )
            note = f"p={spec.param('probability'):.2f} for {spec.duration:.1f}s"
        elif spec.kind == "latency":
            lf.add_latency(
                spec.at, spec.until, spec.param("extra"),
                spec.param("jitter", 0.0),
                spec.param("src", "*"), spec.param("dst", "*"),
            )
            note = f"+{spec.param('extra') * 1e3:.0f}ms for {spec.duration:.1f}s"
        else:
            lf.add_partition(spec.at, spec.until, spec.param("hosts"))
            note = f"isolated for {spec.duration:.1f}s"
        self.sim.call_at(
            spec.at, lambda: self._note(self.sim.now, spec.kind, spec.target, note)
        )

    def _arm_broker_crash(self, spec: FaultSpec) -> None:
        broker = self._broker_for(spec.target)
        if broker is None:
            self._skip(spec, "no such broker in this run")
            return
        restart_after = spec.param("restart_after")

        def crash() -> None:
            broker.crash()
            self._note(self.sim.now, "broker_crash", broker.name, "process killed")

        def restart() -> None:
            if broker.jvm.dead:
                self._note(
                    self.sim.now, "broker_restart", broker.name,
                    "skipped: JVM dead",
                )
                return
            broker.restart()
            self._note(self.sim.now, "broker_restart", broker.name, "back up")

        self.sim.call_at(spec.at, crash)
        if restart_after is not None:
            self.sim.call_at(spec.at + restart_after, restart)

    def _arm_consumer_crash(self, spec: FaultSpec) -> None:
        consumer = self._consumer_for(spec.target)
        if consumer is None:
            self._skip(spec, "no such consumer in this run")
            return

        def apply() -> None:
            consumer.close()
            self._note(
                self.sim.now, "consumer_crash", consumer.name,
                "closed; group should rebalance",
            )

        self.sim.call_at(spec.at, apply)
