"""Federation experiments: topic-aware tree routing vs the broadcast DBN.

One :class:`FederationAdapter` per routing mode, both run by
:func:`~repro.harness.pipeline.run_point`:

* :func:`federation_run` — the hierarchical broker tree of
  :mod:`repro.federation`: site publishers and a site-local subscriber at
  every broker, a control-room subscriber at the root, subscriptions
  propagated up as covering entries, events forwarded only down interested
  links;
* :func:`federation_broadcast_run` — the *same workload* against the
  modelled v1.1.3 DBN (:class:`repro.federation.BroadcastDeployment`: a
  star of :class:`repro.narada.Broker` instances with
  ``broadcast_flaw=True``, built by the shared
  :func:`repro.narada.star_network` baseline), where every event floods
  every inter-broker link.

Both run the same site clients against either deployment and measure the
same two things over the steady-state window: delivery RTT percentiles at
the control-room tier (the single clock: clients run on their broker's
node, the paper's same-node design) and **event messages per inter-broker
link**.  The headline is their growth with broker count —
per-link traffic stays ~flat (``O(log n)``) under topic-aware routing and
grows linearly under broadcast, at equal delivery guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Optional

from repro.cluster import HydraCluster
from repro.core import ExperimentResult
from repro.core.metrics import percentiles_ms
from repro.federation import (
    BroadcastDeployment,
    FederationController,
    FederationDeployment,
    FederationSitePublishers,
    FederationSubscriber,
    TreeTopology,
    site_topic,
)
from repro.harness.parallel import RunSpec
from repro.harness.pipeline import Adapter, RunResult, run_point
from repro.harness.registry import Experiment, RunContext
from repro.harness.scale import Scale
from repro.narada import NaradaConfig
from repro.powergrid.workload import FleetConfig, FleetStats

#: Broker counts swept at fanout 2 (complete trees of depth 2, 3, 4, 5).
FEDERATION_SWEEP = (3, 7, 15)
FEDERATION_SWEEP_FULL = (3, 7, 15, 31)

#: Site workload: publishers per broker and their publishing interval.
PUBLISHERS_PER_BROKER = 6
PUBLISH_INTERVAL = 3.0

FANOUT = 2


@dataclass(kw_only=True)
class FederationRunResult(RunResult):
    """Everything one federation test run produces."""

    n_brokers: int
    routing: str
    rtt_p50_ms: float
    rtt_p99_ms: float
    #: Event messages per directed inter-broker link over the measured
    #: window (every tree/star link appears, idle ones at 0).
    link_messages: dict[tuple[str, str], int]
    per_link_mean: float
    per_link_max: float
    control_messages: int = 0
    orphaned_up: int = 0
    reparents: int = 0
    converged: bool = True
    broker_stats: dict[str, Any] = field(default_factory=dict)


@dataclass
class FederationAdapter(Adapter):
    """``n_brokers`` site brokers — the routed tree or the broadcast star —
    each with a site publisher fleet and a site-local subscriber, plus the
    control-room subscriber at the root.  The fields are the options of
    :func:`federation_run` and :func:`federation_broadcast_run`."""

    n_brokers: int
    #: The modelled broadcast DBN instead of the routed tree.
    broadcast: bool = False
    #: Children per tree broker (a star has ``n_brokers - 1``).
    fanout: int = FANOUT
    config: Optional[NaradaConfig] = None
    #: Seconds between the tree controller's liveness checks.
    detect_interval: float = 1.0

    @property
    def name(self) -> str:
        return "narada" if self.broadcast else "federation"

    def cluster(self, sim) -> HydraCluster:
        return HydraCluster(sim, TreeTopology(self.n_brokers).names)

    def creation_interval(self, scale: Scale, n_generators: int) -> float:
        return 0.0  # every site's publishers start at once

    def fleet_options(self) -> dict[str, Any]:
        return dict(publish_interval=PUBLISH_INTERVAL)

    def build(self, sim, cluster) -> dict[str, str]:
        """Wire the deployment and connect the control-room and site
        subscribers, so the window opens after they are in place."""
        self.sim = sim
        if self.broadcast:
            self.deployment = BroadcastDeployment(
                sim, self.n_brokers, self.config, cluster=cluster
            )
        else:
            self.deployment = FederationDeployment(
                sim, TreeTopology(self.n_brokers, self.fanout), self.config,
                cluster=cluster,
            )
        sim.run_process(self.deployment.start())
        if not self.broadcast:
            self.controller = FederationController(
                sim, self.deployment, detect_interval=self.detect_interval
            )
            self.controller.start()
        self.brokers = self.deployment.brokers
        names = self.deployment.topology.names
        all_topics = tuple(site_topic(i) for i in range(len(names)))
        subscribers = [(names[0], "control", all_topics, True)] + [
            (name, f"site{i}", (site_topic(i),), False)
            for i, name in enumerate(names)
        ]
        for name, sub_id, topics, stamp in subscribers:
            subscriber = FederationSubscriber(
                sim, self.deployment, name, sub_id, topics, stamp_records=stamp
            )
            sim.run_process(subscriber.start())
        return {names[0]: self.name}

    def attach_subscribers(self, fleet: FleetConfig) -> None:
        """The subscribers connected in :meth:`build`."""

    def attach_publishers(self, fleet: FleetConfig, book) -> Any:
        """Every site's publishers, and the link-traffic snapshot the
        window's per-link counts start from."""
        if fleet.rates is not None:
            raise ValueError(
                "federation site publishers cannot honour a scenario: they "
                "publish at a fixed interval"
            )
        stats = FleetStats()
        for i, name in enumerate(self.deployment.topology.names):
            FederationSitePublishers(
                self.sim,
                self.deployment,
                name,
                site_topic(i),
                fleet.n_generators // self.n_brokers,
                fleet.publish_interval,
                book,
                stop_at=fleet.stop_at,
                warmup=(fleet.warmup_min, fleet.warmup_max),
                gen_id_base=i * 1000,
                stats=stats,
            ).start()
        self.snapshot: dict[tuple[str, str], int] = {}
        self.sim.call_at(
            self.measure_since,
            lambda: self.snapshot.update(self.deployment.link_snapshot()),
        )
        return SimpleNamespace(stats=stats)

    def label(self, n_generators: int) -> str:
        mode = "federation_broadcast" if self.broadcast else "federation"
        return f"{mode}[{self.n_brokers}]"

    def counters(self, run) -> dict[str, Any]:
        p50, p99 = percentiles_ms(run["rtts"], (50, 99))
        totals = self.deployment.link_totals(since_snapshot=self.snapshot)
        counts = list(totals.values())
        result = dict(
            n_brokers=self.n_brokers,
            routing="broadcast" if self.broadcast else "routed",
            rtt_p50_ms=p50,
            rtt_p99_ms=p99,
            link_messages=totals,
            per_link_mean=sum(counts) / len(counts) if counts else 0.0,
            per_link_max=float(max(counts)) if counts else 0.0,
        )
        brokers = self.brokers
        if self.broadcast:
            result["broker_stats"] = {
                b.name: {
                    "published": b.stats.messages_published,
                    "delivered": b.stats.messages_delivered,
                    "forwarded": b.stats.messages_forwarded,
                }
                for b in brokers
            }
            return result
        result.update(
            control_messages=sum(b.stats.control_messages for b in brokers),
            orphaned_up=sum(b.stats.orphaned_up for b in brokers),
            reparents=self.controller.reparents,
            converged=self.deployment.converged(),
            broker_stats={
                b.name: {
                    "published": b.stats.messages_published,
                    "delivered": b.stats.messages_delivered,
                    "forwards_up": b.stats.forwards_up,
                    "forwards_down": b.stats.forwards_down,
                    "routing_entries": b.table.entry_count(),
                }
                for b in brokers
            },
        )
        return result


def federation_run(
    n_brokers: int,
    *,
    fanout: int = FANOUT,
    scale: Optional[Scale] = None,
    seed: int = 1,
    config: Optional[NaradaConfig] = None,
    fault_plan: Any = None,
    detect_interval: float = 1.0,
) -> FederationRunResult:
    """One routed-tree test: ``n_brokers`` federated brokers measured in
    steady state.

    ``fault_plan`` (a library name, a :class:`repro.faults.FaultPlan` or a
    template callable ``(measure_since, duration) -> FaultPlan``) arms link
    partitions / broker crashes against the tree; the
    :class:`FederationController` re-parents and re-converges routing
    during the run.
    """
    adapter = FederationAdapter(
        n_brokers, fanout=fanout, config=config, detect_interval=detect_interval
    )
    return run_point(
        adapter, n_brokers * PUBLISHERS_PER_BROKER, FederationRunResult,
        scale=scale, seed=seed, fault_plan=fault_plan,
    )


def federation_broadcast_run(
    n_brokers: int,
    *,
    scale: Optional[Scale] = None,
    seed: int = 1,
    config: Optional[NaradaConfig] = None,
) -> FederationRunResult:
    """The A/B leg: the same site workload against the modelled broadcast
    DBN — ``n_brokers`` narada brokers in a star (hub = unit controller =
    the control-room tier), every event flooded to every link."""
    adapter = FederationAdapter(n_brokers, broadcast=True, config=config)
    return run_point(
        adapter, n_brokers * PUBLISHERS_PER_BROKER, FederationRunResult,
        scale=scale, seed=seed,
    )


# ----------------------------------------------------------------- the sweep

def _sweep(ctx: RunContext, run_fn: Any) -> dict[int, RunSpec]:
    counts = FEDERATION_SWEEP_FULL if ctx.scale.name == "full" else FEDERATION_SWEEP
    return {n: ctx.spec(run_fn, n_brokers=n) for n in counts}


def routed_sweep(ctx: RunContext) -> dict[int, RunSpec]:
    return _sweep(ctx, federation_run)


def broadcast_sweep(ctx: RunContext) -> dict[int, RunSpec]:
    return _sweep(ctx, federation_broadcast_run)


def federation_scaling(
    routed: dict[int, FederationRunResult],
    broadcast: dict[int, FederationRunResult],
) -> ExperimentResult:
    """Per-link traffic and delivery RTT vs broker count, routed tree vs
    broadcast DBN — the subsystem's headline figure."""
    result = ExperimentResult(
        "federation_scaling",
        "Federated tree (topic-aware routing) vs broadcast DBN",
        "brokers",
        "event messages per link",
    )
    headers = [
        "brokers",
        "routed msg/link",
        "bcast msg/link",
        "routed p50/p99 (ms)",
        "bcast p50/p99 (ms)",
        "routed loss",
        "bcast loss",
    ]
    rows = []
    for n in sorted(set(routed) & set(broadcast)):
        r, b = routed[n], broadcast[n]
        result.add_point("routed", n, r.per_link_mean)
        result.add_point("broadcast", n, b.per_link_mean)
        result.add_point("routed_p99_ms", n, r.rtt_p99_ms)
        result.add_point("broadcast_p99_ms", n, b.rtt_p99_ms)
        rows.append(
            [
                n,
                round(r.per_link_mean, 1),
                round(b.per_link_mean, 1),
                f"{r.rtt_p50_ms:.1f}/{r.rtt_p99_ms:.1f}",
                f"{b.rtt_p50_ms:.1f}/{b.rtt_p99_ms:.1f}",
                f"{r.loss_rate:.2%}",
                f"{b.loss_rate:.2%}",
            ]
        )
    result.table = (headers, rows)
    ns = sorted(set(routed) & set(broadcast))
    if len(ns) >= 2:
        lo, hi = ns[0], ns[-1]
        broker_growth = hi / lo
        routed_growth = routed[hi].per_link_mean / max(
            1e-9, routed[lo].per_link_mean
        )
        bcast_growth = broadcast[hi].per_link_mean / max(
            1e-9, broadcast[lo].per_link_mean
        )
        result.note(
            f"brokers x{broker_growth:.1f}: per-link traffic x"
            f"{routed_growth:.2f} routed (sub-linear, ~O(log n)) vs x"
            f"{bcast_growth:.2f} broadcast (linear) — topic-aware routing "
            "removes the §III.E.2 'unnecessary data flow between nodes'"
        )
    worst_routed_loss = max(r.loss_rate for r in routed.values())
    result.note(
        f"routed delivery loss {worst_routed_loss:.2%} at every swept scale "
        "(equal delivery guarantees; the traffic saving is not paid in loss)"
    )
    orphans = sum(r.orphaned_up for r in routed.values())
    if orphans:
        result.note(f"{orphans} events orphaned during fault windows")
    result.meta["routed"] = {
        n: r.per_link_mean for n, r in sorted(routed.items())
    }
    result.meta["broadcast"] = {
        n: b.per_link_mean for n, b in sorted(broadcast.items())
    }
    result.meta["routed_loss"] = {n: r.loss_rate for n, r in sorted(routed.items())}
    return result


EXPERIMENTS = (
    Experiment(
        "federation_scaling",
        "Per-link traffic + RTT: routed tree vs broadcast DBN",
        federation_scaling,
        reads=(routed_sweep, broadcast_sweep),
    ),
)
