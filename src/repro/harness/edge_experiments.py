"""Edge-tier experiments: gateway scaling and gateway-crash recovery.

Two building blocks, both layers over the three middleware adapters:

* :func:`edge_point` — one run: a single-server middleware deployment fed
  by a fixed publisher fleet, fronted by ``n_gateways``
  :class:`EdgeGateway` nodes, polled by a client population of
  ``n_clients`` (:class:`EdgeAdapter`);
* :func:`direct_point` — the no-edge baseline: the same publisher
  workload delivered to one native middleware subscriber
  (:class:`DirectAdapter`).

The scaling headline: pooled upstream connections per broker stay
O(topics) — independent of the client population — while edge P99 RTT at
10k clients stays within a small factor of direct delivery.  The chaos
story (``edge_gateway_crash``): a gateway crash severs every parked poll,
clients fail over with a time cursor, and the surviving/restarted rings
replay the missed window exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster import HydraCluster
from repro.core import ExperimentResult
from repro.core.metrics import percentiles_ms
from repro.edge.client import EdgeClient
from repro.edge.config import EdgeConfig
from repro.edge.deployment import EdgeTier, gateway_node_names
from repro.harness.narada_experiments import NaradaAdapter
from repro.harness.parallel import RunSpec
from repro.harness.pipeline import Adapter, RunResult, run_point
from repro.harness.plog_experiments import PlogAdapter
from repro.harness.registry import Experiment, RunContext
from repro.harness.rgma_experiments import RgmaAdapter
from repro.harness.scale import Scale
from repro.plog import PlogConfig
from repro.powergrid import FleetConfig

EDGE_MIDDLEWARES = ("narada", "rgma", "plog")

#: (clients, gateways) grids.  The bench/smoke grid proves population
#: independence (5x the clients, same pooled connections); the full grid
#: runs the issue's 10k -> 1M sweep over gateways x{1, 4, 16}.
EDGE_SWEEP = ((2_000, 1), (10_000, 1), (2_000, 4), (10_000, 4))
EDGE_SWEEP_FULL = tuple(
    (clients, gateways)
    for gateways in (1, 4, 16)
    for clients in (10_000, 100_000, 1_000_000)
)

#: Publisher workload (fixed: the population under study is subscribers).
N_PUBLISHERS = 40
PUBLISH_INTERVAL = 2.0

#: Cohort poll processes per gateway (plus the one stamping client).
COHORTS_PER_GATEWAY = 4

CLIENT_NODES = ("ec0", "ec1", "ec2", "ec3")


@dataclass(kw_only=True)
class DirectRunResult(RunResult):
    """The no-edge baseline: native middleware delivery."""

    middleware: str
    rtt_p50_ms: float
    rtt_p99_ms: float


@dataclass(kw_only=True)
class EdgeRunResult(DirectRunResult):
    """Everything one edge run produces."""

    n_clients: int
    n_gateways: int
    #: Pooled middleware connections held by the whole gateway tier at run
    #: end — the number that must stay O(topics), not O(clients).
    pooled_connections: int
    #: The no-edge equivalent: one middleware connection per client.
    baseline_connections: int
    #: Aggregated gateway stats.
    polls: int = 0
    long_polls_parked: int = 0
    polls_timed_out: int = 0
    polls_shed: int = 0
    catch_up_polls: int = 0
    truncated_reads: int = 0
    #: Stamping-client accounting (the exactly-once columns);
    #: ``client_duplicates`` is also the run's ``duplicates``.
    client_received: int = 0
    client_redeliveries: int = 0
    client_duplicates: int = 0
    client_failovers: int = 0
    client_sheds: int = 0
    gateway_stats: dict[str, Any] = field(default_factory=dict)


def _middleware_adapter(middleware: str) -> Adapter:
    """The single-server deployment of ``middleware`` the edge tier fronts."""
    if middleware == "narada":
        return NaradaAdapter()
    if middleware == "rgma":
        return RgmaAdapter()
    if middleware == "plog":
        return PlogAdapter(config=PlogConfig(partitions=8))
    raise ValueError(f"unknown middleware {middleware!r}")


@dataclass
class DirectAdapter(Adapter):
    """The edge testbed around a middleware adapter: ``inner`` deploys the
    middleware, its publisher fleet and — as the no-edge baseline — its own
    (tap) subscriber unchanged; this layer widens the cluster with client
    nodes and fixes the publisher workload."""

    inner: Adapter

    settle = 4.0
    n_gateways = 0

    @property
    def name(self) -> str:
        return self.inner.name

    def cluster(self, sim) -> HydraCluster:
        names = tuple(f"hydra{i}" for i in range(1, 9))
        return HydraCluster(
            sim, names + gateway_node_names(self.n_gateways) + CLIENT_NODES
        )

    def fleet_options(self) -> dict[str, Any]:
        return {
            **self.inner.fleet_options(),
            "publish_interval": PUBLISH_INTERVAL,
            "client_nodes": ("hydra5", "hydra6", "hydra7", "hydra8"),
        }

    def build(self, sim, cluster) -> dict[str, str]:
        self.sim, self.cluster = sim, cluster
        sampled = self.inner.build(sim, cluster)
        self.brokers = list(self.inner.brokers)
        return sampled

    def attach_subscribers(self, fleet: FleetConfig) -> None:
        self.inner.tap = CLIENT_NODES[0]
        self.inner.attach_subscribers(fleet)
        self.receivers = self.inner.receivers

    def attach_publishers(self, fleet: FleetConfig, book) -> Any:
        return self.inner.attach_publishers(fleet, book)

    def label(self, n_generators: int) -> str:
        return f"edge_direct[{self.name}]"

    def counters(self, run) -> dict[str, Any]:
        p50, p99 = percentiles_ms(run["rtts"], (50, 99))
        return dict(middleware=self.name, rtt_p50_ms=p50, rtt_p99_ms=p99)


@dataclass
class EdgeAdapter(DirectAdapter):
    """The edge tier as a layer over a middleware adapter: ``n_gateways``
    gateways replace ``inner``'s native subscribers, polled by a population
    of ``n_clients`` — simulated as cohort-weighted poll processes (bounded
    process count at any scale; the gateway accounts parked memory per
    cohort weight) plus exactly one *stamping* client whose deliveries
    produce the RTT records."""

    n_clients: int = 0
    n_gateways: int = 0
    config: Optional[EdgeConfig] = None

    def build(self, sim, cluster) -> dict[str, str]:
        sampled = super().build(sim, cluster)
        self.topic, upstream = self.inner.edge_upstream()
        self.tier = EdgeTier(
            sim, cluster, self.inner.transport, upstream, self.n_gateways,
            (self.topic,), config=self.config,
        )
        # Gateways first: ``broker:0`` in a plan targets gateway 0 (the
        # stamping client's home), per the gateway_outage template.
        self.brokers = list(self.tier.gateways) + self.brokers
        sampled.update((g.node.name, "edge") for g in self.tier.gateways)
        return sampled

    def attach_subscribers(self, fleet: FleetConfig) -> None:
        self.tier.start()

        def client(name: str, k: int, weight: float, stamping: bool) -> EdgeClient:
            return EdgeClient(
                self.sim,
                self.inner.transport,
                self.cluster.node(CLIENT_NODES[k % len(CLIENT_NODES)]),
                self.tier.addresses,
                self.topic,
                config=self.config,
                name=name,
                home=k % self.n_gateways,
                weight=weight,
                stamping=stamping,
                middleware_label=self.name,
            )

        # Client population: one stamping client homed on gateway 0 plus
        # cohort-weighted load clients spread over gateways and client nodes.
        self.stamper = client("edge-stamper", 0, 1.0, True)
        self.receivers = [self.stamper.stats]
        n_cohorts = COHORTS_PER_GATEWAY * self.n_gateways
        cohort_weight = max(0.0, (self.n_clients - 1) / n_cohorts)
        clients = [self.stamper] + [
            client(f"edge-cohort{k}", k, cohort_weight, False)
            for k in range(n_cohorts)
        ]

        def start_clients() -> None:
            for edge_client in clients:
                edge_client.start()

        # Clients come up once the gateways are listening and subscribed.
        self.sim.call_at(self.sim.now + 1.0, start_clients)

    def label(self, n_generators: int) -> str:
        return f"edge[{self.name},c{self.n_clients},g{self.n_gateways}]"

    def counters(self, run) -> dict[str, Any]:
        gateways, stamper = self.tier.gateways, self.stamper.stats
        return dict(
            super().counters(run),
            n_clients=self.n_clients,
            n_gateways=self.n_gateways,
            pooled_connections=self.tier.total_upstream_connections(),
            baseline_connections=self.n_clients,
            polls=sum(g.stats.polls_received for g in gateways),
            long_polls_parked=sum(g.stats.long_polls_parked for g in gateways),
            polls_timed_out=sum(g.stats.polls_timed_out for g in gateways),
            polls_shed=sum(g.stats.polls_shed for g in gateways),
            catch_up_polls=sum(g.stats.catch_up_polls for g in gateways),
            truncated_reads=sum(g.stats.truncated_reads for g in gateways),
            client_received=stamper.received,
            client_redeliveries=stamper.redeliveries,
            client_duplicates=stamper.duplicates,
            client_failovers=stamper.failovers,
            client_sheds=stamper.sheds,
            gateway_stats={
                g.name: {
                    "polls": g.stats.polls_received,
                    "parked_total": g.stats.long_polls_parked,
                    "timed_out": g.stats.polls_timed_out,
                    "shed": g.stats.polls_shed,
                    "events_in": g.stats.events_in,
                    "events_out": g.stats.events_out,
                    "upstream_connections": g.upstream_connections,
                }
                for g in gateways
            },
        )


def edge_point(
    n_clients: int,
    n_gateways: int,
    middleware: str = "narada",
    *,
    scale: Optional[Scale] = None,
    seed: int = 1,
    config: Optional[EdgeConfig] = None,
    fault_plan: Any = None,
    scenario: Any = None,
) -> EdgeRunResult:
    """One edge run: ``n_clients`` long-polling clients over ``n_gateways``
    gateways in front of ``middleware``.  ``scenario`` perturbs the
    publisher fleet's rates and merges its fault fragment into
    ``fault_plan`` (both: library names, templates or concrete objects)."""
    adapter = EdgeAdapter(
        _middleware_adapter(middleware), n_clients, n_gateways, config or EdgeConfig()
    )
    return run_point(
        adapter, N_PUBLISHERS, EdgeRunResult, scale=scale, seed=seed,
        fault_plan=fault_plan, scenario=scenario,
    )


def direct_point(
    middleware: str = "narada",
    *,
    scale: Optional[Scale] = None,
    seed: int = 1,
) -> DirectRunResult:
    """The no-edge baseline: identical publisher workload, one native
    middleware subscriber stamping the records."""
    adapter = DirectAdapter(_middleware_adapter(middleware))
    return run_point(adapter, N_PUBLISHERS, DirectRunResult, scale=scale, seed=seed)


# ----------------------------------------------------------------- the sweep

def edge_sweep(
    ctx: RunContext,
    points: Optional[tuple[tuple[int, int], ...]] = None,
    middleware: str = "narada",
) -> dict[tuple[int, int], RunSpec]:
    """Every ``(clients, gateways)`` point of the grid for ``ctx.scale``."""
    if points is None:
        points = EDGE_SWEEP_FULL if ctx.scale.name == "full" else EDGE_SWEEP
    return {
        (c, g): ctx.spec(edge_point, n_clients=c, n_gateways=g, middleware=middleware)
        for c, g in points
    }


def direct_baseline(ctx: RunContext, middleware: str = "narada") -> dict[str, RunSpec]:
    return {middleware: ctx.spec(direct_point, middleware=middleware)}


def edge_scaling(
    sweep: dict[tuple[int, int], EdgeRunResult],
    baseline: dict[str, DirectRunResult],
) -> ExperimentResult:
    """Clients vs RTT percentiles and per-broker connection counts — the
    pooling headline against the no-edge baseline (``{middleware: run}``,
    as :func:`direct_baseline` sweeps it)."""
    ((middleware, direct),) = baseline.items()
    result = ExperimentResult(
        "edge_scaling",
        f"Edge gateway tier over {middleware}: clients 10k+ on pooled "
        "broker connections",
        "clients",
        "RTT (ms) / connections",
    )
    headers = [
        "clients",
        "gateways",
        "edge p50/p99 (ms)",
        "direct p50/p99 (ms)",
        "loss",
        "pooled conns",
        "no-edge conns",
        "parked",
        "shed",
    ]
    rows = []
    for (c, g), run in sorted(sweep.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        result.add_point(f"edge_p99_ms[g={g}]", c, run.rtt_p99_ms)
        result.add_point(f"pooled_connections[g={g}]", c, run.pooled_connections)
        rows.append(
            [
                c,
                g,
                f"{run.rtt_p50_ms:.1f}/{run.rtt_p99_ms:.1f}",
                f"{direct.rtt_p50_ms:.1f}/{direct.rtt_p99_ms:.1f}",
                f"{run.loss_rate:.2%}",
                run.pooled_connections,
                run.baseline_connections,
                run.long_polls_parked,
                run.polls_shed,
            ]
        )
    result.table = (headers, rows)

    by_gateways: dict[int, list[EdgeRunResult]] = {}
    for (c, g), run in sweep.items():
        by_gateways.setdefault(g, []).append(run)
    for g, runs in sorted(by_gateways.items()):
        runs = sorted(runs, key=lambda r: r.n_clients)
        if len(runs) >= 2:
            lo, hi = runs[0], runs[-1]
            result.note(
                f"{g} gateway(s): clients x{hi.n_clients / lo.n_clients:.0f} "
                f"({lo.n_clients} -> {hi.n_clients}), pooled connections "
                f"{lo.pooled_connections} -> {hi.pooled_connections} "
                "(population-independent, O(topics)) vs "
                f"{hi.baseline_connections} no-edge"
            )
    sample = min(
        (r for r in sweep.values()), key=lambda r: abs(r.n_clients - 10_000)
    )
    if direct.rtt_p99_ms > 0:
        result.note(
            f"edge P99 {sample.rtt_p99_ms:.1f} ms at {sample.n_clients} "
            f"clients = {sample.rtt_p99_ms / direct.rtt_p99_ms:.2f}x direct "
            f"{middleware} delivery ({direct.rtt_p99_ms:.1f} ms)"
        )
    result.meta["middleware"] = middleware
    result.meta["pooled_connections"] = {
        f"{c}x{g}": run.pooled_connections for (c, g), run in sorted(sweep.items())
    }
    result.meta["edge_p99_ms"] = {
        f"{c}x{g}": run.rtt_p99_ms for (c, g), run in sorted(sweep.items())
    }
    result.meta["loss"] = {
        f"{c}x{g}": run.loss_rate for (c, g), run in sorted(sweep.items())
    }
    result.meta["direct_p99_ms"] = direct.rtt_p99_ms
    result.meta["max_clients"] = max(c for c, _ in sweep)
    result.meta["max_pooled"] = max(r.pooled_connections for r in sweep.values())
    return result


def edge_gateway_crash(
    runs: dict[str, EdgeRunResult], fault_plan: str = "gateway_outage"
) -> ExperimentResult:
    """Gateway crash mid-window: dropped long-polls, failover, catch-up
    replay — loss and application-duplicate columns must both be zero."""
    result = ExperimentResult(
        "edge_gateway_crash",
        "Gateway crash: severed long-polls, time-cursor failover, ring replay",
        "middleware",
        "percent",
    )
    headers = [
        "middleware",
        "sent",
        "delivered",
        "loss",
        "dups",
        "redeliveries",
        "failovers",
        "timeouts/shed",
    ]
    rows = []
    for middleware, run in runs.items():
        duplicates_rate = run.client_duplicates / max(1, run.sent)
        result.add_point("loss", middleware, run.loss_rate)
        result.add_point("duplicates", middleware, duplicates_rate)
        rows.append(
            [
                middleware,
                run.sent,
                run.received,
                f"{run.loss_rate:.2%}",
                f"{duplicates_rate:.2%}",
                run.client_redeliveries,
                run.client_failovers,
                f"{run.polls_timed_out}/{run.polls_shed}",
            ]
        )
    result.table = (headers, rows)
    worst_loss = max(r.loss_rate for r in runs.values())
    worst_dups = max(r.client_duplicates for r in runs.values())
    total_redeliveries = sum(r.client_redeliveries for r in runs.values())
    result.note(
        f"worst loss {worst_loss:.2%}, {worst_dups} application duplicates "
        f"({total_redeliveries} redeliveries suppressed by cursor dedup) — "
        "every in-window message delivered exactly once through crash + "
        "failover + catch-up"
    )
    result.meta["loss"] = {m: r.loss_rate for m, r in runs.items()}
    result.meta["duplicates"] = {m: r.client_duplicates for m, r in runs.items()}
    result.meta["failovers"] = {m: r.client_failovers for m, r in runs.items()}
    result.meta["fault_plan"] = fault_plan
    return result


#: Load used by the gateway-crash chaos run: small enough to smoke quickly,
#: two gateways so the stamping client has somewhere to fail over to.
CRASH_CLIENTS = 500
CRASH_GATEWAYS = 2


def gateway_crash_legs(ctx: RunContext) -> dict[str, RunSpec]:
    """The gateway-crash chaos run over all three middlewares."""
    return {
        middleware: ctx.spec(
            edge_point, n_clients=CRASH_CLIENTS, n_gateways=CRASH_GATEWAYS,
            middleware=middleware,
        )
        for middleware in EDGE_MIDDLEWARES
    }


run_gateway_crash = Experiment(
    "edge_gateway_crash",
    "Gateway crash: failover, ring replay, exactly-once",
    edge_gateway_crash,
    reads=(gateway_crash_legs,),
    params=("fault_plan",),
    fault_plan="gateway_outage",
)

EXPERIMENTS = (
    Experiment(
        "edge_scaling",
        "Edge tier: clients 10k+ pooled onto O(topics) connections",
        edge_scaling,
        reads=(edge_sweep, direct_baseline),
    ),
    run_gateway_crash,
)
