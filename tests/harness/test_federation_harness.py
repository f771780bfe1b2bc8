"""Federation harness acceptance: sweep-cache namespacing, routed-vs-
broadcast behaviour, fault recovery and span decomposition."""

from repro.core import decompose
from repro.faults import FaultPlan
from repro.harness.cache import DiskCache
from repro.harness.federation_experiments import (
    FANOUT,
    PUBLISHERS_PER_BROKER,
    FederationAdapter,
    FederationRunResult,
    federation_broadcast_run,
    federation_run,
    federation_scaling,
)
from repro.harness.parallel import RunSpec
from repro.harness.pipeline import run_point
from repro.harness.scale import Scale
from repro.telemetry import Telemetry
from repro.telemetry.exporters import span_lines

SMOKE = Scale.smoke()


def _sweep_key(routing, counts=(3, 7), fanout=FANOUT, scale=SMOKE, seed=1):
    if routing == "broadcast":
        return tuple(
            (n, RunSpec.of(federation_broadcast_run, n_brokers=n, scale=scale, seed=seed))
            for n in counts
        )
    return tuple(
        (n, RunSpec.of(federation_run, n_brokers=n, fanout=fanout, scale=scale, seed=seed))
        for n in counts
    )


# ------------------------------------------------------------ cache keying

def test_disk_cache_separates_routing_modes():
    cache = DiskCache()
    routed = cache.path_for(_sweep_key("routed"))
    broadcast = cache.path_for(_sweep_key("broadcast"))
    assert routed != broadcast


def test_disk_cache_separates_topology_shape():
    cache = DiskCache()
    base = cache.path_for(_sweep_key("routed"))
    assert base != cache.path_for(_sweep_key("routed", counts=(3, 7, 15)))
    assert base != cache.path_for(_sweep_key("routed", fanout=3))
    assert base != cache.path_for(_sweep_key("routed", seed=2))


# ------------------------------------------------------------- run smokes

def test_federation_run_delivers_everything():
    run = federation_run(3, scale=SMOKE)
    assert run.routing == "routed"
    assert run.sent > 0
    assert run.loss_rate == 0.0
    assert run.converged
    assert run.per_link_mean > 0
    assert run.orphaned_up == 0
    # covering bound: the root holds at most one entry per (child x topic)
    # plus its local control-room topics
    root = run.broker_stats["fed0"]
    assert root["routing_entries"] <= 2 * 3 + 3


def test_broadcast_leg_floods_every_link():
    routed = federation_run(7, scale=SMOKE)
    broadcast = federation_broadcast_run(7, scale=SMOKE)
    assert broadcast.routing == "broadcast"
    assert broadcast.loss_rate == 0.0
    # the headline: the routed tree moves strictly less per link
    assert routed.per_link_mean < broadcast.per_link_mean
    # ... and the broadcast DBN flooded the idle links the tree skipped
    assert min(broadcast.link_messages.values()) > 0
    assert min(routed.link_messages.values()) == 0  # leaf downlinks idle


def test_federation_scaling_result_shape():
    routed = {n: federation_run(n, scale=SMOKE) for n in (3, 7)}
    broadcast = {n: federation_broadcast_run(n, scale=SMOKE) for n in (3, 7)}
    result = federation_scaling(routed, broadcast)
    assert result.experiment_id == "federation_scaling"
    headers, rows = result.table
    assert len(rows) == 2
    assert {"routed", "broadcast"} <= set(result.series)
    # broadcast grows faster than routed between the two scales
    assert (
        broadcast[7].per_link_mean / broadcast[3].per_link_mean
        > routed[7].per_link_mean / routed[3].per_link_mean
    )


# ---------------------------------------------------------------- recovery

def test_broker_crash_fault_plan_reparents_and_recovers():
    def plan(measure_since, duration):
        return FaultPlan().broker_crash(
            at=measure_since + 0.25 * duration,
            broker="fed1",
            restart_after=0.3 * duration,
        )

    run = federation_run(7, scale=SMOKE, fault_plan=plan, detect_interval=0.5)
    assert run.reparents >= 2  # crash rewire + restore rewires
    assert run.converged
    # the tree keeps delivering through the outage window; the only losses
    # are events orphaned while uplinks were down
    assert run.received > 0
    assert run.sent - run.received <= run.orphaned_up + run.sent // 10


def test_tree_link_partition_is_held_not_lost():
    # TCP holds stream traffic across a partition: events published in the
    # window arrive after the heal, so the run ends converged and lossless.
    def plan(measure_since, duration):
        return FaultPlan().partition(
            at=measure_since + 0.2 * duration,
            duration=0.2 * duration,
            hosts=("fed5",),
        )

    run = federation_run(7, scale=SMOKE, fault_plan=plan)
    assert run.converged
    assert run.loss_rate == 0.0


# --------------------------------------------------------------- telemetry

def test_federated_spans_decompose_and_count_hops():
    tel = Telemetry("federation test")
    run = federation_run(7, scale=SMOKE)
    tel.observe(run)
    spans = list(span_lines(tel))
    assert len(spans) == len(run.book)
    assert all(s["middleware"] == "federation" for s in spans)
    phases = decompose(run.book, since=run.measure_since)
    assert phases.prt_ms >= 0
    assert phases.pt_ms > 0
    assert phases.srt_ms >= 0
    # a leaf publish crosses 3 brokers to reach the control room: more
    # broker-side marks than a single-broker path would ever produce
    assert max(s.get("hops", 0) for s in spans) >= 4
    # the first broker to see the event recorded itself on the span
    assert any(
        s.get("components", {}).get("broker_in", "").startswith("fed")
        for s in spans
    )


def test_federated_span_counters_count_every_broker_mark():
    """The book's tally reaches the session as per-broker span counters,
    one mark per broker a copy crossed."""
    run = federation_run(3, scale=SMOKE)
    tel = Telemetry("federation counters")
    tel.observe(run)
    broker_in = {
        key.component: counter.value
        for key, counter in tel.metrics
        if key.middleware == "federation" and key.name == "span.broker_in"
    }
    assert set(broker_in) == {"fed0", "fed1", "fed2"}
    # The root marks every leaf's forwarded copy too, not only the events
    # its own site published (the first marks a trace line shows).
    first = sum(
        line.get("components", {}).get("broker_in") == "fed0"
        for line in span_lines(tel)
    )
    assert broker_in["fed0"] > first


# ------------------------------------------------------------- refusals

class _DeadSiteAdapter(FederationAdapter):
    """The routed tree with one leaf broker shut down before its site's
    publishers connect."""

    def build(self, sim, cluster):
        sampled = super().build(sim, cluster)
        self.deployment.broker("fed2").shutdown()
        return sampled


def test_shut_down_site_broker_refuses_its_publishers():
    run = run_point(
        _DeadSiteAdapter(3), 3 * PUBLISHERS_PER_BROKER, FederationRunResult,
        scale=SMOKE, seed=1,
    )
    assert run.refused == PUBLISHERS_PER_BROKER
    assert run.oom
    assert run.received > 0  # the two live sites still deliver
    assert federation_run(3, scale=SMOKE).refused == 0
