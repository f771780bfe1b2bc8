"""The broadcast A/B leg behind the deployment surface: the star's per-link
ledger is complete (every directed link, idle ones at 0) and agrees with the
brokers' own forward counters."""

from repro.federation import (
    BroadcastDeployment,
    FederationSitePublishers,
    FederationSubscriber,
    site_topic,
)
from repro.harness.federation_experiments import federation_broadcast_run
from repro.harness.scale import Scale
from repro.sim import Simulator

STAR_3 = {("fed0", "fed1"), ("fed1", "fed0"), ("fed0", "fed2"), ("fed2", "fed0")}


def test_star_ledger_lists_every_link_and_sums_to_forward_counters():
    sim = Simulator(seed=1)
    deployment = BroadcastDeployment(sim, 3)
    sim.run_process(deployment.start())
    control = FederationSubscriber(
        sim, deployment, "fed0", "control", (site_topic(1),)
    )
    sim.run_process(control.start())
    # one site publishes, at leaf fed1: its events flood fed1->fed0->fed2
    fleet = FederationSitePublishers(
        sim, deployment, "fed1", site_topic(1), 3, 1.0, None, stop_at=10.0
    )
    fleet.start()
    sim.run(until=15.0)

    totals = deployment.link_totals()
    assert set(totals) == STAR_3
    assert totals[("fed1", "fed0")] == fleet.published > 0
    assert totals[("fed0", "fed2")] == fleet.published  # the broadcast flaw
    assert totals[("fed0", "fed1")] == totals[("fed2", "fed0")] == 0
    assert all(b.stats.deliveries_dropped == 0 for b in deployment.brokers)
    assert sum(totals.values()) == sum(
        b.stats.messages_forwarded for b in deployment.brokers
    )
    assert control.delivered == fleet.published


def test_broadcast_run_reports_the_windowed_ledger():
    run = federation_broadcast_run(3, scale=Scale.smoke())
    assert run.loss_rate == 0.0
    assert set(run.link_messages) == STAR_3
    assert min(run.link_messages.values()) > 0  # every site floods every link
    # the window is a slice of the run the broker counters cover whole
    forwarded = sum(s["forwarded"] for s in run.broker_stats.values())
    assert 0 < sum(run.link_messages.values()) <= forwarded
    assert run.per_link_mean == sum(run.link_messages.values()) / 4
