"""The plog's idle floor, gated on exact counts.

With no load, what a partitioned-log run costs is its consumers' long
polls: each fetch session parks at the broker and expires every
``fetch_max_wait``.  One session per (consumer, broker) bounds the parked
polls by consumers × brokers × ⌈duration / fetch_max_wait⌉; one loop per
partition would multiply that by the partitions each consumer holds.
"""

import math

from repro.harness import pipeline
from repro.harness.plog_experiments import PlogAdapter, PlogRunResult
from repro.harness.scale import Scale
from repro.sim import Simulator

#: Kernel events of the idle run below (9 423 with per-broker sessions; one
#: fetch loop per partition scheduled 71 719).
EVENT_BUDGET = 10_500


def test_idle_plog_run_parks_one_session_per_consumer_and_broker(monkeypatch):
    """``plog_run(1)`` at smoke scale, seed 1."""
    sims = []

    class Recorded(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(pipeline, "Simulator", Recorded)
    adapter = PlogAdapter()
    pipeline.run_point(
        adapter, 1, PlogRunResult, scale=Scale.smoke(), seed=1, connections=1
    )
    (sim,) = sims
    (broker,) = adapter.brokers
    cycles = math.ceil(sim.now / broker.config.fetch_max_wait)
    # Slack: each append can answer one session early, and each assignment
    # can start a session loop mid-cycle; either adds at most one park.
    slack = broker.stats.records_appended + sum(
        consumer.rebalances_seen for consumer in adapter.consumers
    )
    floor = len(adapter.consumers) * len(adapter.brokers) * cycles
    assert broker.stats.long_polls_parked <= floor + slack
    assert sim.events_scheduled <= EVENT_BUDGET
