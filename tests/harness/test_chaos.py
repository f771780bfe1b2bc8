"""Chaos experiment family: registration, plan plumbing, and (slow) the
acceptance properties — loss under faults, recovery, and bit-identical
same-seed reruns."""

import pytest

from repro.faults import PLANS, named_plan
from repro.harness import chaos_experiments, edge_experiments, runner
from repro.harness.scale import Scale


def test_chaos_experiments_are_registered():
    entries = chaos_experiments.EXPERIMENTS + (edge_experiments.run_gateway_crash,)
    for entry in entries:
        assert runner.EXPERIMENTS[entry.id] is entry
        assert entry.description
        assert entry.id in runner.list_experiments()
        # Accepting --fault-plan and naming a default plan go together.
        assert "fault_plan" in entry.params
        assert entry.fault_plan in PLANS


def test_fault_plan_is_rejected_for_non_chaos_experiments():
    with pytest.raises(ValueError, match="only applies to chaos"):
        runner.run("table1", scale="smoke", fault_plan="loss_burst")


def test_chaos_experiment_rejects_unknown_plan_before_running():
    with pytest.raises(ValueError, match="unknown fault plan"):
        runner.run("chaos_threeway", scale="smoke", fault_plan="bogus")


def test_cli_exposes_fault_plan_choices():
    with pytest.raises(SystemExit):
        runner.main(["chaos_threeway", "--fault-plan", "bogus"])
    assert runner.main(["--list"]) == 0


@pytest.mark.slow
def test_same_seed_chaos_runs_are_bit_identical():
    """Acceptance: identical fault schedule + seed => identical results."""
    import numpy as np

    from repro.faults import RetryPolicy
    from repro.harness.plog_experiments import plog_run
    from repro.plog import PlogConfig

    config = PlogConfig().with_(
        producer_retry=RetryPolicy(retries=4, backoff=0.1),
        consumer_recovery=True,
    )
    scale = Scale.named("smoke")

    def one_run():
        return plog_run(
            100,
            transport_kind="udp",
            scale=scale,
            seed=9,
            config=config,
            fault_plan=named_plan("loss_burst"),
        )

    a, b = one_run(), one_run()
    assert a.sent == b.sent
    assert a.received == b.received
    assert a.loss_rate == b.loss_rate
    assert a.producer_retries == b.producer_retries
    assert np.array_equal(a.rtts, b.rtts)
    assert a.fault_log == b.fault_log


@pytest.mark.slow
def test_chaos_threeway_smoke_acceptance():
    """Acceptance: loss burst is visible without retry, healed with it."""
    result = runner.run("chaos_threeway", scale="smoke")
    header, rows = result.table
    assert len(rows) == 4
    runs = result.meta["runs"]
    assert runs["Plog (UDP, no retry)"].loss_rate > 0.0
    assert runs["Plog (UDP, retry)"].loss_rate < 0.005
    assert runs["R-GMA (TCP)"].loss_rate == 0.0
    assert any(line.startswith("fault:") for line in result.notes)


@pytest.mark.slow
def test_chaos_broker_failover_ordering():
    """Recovery machinery strictly improves loss: one-shot > retry > failover."""
    result = runner.run("chaos_broker_failover", scale="smoke")
    header, rows = result.table
    losses = [float(row[3].rstrip("%")) / 100.0 for row in rows]
    assert losses[0] > losses[1] > losses[2] or (
        losses[0] > losses[1] and losses[2] == 0.0
    )
    assert losses[2] < 0.005


def test_all_plans_resolve():
    for name in PLANS:
        template = named_plan(name)
        plan = template(100.0, 30.0)
        assert len(plan) >= 1


def test_every_run_path_reports_injected_and_skipped_faults():
    """The injector's log reaches the result on every run path — including
    the notes for faults a middleware has no process to apply them to."""
    from repro.harness.edge_experiments import edge_point
    from repro.harness.federation_experiments import federation_run
    from repro.harness.rgma_experiments import rgma_run

    smoke = Scale.smoke()
    # R-GMA has no broker or consumer process: two of the gauntlet's three
    # faults are skipped against it, and the log must say so.
    rgma = rgma_run(20, scale=smoke, fault_plan="durability_gauntlet")
    assert len(rgma.fault_log) == 3
    skipped = [line for line in rgma.fault_log if "skipped: no such" in line]
    assert len(skipped) == 2
    assert any("broker_crash" in line for line in skipped)
    assert any("consumer_crash" in line for line in skipped)
    assert any("partition" in line and "isolated" in line for line in rgma.fault_log)

    edge = edge_point(200, 2, "narada", scale=smoke, fault_plan="gateway_outage")
    assert any("broker_crash" in line for line in edge.fault_log)
    tree = federation_run(3, scale=smoke, fault_plan="broker_outage")
    assert any("broker_crash" in line for line in tree.fault_log)
    assert federation_run(3, scale=smoke).fault_log == []


def test_cli_refuses_a_flag_no_requested_id_accepts(monkeypatch, capsys):
    with pytest.raises(SystemExit):
        runner.main(["fig7", "--fault-plan", "loss_burst", "--scale", "smoke"])
    assert "applies to none of fig7" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        runner.main(["chaos_threeway", "table1", "--scenario", "storm_front"])
    assert "--scenario storm_front applies to none" in capsys.readouterr().err


def test_cli_forwards_a_flag_only_where_accepted(monkeypatch, capsys):
    from repro.core import ExperimentResult
    from repro.harness.registry import Experiment

    seen = []

    def stub(fault_plan):
        seen.append(fault_plan)
        return ExperimentResult("chaos_threeway", "stub", "", "")

    monkeypatch.setitem(
        runner.EXPERIMENTS,
        "chaos_threeway",
        Experiment("chaos_threeway", "stub", stub, params=("fault_plan",)),
    )
    # A mixed list: table1 would reject the flag, so it must not get it.
    argv = ["table1", "chaos_threeway", "--fault-plan", "mixed", "--scale", "smoke"]
    assert runner.main(argv) == 0
    assert seen == ["mixed"]
    assert "== table1" in capsys.readouterr().out
