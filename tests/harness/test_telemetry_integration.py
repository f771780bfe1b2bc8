"""Runner/telemetry integration: cache context, CLI trace flags.

The sweep cache must never hand a fault-free (or span-free) sweep to a
lookup made under a fault plan (or an active telemetry session) — the
regression this file pins down — and the ``--trace`` / ``--metrics-out``
CLI flags must produce a schema-valid JSONL trace end to end.
"""

import json

import pytest

from repro.core import ExperimentResult
from repro.harness import runner
from repro.harness.cache import SweepCache
from repro.harness.narada_experiments import narada_run
from repro.harness.parallel import RunSpec
from repro.harness.registry import Experiment, RunContext
from repro.harness.scale import Scale
from repro.telemetry import Telemetry
from repro.telemetry.context import session
from repro.telemetry.exporters import validate_trace_file

SMOKE = Scale.smoke()


@pytest.fixture(autouse=True)
def clear_runner_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


# ------------------------------------------------------------- cache context
BUILDS = []


def _probe(fault_plan=None):
    BUILDS.append(fault_plan)


def test_cache_reuses_only_matching_context():
    BUILDS.clear()
    cache = SweepCache()

    def lookup(fault_plan=None):
        ctx = RunContext(SMOKE, fault_plan=fault_plan, cache=cache)
        ctx.sweep({"sweep": RunSpec.of(_probe, fault_plan=ctx.fault_plan)})

    lookup()
    lookup()
    assert len(BUILDS) == 1  # plain lookups share one build

    # An active fault plan must force a fresh sweep (and get its own entry).
    lookup("loss_burst")
    lookup("loss_burst")
    assert len(BUILDS) == 2

    # A telemetry session must force a fresh sweep too: a cached sweep was
    # built without span hooks, so reusing it would return empty traces.
    with session(Telemetry("t1")):
        lookup()
        lookup()  # ... but within one session the sweep is shared
    assert len(BUILDS) == 3

    # A *different* session cannot reuse the previous session's sweep.
    with session(Telemetry("t2")):
        lookup()
    assert len(BUILDS) == 4

    lookup()  # back to the plain cached entry
    assert len(BUILDS) == 4


def test_run_sets_and_restores_active_fault_plan(monkeypatch):
    seen = []

    def stub(fault_plan):
        seen.append(fault_plan)
        return ExperimentResult("chaos_threeway", "stub", "", "")

    entry = Experiment(
        "chaos_threeway", "stub", stub, params=("fault_plan",),
        fault_plan="loss_burst",
    )
    monkeypatch.setitem(runner.EXPERIMENTS, "chaos_threeway", entry)
    runner.run("chaos_threeway", scale=SMOKE, seed=1, fault_plan="mixed")
    assert seen == ["mixed"]

    # Nothing of that call outlives it: the entry's default plan applies
    # when --fault-plan is not given, and plain experiments see no plan.
    runner.run("chaos_threeway", scale=SMOKE, seed=1)
    assert seen == ["mixed", "loss_burst"]
    assert "fault:" not in runner.run("table1", scale=SMOKE, seed=1).render()

    with pytest.raises(ValueError, match="only applies to chaos"):
        runner.run("table1", scale=SMOKE, seed=1, fault_plan="mixed")


# ------------------------------------------------------------------ CLI path
def test_cli_trace_and_metrics_out(tmp_path, monkeypatch, capsys):
    def tiny(scale, seed):
        run = narada_run(20, scale=scale, seed=seed)
        result = ExperimentResult("tiny", "tiny traced run", "", "ms")
        result.table = (["received"], [[run.received]])
        return result

    monkeypatch.setitem(
        runner.EXPERIMENTS,
        "tiny",
        Experiment("tiny", "tiny traced run", tiny, params=("scale", "seed")),
    )
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    rc = runner.main([
        "tiny", "--scale", "smoke", "--seed", "3",
        "--trace", str(trace), "--metrics-out", str(metrics),
    ])
    assert rc == 0

    summary = validate_trace_file(str(trace))
    assert summary["spans"] > 0
    assert summary["complete"] == summary["spans"]
    assert summary["middlewares"] == ["narada"]

    doc = json.loads(metrics.read_text())
    assert doc["metrics"]["narada/harness/messages_sent"]["value"] > 0
    assert doc["samplers"] and doc["samplers"][0]["node"] == "hydra1"
    assert doc["runs"][0]["middleware"] == "narada"

    out = capsys.readouterr().out
    assert "== telemetry:" in out
    assert f"-> {trace}" in out


def test_cli_without_flags_prints_no_telemetry(monkeypatch, capsys):
    monkeypatch.setitem(
        runner.EXPERIMENTS,
        "tiny",
        Experiment("tiny", "t", lambda: ExperimentResult("tiny", "t", "", "")),
    )
    assert runner.main(["tiny", "--scale", "smoke"]) == 0
    assert "telemetry" not in capsys.readouterr().out
