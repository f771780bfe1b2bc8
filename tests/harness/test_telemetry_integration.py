"""Runner/telemetry integration: cache context, CLI trace flags.

The sweep cache must never hand a fault-free sweep to a lookup made under
a fault plan — the regression this file pins down — and the ``--trace`` /
``--metrics-out`` CLI flags must produce a schema-valid JSONL trace end to
end, read off the finished results the experiment's sweeps return.
"""

import json

import pytest

from repro.core import ExperimentResult
from repro.core.report import render_table
from repro.harness import decomposition, pipeline, runner
from repro.harness.cache import SweepCache
from repro.harness.edge_experiments import edge_point
from repro.harness.federation_experiments import federation_run
from repro.harness.narada_experiments import narada_run
from repro.harness.parallel import RunSpec
from repro.harness.plog_experiments import plog_run
from repro.harness.registry import Experiment, RunContext
from repro.harness.rgma_experiments import rgma_run
from repro.harness.scale import Scale
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.exporters import (
    metrics_tables,
    phase_rows,
    span_line,
    span_lines,
    validate_trace_file,
    write_metrics_json,
)

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

    lookup()  # back to the plain cached entry
    assert len(BUILDS) == 2


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
    def tiny(runs):
        result = ExperimentResult("tiny", "tiny traced run", "", "ms")
        result.table = (["received"], [[runs[20].received]])
        return result

    def reads(ctx):
        return {20: ctx.spec(narada_run, connections=20)}

    monkeypatch.setitem(
        runner.EXPERIMENTS,
        "tiny",
        Experiment("tiny", "tiny traced run", tiny, reads=(reads,)),
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


# ------------------------------------------------------ passive observation
#: One run per adapter family: (run function, positional arguments).
RUNS = {
    "narada": (narada_run, (100,)),
    "rgma": (rgma_run, (60,)),
    "plog": (plog_run, (100,)),
    "edge": (edge_point, (500, 2)),
    "federation": (federation_run, (7,)),
}


def _recorded_run(monkeypatch, name):
    """Run ``RUNS[name]`` at smoke scale; return (result, its Simulator)."""
    sims = []

    class Recorded(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(pipeline, "Simulator", Recorded)
    fn, args = RUNS[name]
    result = fn(*args, scale=SMOKE, seed=1)
    (sim,) = sims
    return result, sim


@pytest.mark.parametrize("name", RUNS)
def test_traced_run_schedules_the_untraced_events(monkeypatch, tmp_path, name):
    """A session observes a finished run without scheduling one kernel
    event, and its --metrics-out node summaries are the run's own vmstat
    columns."""
    traced, traced_sim = _recorded_run(monkeypatch, name)
    events = traced_sim.events_scheduled
    telemetry = Telemetry(name)
    telemetry.observe(traced)
    assert traced_sim.events_scheduled == events

    path = tmp_path / "metrics.json"
    write_metrics_json(telemetry, str(path))
    rows = json.loads(path.read_text())["samplers"]
    assert [row["node"] for row in rows] == list(traced.vmstat)
    for row, kept in zip(rows, traced.node_samples, strict=True):
        column = traced.vmstat[row["node"]]
        assert row["measure_since"] == traced.measure_since
        assert row["memory_consumption_mb"] == column.memory_consumption_mb
        assert (
            pipeline.steady_state_summary(kept.samples, traced.measure_since)
            == column
        )


def test_metrics_json_sampler_rows_read_the_steady_state_window(tmp_path):
    """--metrics-out summarizes a node as RunResult.vmstat (Figs 6/13) does:
    CPU idle over the measurement window, not over the whole run."""
    telemetry = Telemetry("window")
    run = narada_run(100, scale=SMOKE, seed=1)
    telemetry.observe(run)
    path = tmp_path / "metrics.json"
    write_metrics_json(telemetry, str(path))
    (row,) = [
        r for r in json.loads(path.read_text())["samplers"]
        if r["node"] == "hydra1"
    ]
    column = run.vmstat["hydra1"]
    assert row["mean_cpu_idle_percent"] == column.mean_cpu_idle_percent
    assert round(row["mean_cpu_idle_percent"], 2) == 98.33
    assert row["memory_consumption_mb"] == column.memory_consumption_mb


@pytest.mark.parametrize("name", ["narada", "federation", "edge"])
def test_session_spans_equal_spans_bound_from_an_untraced_book(name):
    """Every phase is stamped on the record, observed or not: a session's
    span lines are exactly the same seed's other run's book rendered."""
    fn, args = RUNS[name]
    plain = fn(*args, scale=SMOKE, seed=1)
    telemetry = Telemetry(name)
    telemetry.observe(fn(*args, scale=SMOKE, seed=1))
    (run,) = telemetry.runs
    lines = list(span_lines(telemetry))
    assert [span_line(r, run.middleware) for r in plain.book.records] == lines
    assert any(line.get("hops", 0) > 1 for line in lines)


def test_telemetry_table_reads_the_figures_window():
    """The telemetry table's PRT/PT/SRT/RTT columns are fig15's rows for the
    same runs: each middleware's measurement window, not its warm-up."""
    telemetry = Telemetry("fig15")
    ctx = RunContext(SMOKE, seed=1, telemetry=telemetry)
    runs = ctx.sweep(decomposition.paper_pair(ctx, connections=100))
    figure = decomposition.fig15(runs).table[1]
    table = phase_rows(telemetry)
    assert [row[0] for row in table] == ["narada", "rgma"]
    by_label = {label.lower(): cells for label, *cells in figure}
    for middleware, spans, *_counts, prt, pt, srt, rtt in table:
        assert [prt, pt, srt, rtt] == by_label[middleware], middleware
        # The count columns stay whole-run: every record is a span line.
        run = runs["Narada" if middleware == "narada" else "RGMA"]
        assert spans == len(run.book) > len(run.book.after(run.measure_since))
    # ... and render as the figure's cells do.
    text = metrics_tables(telemetry).splitlines()
    for middleware, cells in by_label.items():
        (line,) = [t for t in text if t.split()[:1] == [middleware]]
        rendered = render_table(["ms"] * 4, [cells]).splitlines()[-1]
        assert line.split()[-4:] == rendered.split(), middleware


def test_fig15_span_readers_are_served_from_the_sweep_cache(
    tmp_path, monkeypatch, capsys
):
    """fig15_federation and fig15_edge read plain sweeps: a second CLI call
    on the same cache directory simulates nothing and prints the same."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["fig15_federation", "fig15_edge", "--scale", "smoke", "--jobs", "1"]
    assert runner.main(argv) == 0
    first = capsys.readouterr().out
    runner.SWEEPS.forget()  # what a fresh process starts with

    def simulate(spec):
        raise AssertionError(f"{spec.fn} ran instead of being served")

    monkeypatch.setattr(RunSpec, "run", simulate)
    assert runner.main(argv) == 0
    assert capsys.readouterr().out == first
    assert "broker-side marks" in first and "gateway dwell" in first
