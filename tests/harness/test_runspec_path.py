"""Harness builders reach the run functions only through RunSpecs.

Fig 15 decomposes each run's record book; these tests pin that path to the
span pipeline it replaced, check that a converted experiment's runs come
from the sweep cache, that the raw-UDP leg is a transport kind rather than
a patched factory, and that a run option nobody declares is an error.
"""

import pytest

from repro.cluster import HydraCluster
from repro.harness import (
    decomposition,
    narada_experiments,
    pipeline,
    plog_experiments,
    rgma_experiments,
    runner,
)
from repro.harness.cache import SweepCache
from repro.harness.narada_experiments import narada_run
from repro.harness.pipeline import RAW_UDP_LOSS, make_transport
from repro.harness.registry import RunContext
from repro.harness.scale import Scale
from repro.sim import Simulator
from repro.telemetry.spans import bind_book, phase_breakdown

SMOKE = Scale.smoke()
RUN_MODULES = (narada_experiments, rgma_experiments, plog_experiments)


def test_book_decomposition_equals_the_span_pipeline():
    """fig15_threeway's rows are phase_breakdown of the same runs' spans."""
    ctx = RunContext(SMOKE, seed=2)
    runs = ctx.sweep(decomposition.threeway_runs(ctx, connections=100))
    result = decomposition.fig15_threeway(runs)
    assert [row[0] for row in result.table[1]] == ["RGMA", "Narada", "Plog"]
    for label, *row in result.table[1]:
        run = runs[label]
        spans = phase_breakdown(bind_book(run.book, label), since=run.measure_since)
        expected = [spans.prt_ms, spans.pt_ms, spans.srt_ms, spans.rtt_ms]
        assert row == pytest.approx(expected, rel=1e-9), label


def test_converted_experiment_runs_once_per_cache(monkeypatch):
    calls = []
    for module in RUN_MODULES:
        original = module.run_point

        def counting(adapter, *args, _original=original, **kwargs):
            calls.append(adapter.name)
            return _original(adapter, *args, **kwargs)

        monkeypatch.setattr(module, "run_point", counting)
    cache = SweepCache()
    for _ in range(2):
        runner.EXPERIMENTS["fig15_threeway"].run(
            SMOKE, seed=5, cache=cache, connections=40
        )
    assert calls == ["rgma", "narada", "plog"]


def test_udp_raw_is_unacked_lossy_and_never_retries():
    sim = Simulator(seed=1)
    lan = HydraCluster(sim).lan
    raw = make_transport("udp_raw", sim, lan, udp_loss=0.017)
    assert raw.acked is False
    assert raw.max_retries == 0
    assert raw.loss_probability == RAW_UDP_LOSS == 0.03
    acked = make_transport("udp", sim, lan, udp_loss=0.017)
    assert acked.acked is True and acked.loss_probability == 0.017
    with pytest.raises(ValueError, match="unknown transport"):
        make_transport("udp_raw2", sim, lan, udp_loss=0.017)


@pytest.mark.parametrize(
    "option", [{"fleet_failover": True}, {"transprot_kind": "udp"}]
)
def test_unknown_run_option_raises_before_simulating(monkeypatch, option):
    simulators = []
    monkeypatch.setattr(pipeline, "Simulator", lambda **kw: simulators.append(kw))
    with pytest.raises(TypeError, match=next(iter(option))):
        narada_run(10, **option)
    assert simulators == []
