"""Harness builders reach the run functions only through RunSpecs.

Fig 15 decomposes each run's record book; these tests pin that path to
:func:`repro.core.metrics.decompose` over each run's window, check that a
converted experiment's runs come from the sweep cache, that the raw-UDP leg is a transport kind rather than
a patched factory, and that a run option nobody declares is an error.
"""

import pytest

from repro.cluster import HydraCluster
from repro.core import decompose
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

SMOKE = Scale.smoke()
RUN_MODULES = (narada_experiments, rgma_experiments, plog_experiments)


def test_book_decomposition_reads_each_runs_window():
    """fig15_threeway's rows decompose each run's window records."""
    ctx = RunContext(SMOKE, seed=2)
    runs = ctx.sweep(decomposition.threeway_runs(ctx, connections=100))
    result = decomposition.fig15_threeway(runs)
    assert [row[0] for row in result.table[1]] == ["RGMA", "Narada", "Plog"]
    for label, *row in result.table[1]:
        run = runs[label]
        phases = decompose(run.book.after(run.measure_since))
        expected = [phases.prt_ms, phases.pt_ms, phases.srt_ms, phases.rtt_ms]
        assert row == expected, label


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
