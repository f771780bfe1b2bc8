"""Parallel sweep execution and the two-tier sweep cache.

The headline guarantees:

* a sweep fanned out over worker processes is **byte-identical** to the
  serial sweep (record books pickle to the same bytes, figure tables
  match);
* the in-memory tier is LRU-bounded;
* the disk tier is keyed by the run specs and the code version, and
  ``clear_cache`` / ``cache=False`` really do bypass it;
* a traced CLI call reads the disk tier like any other, and writes the
  same trace and metrics whether its sweeps were simulated or served.
"""

import pickle

import pytest

from repro.harness import chaos_experiments, parallel, runner
from repro.harness.cache import DiskCache, SweepCache
from repro.harness.narada_experiments import narada_run
from repro.harness.parallel import RunSpec, map_points, resolve_jobs, sweep
from repro.harness.registry import RunContext
from repro.harness.scale import Scale
from repro.telemetry import Telemetry
from repro.telemetry.exporters import write_trace_jsonl

#: Tiny scale: parallel tests run whole sweeps several times over.
TINY = Scale(
    name="tiny",
    duration=6.0,
    creation_interval_narada=0.005,
    creation_interval_rgma=0.005,
    warmup=(0.5, 1.0),
    drain=4.0,
)

SWEEP = (20, 40)


def run_scaling_sweep(seed, jobs):
    specs = {
        n: RunSpec.of(narada_run, connections=n, dbn=False, scale=TINY, seed=seed)
        for n in SWEEP
    }
    return sweep(specs, jobs)


#: Calls of :func:`_probe` in this process (the cache tests count runs).
PROBED = []


def _probe(tag, fault_plan=None):
    """A run function that costs nothing (module-level: specs name it)."""
    PROBED.append(tag)
    return tag


def _probe_sweep(tag, cache, **options):
    """Sweep one probe point through ``cache`` (``None`` = no cache)."""
    specs = {"point": RunSpec.of(_probe, tag=tag, **options)}
    return RunContext(TINY, cache=cache).sweep(specs)["point"]


@pytest.fixture(autouse=True)
def clear_runner_cache():
    runner.clear_cache()
    PROBED.clear()
    yield
    runner.clear_cache()


# ------------------------------------------------------------- resolve_jobs

def test_resolve_jobs_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env_then_default(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None, default=2) == 5
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs(None, default=2) == 2
    assert resolve_jobs(None) == 1


def test_resolve_jobs_rejects_nonpositive():
    with pytest.raises(ValueError):
        resolve_jobs(0)


# -------------------------------------------------------------- determinism

def test_parallel_sweep_byte_identical_to_serial():
    serial = run_scaling_sweep(seed=9, jobs=1)
    parallel = run_scaling_sweep(seed=9, jobs=4)
    assert list(serial) == list(parallel) == list(SWEEP)
    for n in SWEEP:
        assert pickle.dumps(serial[n].book) == pickle.dumps(parallel[n].book)
        assert serial[n].mean_rtt_ms == parallel[n].mean_rtt_ms
        assert serial[n].vmstat == parallel[n].vmstat


def test_fig7_table_identical_serial_vs_parallel(monkeypatch):
    monkeypatch.setattr(
        "repro.harness.narada_experiments.SINGLE_SWEEP", SWEEP
    )
    monkeypatch.setattr(
        "repro.harness.narada_experiments.DBN_SWEEP", (30,)
    )
    serial = runner.run("fig7", scale=TINY, seed=9, jobs=1, cache=False)
    parallel = runner.run("fig7", scale=TINY, seed=9, jobs=3, cache=False)
    assert serial.series == parallel.series
    assert serial.notes == parallel.notes


def test_map_points_preserves_input_order():
    specs = [
        RunSpec.of(narada_run, connections=n, scale=TINY, seed=9)
        for n in (40, 20, 30)
    ]
    results = map_points(specs, jobs=3)
    assert [r.connections for r in results] == [40, 20, 30]


def _plog_chaos_legs():
    """chaos_threeway's two plog legs under the ``mixed`` fault plan: the
    smallest sweep where two points feed one float total."""
    ctx = RunContext(Scale.smoke(), seed=1, fault_plan="mixed")
    legs = chaos_experiments.threeway_legs(ctx, connections=10)
    return {k: spec for k, spec in legs.items() if k.startswith("Plog")}


def test_parallel_merges_telemetry_like_serial(tmp_path):
    """Serial and --jobs 2 sweeps hand the session the same results in the
    same point order, so the metrics — float means included — and the
    written trace are the same bytes."""
    specs = _plog_chaos_legs()

    def traced(jobs):
        telemetry = Telemetry("sweep")
        ctx = RunContext(Scale.smoke(), jobs=jobs, telemetry=telemetry)
        results = ctx.sweep(specs)
        path = tmp_path / f"trace.{jobs}.jsonl"
        write_trace_jsonl(telemetry, str(path))
        return telemetry, results, path.read_bytes()

    tel_serial, serial, serial_trace = traced(1)
    tel_parallel, parallel, parallel_trace = traced(2)
    assert tel_parallel.metrics.to_dict() == tel_serial.metrics.to_dict()
    assert parallel_trace == serial_trace
    assert b'"kind": "fault_window"' in serial_trace
    # The session keeps the results themselves, in point order.
    for telemetry, results in ((tel_serial, serial), (tel_parallel, parallel)):
        assert all(
            run is results[k] for run, k in zip(telemetry.runs, specs, strict=True)
        )


# ------------------------------------------------------------ memory tier

def test_memory_tier_is_lru_bounded(monkeypatch):
    cache = SweepCache(max_entries=2)
    # A disk tier that never hits isolates the LRU.
    monkeypatch.setattr(DiskCache, "get", lambda self, key: None)
    _probe_sweep("a", cache)
    _probe_sweep("b", cache)
    _probe_sweep("a", cache)  # hit; refreshes a
    _probe_sweep("c", cache)  # evicts b (LRU)
    _probe_sweep("a", cache)  # still cached
    _probe_sweep("b", cache)  # rebuilt
    assert PROBED == ["a", "b", "c", "b"]


def test_cache_disabled_calls_builder_every_time():
    for _ in range(2):
        _probe_sweep("k", cache=None)
    assert len(PROBED) == 2


# -------------------------------------------------------------- disk tier

def test_disk_tier_survives_memory_clear():
    cache = SweepCache()
    assert _probe_sweep("roundtrip", cache) == "roundtrip"
    cache.forget()  # drop the memory tier only
    assert _probe_sweep("roundtrip", cache) == "roundtrip"
    assert len(PROBED) == 1  # second lookup came from disk
    # ... as it does for a cache that never held it in memory.
    assert _probe_sweep("roundtrip", SweepCache()) == "roundtrip"
    assert len(PROBED) == 1


def test_fault_plan_namespaces_disk_entries():
    """A fault-plan sweep must never satisfy a fault-free lookup."""
    cache = SweepCache()
    _probe_sweep("chaos", cache, fault_plan="loss_burst")
    cache.forget()  # force both lookups to the disk tier
    _probe_sweep("chaos", cache)
    assert len(PROBED) == 2  # the plain lookup ran afresh

    # ... while the same plan does hit its own entry.
    cache.forget()
    _probe_sweep("chaos", cache, fault_plan="loss_burst")
    assert len(PROBED) == 2


def test_traced_invocation_reads_the_disk_cache(tmp_path, monkeypatch, capsys):
    """A run's result is the whole observation, so a warm --trace call is
    served by the disk tier and writes the bytes a simulating call does."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def traced(leg, *flags):
        trace, metrics = tmp_path / f"{leg}.jsonl", tmp_path / f"{leg}.json"
        argv = ["fig15", "--scale", "smoke", "--jobs", "1", *flags,
                "--trace", str(trace), "--metrics-out", str(metrics)]
        assert runner.main(argv) == 0
        runner.SWEEPS.forget()  # what a fresh process starts with
        capsys.readouterr()
        return trace.read_bytes(), metrics.read_bytes()

    cold = traced("cold")

    def simulate(specs, jobs=None):
        raise AssertionError("a warm traced call built a sweep")

    with monkeypatch.context() as patched:
        patched.setattr(parallel, "map_points", simulate)
        warm = traced("warm")
    fresh = traced("fresh", "--no-cache")
    assert cold == warm == fresh
    assert b'"kind": "span"' in cold[0]


def test_clear_cache_empties_both_tiers():
    specs = {"point": RunSpec.of(_probe, tag="warm")}
    RunContext(TINY, cache=runner.SWEEPS).sweep(specs)
    assert DiskCache().get(tuple(specs.items())) == {"point": "warm"}
    runner.clear_cache()
    assert DiskCache().get(tuple(specs.items())) is None
    RunContext(TINY, cache=runner.SWEEPS).sweep(specs)
    assert len(PROBED) == 2  # neither tier held it


def test_corrupt_disk_entry_is_a_miss():
    cache = DiskCache()
    key = ("corrupt", 1)
    cache.put(key, "good")
    cache.path_for(key).write_bytes(b"\x80garbage")
    assert cache.get(key) is None
    assert not cache.path_for(key).exists()  # dropped, not retried forever


def test_scale_cache_key_distinguishes_same_name():
    """A hand-built Scale reusing a preset's name must not share its
    entries: the spec carries every Scale field, not the name."""
    fast = Scale("bench", 1.0, 0.01, 0.01, (0.1, 0.2), 1.0)
    key = lambda scale: (RunSpec.of(narada_run, connections=1, scale=scale),)
    assert key(fast) != key(Scale.bench())
    assert key(Scale.bench()) == key(Scale.bench())
    assert DiskCache().path_for(key(fast)) != DiskCache().path_for(key(Scale.bench()))
