"""The one cache-key contract: a sweep's specs *are* its key.

Two sweeps that differ in any single input — middleware, point, seed, any
``Scale`` field, a config, the routing mode, cohort size, fleet mode, the
fault plan, the scenario — must get different in-process keys and different
disk entries; equal sweeps must share both.  The spec builders the
registered experiments use are the fixtures, so a builder that forgot to
thread a context field into its specs fails here.
"""

import dataclasses

import pytest

from repro.edge import EdgeConfig
from repro.harness import (
    chaos_experiments,
    edge_experiments,
    federation_experiments,
    fleet_experiments,
    narada_experiments,
    scenario_experiments,
)
from repro.harness.cache import DiskCache, SweepCache
from repro.harness.parallel import RunSpec
from repro.harness.registry import RunContext
from repro.harness.scale import Scale
from repro.telemetry import Telemetry
from repro.telemetry.context import session

SMOKE = Scale.smoke()
CTX = RunContext(SMOKE, seed=1)
POINTS = ((1000, 1), (1000, 4))


def _with(**changes):
    return dataclasses.replace(CTX, **changes)


def _scale_changing(field_name):
    value = {"name": "other", "warmup": (1.0, 3.0)}.get(field_name, 7.0)
    return dataclasses.replace(SMOKE, **{field_name: value})


def _edge_config(config):
    return {
        point: RunSpec.of(
            edge_experiments.edge_point, n_clients=point[0], n_gateways=point[1],
            scale=SMOKE, seed=1, config=config,
        )
        for point in POINTS
    }


#: name -> builders of (a sweep, the same sweep with exactly one input changed)
DIFFERING = {
    "middleware": (
        lambda: edge_experiments.edge_sweep(CTX, POINTS, "narada"),
        lambda: edge_experiments.edge_sweep(CTX, POINTS, "plog"),
    ),
    "point": (
        lambda: edge_experiments.edge_sweep(CTX, POINTS),
        lambda: edge_experiments.edge_sweep(CTX, ((1000, 2), (1000, 4))),
    ),
    "seed": (
        lambda: narada_experiments.single_sweep(CTX),
        lambda: narada_experiments.single_sweep(_with(seed=2)),
    ),
    "config": (
        lambda: _edge_config(EdgeConfig()),
        lambda: _edge_config(EdgeConfig(replay_capacity=8192)),
    ),
    "routing": (
        lambda: federation_experiments.routed_sweep(CTX),
        lambda: federation_experiments.broadcast_sweep(CTX),
    ),
    "cohort_size": (
        lambda: fleet_experiments.fleet_sweep(CTX, "aggregate", (200,)),
        lambda: fleet_experiments.fleet_sweep(CTX, "aggregate", (200,), cohort_size=1024),
    ),
    "mode": (
        lambda: fleet_experiments.fleet_sweep(CTX, "aggregate", (200,)),
        lambda: fleet_experiments.fleet_sweep(CTX, "process", (200,)),
    ),
    "fault_plan": (
        lambda: chaos_experiments.threeway_legs(_with(fault_plan="loss_burst")),
        lambda: chaos_experiments.threeway_legs(_with(fault_plan="mixed")),
    ),
    "scenario_fault_plan": (
        lambda: scenario_experiments.edge_legs(_with(scenario="alarm_storm")),
        lambda: scenario_experiments.edge_legs(
            _with(scenario="alarm_storm", fault_plan="loss_burst")
        ),
    ),
    "scenario": (
        lambda: scenario_experiments.threeway_legs(_with(scenario="storm_front")),
        lambda: scenario_experiments.threeway_legs(_with(scenario="alarm_storm")),
    ),
    **{
        f"scale.{field.name}": (
            lambda: narada_experiments.dbn_sweep(CTX),
            lambda name=field.name: narada_experiments.dbn_sweep(
                _with(scale=_scale_changing(name))
            ),
        )
        for field in dataclasses.fields(Scale)
    },
}


@pytest.mark.parametrize("changed", sorted(DIFFERING))
def test_specs_differing_in_one_input_never_share_a_cache_entry(changed):
    make, make_other = DIFFERING[changed]
    sweep, rebuilt, other = (
        tuple(specs.items()) for specs in (make(), make(), make_other())
    )
    disk = DiskCache()
    assert disk.path_for(sweep) != disk.path_for(other)
    assert disk.path_for(sweep) == disk.path_for(rebuilt)

    cache = SweepCache()
    built = []
    build = lambda tag: lambda: built.append(tag) or tag
    # Under a session only the in-process tier is consulted.
    with session(Telemetry("keys")):
        assert cache.fetch(sweep, build("sweep")) == "sweep"
        assert cache.fetch(other, build("other")) == "other"
        assert cache.fetch(rebuilt, build("again")) == "sweep"  # equal specs: hit
    assert built == ["sweep", "other"]
    # ... and nothing a live session built reached the disk tier.
    assert not disk.path_for(sweep).exists()
    assert not disk.path_for(other).exists()
