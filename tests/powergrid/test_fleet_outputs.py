"""Byte-level fleet outputs, the draws the engine makes, and the sizes it
refuses.

The agreement tests in ``test_fleet_engine.py`` compare aggregate mode
with process mode, so a change that moves both equally passes them; the
goldens below pin each outcome itself (every field but ``wall_s``).
"""

import dataclasses

import pytest

from repro.harness.scale import Scale
from repro.powergrid import RateSchedule
from repro.powergrid.fleet_engine import FLEET_MIDDLEWARES, run_fleet_point
from tests.powergrid.test_fleet_engine import COHORT, N, TINY

SCHEDULE = (
    RateSchedule()
    .window(3.0, 9.0, 0, N, 3.0)
    .window(5.0, 7.0, 50, 150, 0.0)
    .window(9.0, 13.0, 0, 100, 0.5)
)

VARIANTS = {
    "plain": {},
    "schedule+loss_burst": {"schedule": SCHEDULE, "fault_plan": "loss_burst"},
    "zoom": {"zoom": (40, 90)},
}

#: FleetOutcome fields in declaration order, ``wall_s`` left out.
GOLDEN = {
    ("plain", "narada"): (
        "narada", "aggregate", 300, 128, 600, 600, 0, 0,
        1.8494323003271398, 2.952481416693771, 3.550831726189201,
        1.993231222265847, 4.908286770262317, 11.836692696882922, 6, 6,
    ),
    ("plain", "rgma"): (
        "rgma", "aggregate", 300, 128, 600, 600, 0, 0,
        955.1009680523423, 1131.5888266710033, 1227.3248761902719,
        978.1087697292021, 1444.5176832419709, 11.836692696882922, 6, 6,
    ),
    ("plain", "plog"): (
        "plog", "aggregate", 300, 128, 600, 600, 0, 0,
        4.830921520785136, 7.47823940006505, 8.914280142854082,
        5.176038783438032, 12.17217224862956, 11.836692696882922, 6, 6,
    ),
    ("schedule+loss_burst", "narada"): (
        "narada", "aggregate", 300, 128, 800, 721, 79, 0,
        1.8539367029408138, 3.0613424685974855, 3.97593412624446,
        2.013288842176911, 4.908286770262317, 1.8366926968829222, 3, 3,
    ),
    ("schedule+loss_burst", "rgma"): (
        "rgma", "aggregate", 300, 128, 800, 800, 0, 0,
        965.0930814844352, 1960.5805134586774, 2077.9931690323183,
        1080.4382783600604, 2392.773721817182, 1.8366926968829222, 3, 3,
    ),
    ("schedule+loss_burst", "plog"): (
        "plog", "aggregate", 300, 128, 800, 800, 0, 47,
        4.980803222266529, 54.91311470188016, 56.67430453548478,
        10.167231353525906, 61.396012827257735, 1.8366926968829222, 3, 3,
    ),
    ("zoom", "narada"): (
        "narada", "aggregate+zoom", 300, 128, 600, 600, 0, 0,
        1.8494323003271398, 2.952481416693771, 3.550831726189201,
        1.993231222265847, 4.908286770262317, 21.38562825071346, 208, 8,
    ),
    ("zoom", "rgma"): (
        "rgma", "aggregate+zoom", 300, 128, 600, 600, 0, 0,
        955.1009680523423, 1131.5888266710033, 1227.3248761902719,
        978.1087697292021, 1444.5176832419709, 21.38562825071346, 208, 8,
    ),
    ("zoom", "plog"): (
        "plog", "aggregate+zoom", 300, 128, 600, 600, 0, 0,
        4.830921520785136, 7.47823940006505, 8.914280142854082,
        5.176038783438032, 12.17217224862956, 21.38562825071346, 208, 8,
    ),
}


def _fields(outcome):
    return tuple(
        getattr(outcome, f.name)
        for f in dataclasses.fields(outcome)
        if f.name != "wall_s"
    )


@pytest.mark.parametrize("middleware", FLEET_MIDDLEWARES)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_golden_outcome(variant, middleware):
    out = run_fleet_point(
        middleware, N, TINY, mode="aggregate", cohort_size=COHORT,
        **VARIANTS[variant],
    )
    assert repr(_fields(out)) == repr(GOLDEN[variant, middleware])


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_publishers", 0),
        ("n_publishers", -5),
        ("cohort_size", 0),
        ("cohort_size", -8),
        ("payload_multiplier", 0),
        ("payload_multiplier", -1),
    ],
)
def test_sizes_below_one_are_refused(name, value):
    kwargs = {"n_publishers": 50, "cohort_size": 16, "payload_multiplier": 1}
    kwargs[name] = value
    with pytest.raises(ValueError, match=name):
        run_fleet_point("narada", scale=Scale.smoke(), **kwargs)
