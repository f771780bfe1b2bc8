"""The counter-based noise kernel: pinned values, a reference twin, no
mutation of its inputs.

The golden values were captured from the out-of-place
``(seed, gen_ids, seqs, field)`` implementation this kernel replaced; the
hypothesis test keeps that implementation as its reference, so the
key/field split can never move a draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.powergrid import noise

_SECOND = np.uint64(1) << np.uint64(32)

#: (seed, gen_ids, seqs): seed 0, gen 2**40, a scalar seq of 0 (as
#: ``warmup_times`` passes it) and float seqs (as ``np.ones`` gives them).
CASES = [
    (0, 0, 0),
    (1, 7, 1),
    (1, 2**40, 3),
    (12345, [0, 1, 2, 2**40], 0),
    (9, [5, 6], np.ones(2)),
    (2**31 - 1, [3], [2**20]),
]

DRAWS = {
    "u01_trip": lambda k: noise.u01(k, noise.FIELD_TRIP),
    "u01_second": lambda k: noise.u01(
        k, np.uint64(noise.FIELD_VOLT) + _SECOND
    ),
    "exponential_service": lambda k: noise.exponential(
        k, noise.FIELD_SERVICE, 5e-4
    ),
    "uniform_warmup": lambda k: noise.uniform(
        k, noise.FIELD_WARMUP, 10.0, 20.0
    ),
}

GOLDEN = {
    "exponential_service": [
        ["0x1.3dcd2eee34994p-15"],
        ["0x1.5561ddd504e3fp-15"],
        ["0x1.2b12a787c5f55p-11"],
        ["0x1.ce6b0895c235cp-12", "0x1.5e8c9f0f20d06p-10",
         "0x1.14894fa434a8fp-12", "0x1.83a193818fc35p-14"],
        ["0x1.0e55408cb8833p-10", "0x1.b9bcbe0501a5ap-11"],
        ["0x1.42ec168d50b8fp-12"],
    ],
    "u01_second": [
        ["0x1.b78662a0ebdd4p-3"],
        ["0x1.77ce786c7c30dp-1"],
        ["0x1.1c77bd16acfafp-1"],
        ["0x1.ee5be755ab0eep-1", "0x1.2bf9aaf6fd71fp-1",
         "0x1.ff96abe414898p-3", "0x1.54250bc0c6bc8p-1"],
        ["0x1.90f1ff3a0c26dp-1", "0x1.3ea1d15ecf7e8p-3"],
        ["0x1.8a8aba5edaf03p-1"],
    ],
    "u01_trip": [
        ["0x1.6f48e258e8ac5p-1"],
        ["0x1.053ff89c5dd90p-5"],
        ["0x1.8cbd64a7e2370p-1"],
        ["0x1.03b3ccd9b12aep-1", "0x1.f7f8cbf5bb098p-4",
         "0x1.6fcf871d0a5f6p-1", "0x1.02928f9a555bep-1"],
        ["0x1.d832a1dc119b8p-3", "0x1.ad22941470a88p-1"],
        ["0x1.091a4b724492ap-1"],
    ],
    "uniform_warmup": [
        ["0x1.2963635e845aep+4"],
        ["0x1.b339a1f0fbabdp+3"],
        ["0x1.2b4aa16cf8f52p+4"],
        ["0x1.14c64363ca5cfp+4", "0x1.c2a8dce30eea0p+3",
         "0x1.2d2aaf9df1322p+4", "0x1.dcaec078e66f7p+3"],
        ["0x1.790f18349228ap+3", "0x1.ab833c5e43333p+3"],
        ["0x1.48d2d233a49a9p+3"],
    ],
}


@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_golden_values(draw):
    got = [
        [float(v).hex() for v in np.ravel(DRAWS[draw](noise.key(*case)))]
        for case in CASES
    ]
    assert got == GOLDEN[draw]


# --- reference: the out-of-place three-splitmix hash -----------------------


def _ref_splitmix(x):
    x = (x ^ (x >> np.uint64(30))) * noise._MIX1
    x = (x ^ (x >> np.uint64(27))) * noise._MIX2
    return x ^ (x >> np.uint64(31))


def _ref_u01(seed, gen_ids, seqs, field):
    g = np.asarray(gen_ids, dtype=np.uint64)
    s = np.asarray(seqs, dtype=np.uint64)
    f = np.asarray(field, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = _ref_splitmix(g ^ (np.uint64(seed) * noise._GOLDEN))
        x = _ref_splitmix(x ^ (s * noise._GOLDEN))
        h = _ref_splitmix(x ^ f)
    return (h >> np.uint64(11)) * (1.0 / float(1 << 53))


def _ref_draws(seed, gen_ids, seqs, field):
    def u(f):
        return _ref_u01(seed, gen_ids, seqs, f)

    return {
        "u01": u(field),
        "exponential": -0.25 * np.log1p(-u(field)),
        "uniform": -3.0 + (5.5 - -3.0) * u(field),
    }


def _draws(k, field):
    return {
        "u01": noise.u01(k, field),
        "exponential": noise.exponential(k, field, 0.25),
        "uniform": noise.uniform(k, field, -3.0, 5.5),
    }


DTYPES = (np.int64, np.uint64, np.float64)


@st.composite
def _coordinates(draw):
    """(seed, gen_ids, seqs, field) with 0-d, length-1 or length-n arrays
    of int64, uint64 or float64 (whole numbers below 2**53)."""
    n = draw(st.one_of(st.none(), st.just(1), st.integers(2, 40)))

    def column(hi):
        dtype = draw(st.sampled_from(DTYPES))
        if n is None:
            return np.array(draw(st.integers(0, hi)), dtype=dtype)
        values = draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))
        return np.array(values, dtype=dtype)

    seed = draw(st.integers(0, 2**63))
    return seed, column(2**48), column(2**40), draw(st.integers(1, 9))


@settings(max_examples=200, deadline=None)
@given(_coordinates())
def test_key_and_fields_equal_the_out_of_place_reference(coords):
    seed, gen_ids, seqs, field = coords
    got = _draws(noise.key(seed, gen_ids, seqs), field)
    want = _ref_draws(seed, gen_ids, seqs, field)
    for name in want:
        g, w = np.asarray(got[name]), np.asarray(want[name])
        assert g.dtype == np.float64 and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


def test_field_calls_never_write_into_the_key():
    k = noise.key(5, np.arange(64), np.arange(64) + 1)
    before = k.copy()
    for draw in DRAWS.values():
        draw(k)
        np.testing.assert_array_equal(k, before)
    scalar = noise.key(5, 3, 0)
    before = scalar.copy()
    for draw in DRAWS.values():
        draw(scalar)
        np.testing.assert_array_equal(scalar, before)


def test_key_never_writes_into_the_callers_arrays():
    # uint64 inputs: np.asarray hands back the caller's own array.
    gen_ids = np.array([0, 1, 2**40, 77], dtype=np.uint64)
    seqs = np.array([1, 2, 3, 4], dtype=np.uint64)
    g0, s0 = gen_ids.copy(), seqs.copy()
    assert np.asarray(gen_ids, dtype=np.uint64) is gen_ids
    noise.key(11, gen_ids, seqs)
    np.testing.assert_array_equal(gen_ids, g0)
    np.testing.assert_array_equal(seqs, s0)


def test_one_key_serves_every_field_in_any_order():
    k = noise.key(3, np.arange(16), 2)
    forward = [DRAWS[d](k) for d in sorted(DRAWS)]
    backward = [DRAWS[d](k) for d in sorted(DRAWS, reverse=True)][::-1]
    for a, b in zip(forward, backward):
        assert a.tobytes() == b.tobytes()
