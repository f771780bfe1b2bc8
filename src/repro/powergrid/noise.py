"""Counter-based deterministic noise for vectorized cohorts.

Sequential RNG streams (``numpy.random.Generator``) tie a draw's value to
*when* it is made — vectorizing a cohort would change every downstream
value.  The fleet engine instead keys every draw by **what it is for**:
``(seed, gen_id, seq, field)`` hashes through a splitmix64-style mixer to a
uniform, so a draw's value depends only on its coordinates.  The same
functions evaluate one generator (length-1 arrays, the zoomed per-process
path) or a whole cohort (the aggregate path) through identical numpy ops —
which is what makes aggregate and zoomed runs agree bit-for-bit, the
exactness contract ``tests/powergrid/test_fleet_engine.py`` asserts.

A draw is split in two.  :func:`key` mixes ``(seed, gen_id, seq)`` — two of
the three splitmix rounds — once per message batch; the field functions
(:func:`u01`, :func:`exponential`, :func:`uniform`) take that key and run
the last round with their ``field`` on a scratch buffer they own, in place.  They never write into the key or into any array the
caller passed, so one key serves every field of a batch, in any order.
Because no draw depends on another, a draw nobody reads is simply not
made — no other draw moves.

Exponentials come from inversion (``log1p(-u)`` keeps ``u = 0`` finite).
:func:`key` accepts scalars or arrays (``seqs`` may be a float array of
whole numbers) and returns a ``uint64`` array of the broadcast shape; the
field functions return ``float64`` arrays of the key's shape.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Field tags namespacing the independent draws one message needs.  No
#: path draws the reading fields (init, power, voltage, frequency); their
#: tags stay reserved so a new field cannot reuse one.
FIELD_INIT = 1      # initial power level (one per generator)
FIELD_WARMUP = 2    # warm-up sleep (one per generator)
FIELD_POWER = 3     # OU power innovation (per message)
FIELD_TRIP = 4      # breaker trip / reclose draw (per message)
FIELD_VOLT = 5      # voltage noise (per message)
FIELD_FREQ = 6      # frequency noise (per message)
FIELD_SERVICE = 7   # service-latency jitter (per message)
FIELD_LOSS = 8      # fault-window loss draw (per message)
FIELD_DUP = 9       # duplicate-on-retransmit draw (per message)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / float(1 << 53)


def _splitmix(x: np.ndarray, tmp: np.ndarray) -> None:
    """The splitmix64 finalizer, in place on ``x`` (``tmp``: same-shape
    scratch).  uint64 array arithmetic wraps silently."""
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= _MIX1
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= _MIX2
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp


def key(seed: int, gen_ids: Any, seqs: Any) -> np.ndarray:
    """The ``(seed, gen_id, seq)`` prefix every field of a message shares."""
    g = np.asarray(gen_ids, dtype=np.uint64)
    s = np.asarray(seqs, dtype=np.uint64)
    shape = np.broadcast_shapes(g.shape, s.shape)
    x = np.empty(shape, dtype=np.uint64)
    tmp = np.empty(shape, dtype=np.uint64)
    with np.errstate(over="ignore"):
        np.bitwise_xor(g, np.uint64(seed) * _GOLDEN, out=x)
    _splitmix(x, tmp)
    np.multiply(s, _GOLDEN, out=tmp)
    x ^= tmp
    _splitmix(x, tmp)
    return x


def u01(k: np.ndarray, field: Any) -> np.ndarray:
    """Uniform in ``[0, 1)``, a pure function of ``(seed, gen, seq, field)``."""
    x = np.empty(k.shape, dtype=np.uint64)
    out = np.empty(k.shape, dtype=np.uint64)
    np.bitwise_xor(k, np.uint64(field), out=x)
    _splitmix(x, out)
    x >>= np.uint64(11)
    # The scratch word buffer becomes the result: every value < 2**53
    # converts to float64 exactly.
    return np.multiply(x, _INV_2_53, out=out.view(np.float64))


def exponential(k: np.ndarray, field: int, mean: float) -> np.ndarray:
    """Exponential of the given mean, by inversion."""
    x = u01(k, field)
    np.negative(x, out=x)
    np.log1p(x, out=x)
    x *= -mean
    return x


def uniform(k: np.ndarray, field: int, lo: float, hi: float) -> np.ndarray:
    """Uniform in ``[lo, hi)``."""
    x = u01(k, field)
    x *= hi - lo
    x += lo
    return x
