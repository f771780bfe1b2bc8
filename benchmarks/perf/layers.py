"""Bucket a cProfile result by the ``src/repro`` package each function lives in.

The profiler's caller->callee edges carry, per edge, the callee's own time
while called from that caller.  A function defined under ``src/repro/<L>/``
belongs to layer ``L``.  A builtin, numpy or stdlib function belongs to no
layer, so its own time goes to the layer of the code that called it; when
its caller is itself outside ``repro`` the time is split the way that
caller's inclusive time splits over the layers that reach it.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Any

import repro

#: The layers the benchmark reports, in the order the tables print them.
LAYERS = (
    "sim", "cluster", "transport", "jms", "narada", "rgma", "plog",
    "federation", "edge", "powergrid", "faults", "scenario", "telemetry",
    "core", "harness",
)
#: ``repro`` code outside the reported layers (``gma``, ``webservices``,
#: the package ``__init__``).
OTHER = "other"
#: Code outside ``src/repro``: builtins, numpy, the standard library and
#: the benchmark's own files.
EXTERNAL = "ext"

_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> str:
    """The layer that owns ``filename`` (a profiler function's file)."""
    if not filename.startswith(_PACKAGE_ROOT):
        return EXTERNAL
    head, sep, _rest = filename[len(_PACKAGE_ROOT):].partition(os.sep)
    return head if sep and head in LAYERS else OTHER


def _owners(stats: dict, home: dict) -> dict:
    """For every external function, the share of each layer among the code
    that reaches it, weighted by inclusive time per caller edge."""
    owners: dict[Any, dict[str, float]] = {
        func: {layer: 1.0} for func, layer in home.items() if layer != EXTERNAL
    }
    # Chains of external functions (numpy calling numpy) resolve one level
    # per pass; six passes cover every chain the workloads produce and the
    # rest of the time is reported as unattributed.
    for _ in range(6):
        for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
            if home[func] != EXTERNAL:
                continue
            acc: dict[str, float] = defaultdict(float)
            for caller, (_enc, _ecc, _ett, edge_ct) in callers.items():
                for layer, share in owners.get(caller, {}).items():
                    acc[layer] += (edge_ct + 1e-9) * share
            total = sum(acc.values())
            if total > 0.0:
                owners[func] = {layer: v / total for layer, v in acc.items()}
    return owners


def bucket(profile: Any) -> dict:
    """Per-layer self time, share and inbound calls, plus the layer x layer
    caller->callee matrix, from a ``cProfile.Profile`` or a dump file."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    home = {func: layer_of(func[0]) for func in stats}
    owners = _owners(stats, home)

    self_s: dict[str, float] = defaultdict(float)
    calls_in: dict[str, int] = defaultdict(int)
    matrix: dict[str, dict[str, dict[str, float]]] = {}
    unattributed = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        callee = home[func]
        if callee != EXTERNAL:
            self_s[callee] += tt
        elif not callers:
            unattributed += tt
        for caller, (edge_nc, _ecc, edge_tt, _ect) in callers.items():
            source = home[caller]
            cell = matrix.setdefault(source, {}).setdefault(
                callee, {"calls": 0, "self_s": 0.0}
            )
            cell["calls"] += edge_nc
            cell["self_s"] += edge_tt
            if callee != EXTERNAL:
                if source != callee:
                    calls_in[callee] += edge_nc
                continue
            shares = owners.get(caller)
            if not shares:
                unattributed += edge_tt
                continue
            for layer, share in shares.items():
                self_s[layer] += edge_tt * share

    total = sum(self_s.values())
    names = LAYERS + (OTHER,)
    return {
        "layers": {
            name: {
                "self_s": self_s[name],
                "share": self_s[name] / total if total else 0.0,
                "calls": calls_in[name],
            }
            for name in names
        },
        "unattributed_s": unattributed,
        "unattributed_share": unattributed / (total + unattributed)
        if total + unattributed
        else 0.0,
        "matrix": matrix,
    }
