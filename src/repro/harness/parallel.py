"""Run specs, and their sweep across a process pool.

Every sweep point (one ``narada_run`` / ``rgma_run`` / ``plog_run`` /
``edge_point`` / ... call) is an independent simulation: it builds its own
:class:`~repro.sim.kernel.Simulator` from the same ``(scale, seed)`` and
shares no mutable state with its siblings.  That makes the fan-out
trivially deterministic — a point computes the same record book whether it
runs in-process or in a worker — so ``--jobs N`` and ``--jobs 1`` produce
byte-identical results (asserted by ``tests/harness/test_parallel.py``).

A point is a frozen :class:`RunSpec` — the run function's import path plus
its keyword arguments, all plain data — so the pool only ever pickles
data, and ``repr(spec)`` names the run completely: it *is* the sweep-cache
key (:class:`repro.harness.cache.SweepCache`).  A point runs the same
way in process and in a worker and returns only its result, which is the
whole observation of the run: telemetry reads the results afterwards, in
point order (:meth:`repro.harness.registry.RunContext.sweep`), so
``--trace`` / ``--metrics-out`` are byte-identical under any ``--jobs``.
"""

from __future__ import annotations

import gc
import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

#: Environment variable consulted when a jobs count is not given explicitly.
JOBS_ENV = "REPRO_JOBS"


@dataclass(frozen=True)
class RunSpec:
    """One run as plain data: ``fn(**dict(args))``.

    ``fn`` is ``"package.module:function"`` and ``args`` the keyword
    arguments sorted by name, so two specs are equal — and share a cache
    entry — exactly when they describe the same call.  Fault plans and
    scenarios travel as library *names*; the run pipeline resolves them.
    """

    fn: str
    args: tuple[tuple[str, Any], ...]

    @classmethod
    def of(cls, fn: Callable[..., Any], **kwargs: Any) -> "RunSpec":
        return cls(
            f"{fn.__module__}:{fn.__qualname__}", tuple(sorted(kwargs.items()))
        )

    def run(self) -> Any:
        module_name, _, fn_name = self.fn.partition(":")
        fn = getattr(importlib.import_module(module_name), fn_name)
        # A finished run leaves its simulator behind as reference cycles
        # (kernel <-> processes <-> generators); free them before this
        # point allocates its own, so a sweep peaks at one point's memory,
        # not at however many finished points the cyclic collector has yet
        # to reach.
        gc.collect()
        return fn(**dict(self.args))


def resolve_jobs(jobs: Optional[int] = None, default: Optional[int] = None) -> int:
    """The effective worker count.

    Explicit ``jobs`` wins; else ``$REPRO_JOBS``; else ``default`` (the CLI
    passes the machine's CPU count, library callers leave it at 1 so plain
    ``run()`` calls never fork unless asked to).
    """
    if jobs is not None:
        n = int(jobs)
    else:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            n = int(env)
        elif default is not None:
            n = int(default)
        else:
            n = 1
    if n < 1:
        raise ValueError(f"jobs must be >= 1, got {n}")
    return n


def map_points(specs: Sequence[RunSpec], jobs: Optional[int] = None) -> list[Any]:
    """Run every spec; results in input order.

    ``jobs <= 1`` (after :func:`resolve_jobs`) or a single point runs the
    points in process, one after another; otherwise they fan out over a
    :class:`ProcessPoolExecutor`.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        return [spec.run() for spec in specs]
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        return list(pool.map(RunSpec.run, specs))


def sweep(specs: Mapping[Any, RunSpec], jobs: Optional[int] = None) -> dict[Any, Any]:
    """The one sweep: ``{point_key: spec}`` in, ``{point_key: result}`` out,
    in the mapping's order, fanned out over ``jobs`` workers."""
    return dict(zip(specs, map_points(list(specs.values()), jobs)))
