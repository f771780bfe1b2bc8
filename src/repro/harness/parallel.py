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
key (:class:`repro.harness.cache.SweepCache`).  When the parent has
an active telemetry session, each worker observes its point under a fresh
session and ships back an :func:`~repro.telemetry.merge.export_telemetry`
snapshot; the parent merges the snapshots **in point order**, keeping
``--trace`` / ``--metrics-out`` complete and reproducible under fan-out.
"""

from __future__ import annotations

import gc
import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.telemetry import context as tel_context

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


def _run_point(task: tuple[RunSpec, bool]) -> tuple[Any, Optional[dict]]:
    """Worker entry: run one spec.

    With ``fork`` start the child inherits the parent's telemetry stack;
    that session's spans and metrics could never travel back through it,
    so the stack is cleared and — when the parent had a session — replaced
    by a fresh one whose snapshot ships home in the return value.
    """
    spec, with_telemetry = task
    tel_context._stack.clear()
    if not with_telemetry:
        return spec.run(), None
    from repro.telemetry import Telemetry
    from repro.telemetry.merge import export_telemetry

    telemetry = Telemetry(label=f"worker:{spec.fn}")
    with tel_context.session(telemetry):
        result = spec.run()
    return result, export_telemetry(telemetry)


def map_points(specs: Sequence[RunSpec], jobs: Optional[int] = None) -> list[Any]:
    """Run every spec; results in input order.

    ``jobs <= 1`` (after :func:`resolve_jobs`) or a single point runs the
    exact serial path — direct in-process calls, no executor, the parent's
    telemetry session observing live.  Otherwise points fan out over a
    :class:`ProcessPoolExecutor` and telemetry exports merge back in point
    order.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        return [spec.run() for spec in specs]

    telemetry = tel_context.current()
    tasks = [(spec, telemetry is not None) for spec in specs]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        outcomes = list(pool.map(_run_point, tasks))

    results: list[Any] = []
    if telemetry is not None:
        from repro.telemetry.merge import merge_telemetry

        for result, export in outcomes:
            if export is not None:
                merge_telemetry(telemetry, export)
            results.append(result)
    else:
        results = [result for result, _ in outcomes]
    return results


def sweep(specs: Mapping[Any, RunSpec], jobs: Optional[int] = None) -> dict[Any, Any]:
    """The one sweep: ``{point_key: spec}`` in, ``{point_key: result}`` out,
    in the mapping's order, fanned out over ``jobs`` workers."""
    return dict(zip(specs, map_points(list(specs.values()), jobs)))
