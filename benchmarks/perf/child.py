"""One workload in one fresh interpreter.

``run.py`` starts this file once per measurement.  It imports ``repro``,
makes one untimed warm-up call, and then, by ``--mode``:

``setup``   stops there and reports how long the set-up took;
``timed``   makes timed calls until ``--seconds`` are used (or exactly
            ``--repeats`` calls) with ``gc.collect()`` between them;
``traced``  makes one timed call, then the same call under ``cProfile``,
            and reports the profile bucketed by layer and the spans.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional


class Spans:
    """Coarse spans only — workload > setup | timed | traced > point >
    call | collect — kept in memory and handed to the parent at the end."""

    def __init__(self, workload_id: str) -> None:
        self.workload_id = workload_id
        self.origin = time.perf_counter()
        self.rows: list[dict[str, Any]] = []

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[int]:
        row = {
            "id": len(self.rows), "parent": parent, "name": name,
            "workload": self.workload_id,
            "start": time.perf_counter() - self.origin, "end": None,
        }
        self.rows.append(row)
        try:
            yield row["id"]
        finally:
            row["end"] = time.perf_counter() - self.origin


def cpu_now() -> float:
    """User + system CPU seconds of this process and the children it has
    waited for (``harness_cli`` does its work in subprocesses)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


class Child:
    """The imports are part of what is measured, so they happen here, after
    the clock has started, and not at the top of the file."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.spans = Spans(f"{args.workload}#{args.seed}")
        t0 = time.perf_counter()
        import repro.harness.runner  # noqa: F401
        self.import_s = time.perf_counter() - t0
        import numpy

        import layers
        import workloads

        self.numpy_version = numpy.__version__
        self.layers, self.workloads = layers, workloads
        self.workload = workloads.WORKLOADS[args.workload]
        self.sims = workloads.track_simulators()

    def run(self) -> dict[str, Any]:
        args, spans = self.args, self.spans
        with spans.span(args.workload) as root:
            with spans.span("setup", root) as setup:
                self.call("warmup", setup)
            result: dict[str, Any] = {
                "setup_s": time.monotonic() - args.spawned_at,
                "import_s": self.import_s,
                "numpy": self.numpy_version,
            }
            if args.mode == "setup":
                return result
            repeats = 1 if args.mode == "traced" else args.repeats
            calls: list[dict[str, Any]] = []
            spent = 0.0
            while True:
                gc.collect()
                with spans.span("timed", root) as timed:
                    calls.append(self.call(args.size, timed))
                spent += calls[-1]["wall_s"]
                if repeats:
                    done = len(calls) >= repeats
                else:
                    # Another call only if it is expected to end nearer
                    # the target than stopping here does.
                    done = spent + 0.5 * spent / len(calls) >= args.seconds
                if done:
                    break
            result["calls"] = calls
            if args.mode == "traced":
                gc.collect()
                with spans.span("traced", root) as traced:
                    result["traced"] = self.call(
                        args.size, traced, cProfile.Profile())
        result["peak_rss_mb"] = peak_rss_mb()
        if args.mode == "traced":
            result["spans"] = spans.rows
        return result

    def call(self, size: str, parent: int,
             profiler: Optional[cProfile.Profile] = None) -> dict[str, Any]:
        """One call of the workload: every point run, timed and tallied."""
        spans, sims = self.spans, self.sims
        scratch = tempfile.mkdtemp(dir=self.args.scratch)
        ctx = self.workloads.Ctx(
            scratch, os.path.join(scratch, "cold.prof") if profiler else None
        )
        tally = self.workloads.Tally()
        wall = cpu = 0.0
        events = 0
        try:
            for point in self.workload(size, self.args.seed, ctx):
                with spans.span(f"point:{point.label}", parent) as pid:
                    with spans.span("call", pid):
                        c0, t0 = cpu_now(), time.perf_counter()
                        if profiler:
                            profiler.enable()
                        try:
                            outcome = point.call()
                        finally:
                            if profiler:
                                profiler.disable()
                        wall += time.perf_counter() - t0
                        cpu += cpu_now() - c0
                    with spans.span("collect", pid):
                        events += sum(sim.events_scheduled for sim in sims)
                        sims.clear()
                        tally.add(point.label, outcome)
                        del outcome
            out = {
                "wall_s": wall, "cpu_s": cpu, "events": events,
                "received": tally.received, "attempted": tally.attempted,
                "failed": tally.failed, "problems": tally.problems,
                "summary": tally.summary(),
            }
            if profiler:
                # A point that worked in a subprocess left its own dump.
                dumped = os.path.exists(ctx.profile_to)
                out["profile"] = self.layers.bucket(
                    ctx.profile_to if dumped else profiler)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", required=True,
                        choices=["setup", "timed", "traced"])
    parser.add_argument("--size", required=True, choices=["bench", "smoke"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--repeats", type=int, default=0,
                        help="exactly this many timed calls, whatever "
                        "--seconds says")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() at spawn")
    args = parser.parse_args(argv)
    print(json.dumps(Child(args).run()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
