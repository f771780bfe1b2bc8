"""The seven workloads: what each calls, at which size, and what is read
from its results.

A workload is a function ``(size, seed, ctx) -> [Point, ...]``.  ``size`` is
``"bench"`` for the timed calls, ``"smoke"`` for ``--quick`` and ``"warmup"``
for the untimed warm-up call (the smoke size, except where noted).  A point's
``call`` is one call into a public run function of ``repro``; everything the
benchmark reports about the run is read afterwards from the object that call
returns (:class:`Tally`).

Sizes are chosen so that one timed call takes 1-2.5 s on the reference
host (the CLI pair ~10 s): a 10 s run then holds four to ten calls and
reports their median, which a burst of host noise on a few calls does not
move.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.core import ExperimentResult, RecordBook, decompose, rtt_stats
from repro.harness.chaos_experiments import chaos_durability
from repro.harness.edge_experiments import EdgeRunResult, edge_point
from repro.harness.narada_experiments import NaradaRunResult, narada_run
from repro.harness.plog_experiments import PlogRunResult, plog_run
from repro.harness.rgma_experiments import RgmaRunResult, rgma_run
from repro.harness.scale import Scale
from repro.powergrid.fleet_engine import FleetOutcome, run_fleet_point
from repro.sim import Simulator

#: Experiments the ``harness_cli`` workload regenerates: ``fig12`` is a
#: sweep the disk cache serves on the warm leg, ``fig15_threeway`` runs
#: under a telemetry session (which bypasses the cache) on both legs.
CLI_EXPERIMENTS = ("fig12", "fig15_threeway")
CLI_TIMEOUT_S = 120


@dataclass
class Ctx:
    """Per-call context: a private directory and, when the call is traced,
    the file a point that works in a subprocess dumps its own profile to
    (the caller's profiler cannot see into it)."""

    scratch: str
    profile_to: Optional[str] = None


@dataclass
class Point:
    label: str
    call: Callable[[], Any]


@dataclass
class CliRun:
    """One ``python -m repro.harness.runner`` invocation."""

    leg: str
    returncode: int
    stdout: bytes
    wall_s: float
    cache_dir: str


def _scale(size: str) -> Scale:
    return Scale.bench() if size == "bench" else Scale.smoke()


def narada_fanin(size: str, seed: int, ctx: Ctx) -> list[Point]:
    """Publishers -> one broker -> per-node selector subscribers over TCP:
    the write-heavy fan-in that loads ``sim``, ``jms``, ``cluster``,
    ``narada``."""
    n = 400 if size == "bench" else 100
    return [Point("narada_run", lambda: narada_run(
        n, transport_kind="tcp", scale=_scale(size), seed=seed))]


def rgma_pipeline(size: str, seed: int, ctx: Ctx) -> list[Point]:
    """Single-server then distributed R-GMA: SQL parse, tuple store,
    servlets, polling consumers and HTTP; ``jms``/``narada`` stay idle."""
    single, dist = (100, 120) if size == "bench" else (40, 40)
    scale = _scale(size)
    return [
        Point("rgma_run", lambda: rgma_run(single, scale=scale, seed=seed)),
        Point("rgma_run.distributed", lambda: rgma_run(
            dist, distributed=True, scale=scale, seed=seed)),
    ]


def plog_log(size: str, seed: int, ctx: Ctx) -> list[Point]:
    """Batching producers and fetch-loop consumers on the partitioned log:
    the transport is used per batch, not per message."""
    n = 250 if size == "bench" else 60
    return [Point("plog_run", lambda: plog_run(
        n, scale=_scale(size), seed=seed))]


def edge_fanout(size: str, seed: int, ctx: Ctx) -> list[Point]:
    """A few publishers fanned out to 10 000 long-poll clients: the read
    side of ``transport``/``jms``/``narada`` plus the ``edge`` gateway.
    Host time follows the gateway count, not the client count (clients are
    weighted cohorts), so one gateway keeps the call near 2 s."""
    clients = 10_000 if size == "bench" else 100
    return [Point("edge_point", lambda: edge_point(
        clients, 1, "narada", scale=_scale(size), seed=seed))]


def fleet_cohort(size: str, seed: int, ctx: Ctx) -> list[Point]:
    """The vectorized cohort engine for each middleware's service model:
    numpy cohort ops in ``powergrid`` and almost no kernel events."""
    n = 150_000 if size == "bench" else 10_000
    scale = _scale(size)
    return [
        Point(f"run_fleet_point.{mw}", lambda mw=mw: run_fleet_point(
            mw, n, scale, seed=seed, mode="aggregate"))
        for mw in ("narada", "rgma", "plog")
    ]


def chaos_gauntlet(size: str, seed: int, ctx: Ctx) -> list[Point]:
    """Broker crash + consumer crash + partition against Narada durable,
    R-GMA and plog RF=2: the only workload where ``faults`` runs and the
    retry, replay, election and dedup counters are non-zero.  Its cost
    follows the simulated duration, so it runs at ``Scale.smoke()``."""
    n = 200 if size == "bench" else 20
    return [Point("chaos_durability", lambda: chaos_durability(
        scale=Scale.smoke(), seed=seed, connections=n))]


def harness_cli(size: str, seed: int, ctx: Ctx) -> list[Point]:
    """What a user types: the experiment runner as a subprocess against an
    empty disk cache (cold), then the identical command again (warm)."""
    if size == "warmup":
        # A full pair would cost as much as the timed call; warm up with
        # the cheapest real invocation instead (imports, .pyc, registry).
        return [Point("runner.list", lambda: _cli(["--list"], "list", ctx))]
    argv = [*CLI_EXPERIMENTS, "--scale", "smoke", "--jobs", "1",
            "--seed", str(seed)]
    return [
        Point("runner.cold", lambda: _cli(argv, "cold", ctx, ctx.profile_to)),
        Point("runner.warm", lambda: _cli(argv, "warm", ctx)),
    ]


def _cli(argv: list[str], leg: str, ctx: Ctx,
         profile_to: Optional[str] = None) -> CliRun:
    cache_dir = os.path.join(ctx.scratch, "cache")
    command = [sys.executable]
    if profile_to:
        command += ["-m", "cProfile", "-o", profile_to]
    command += ["-m", "repro.harness.runner", *argv]
    env = dict(os.environ, REPRO_CACHE_DIR=cache_dir)
    t0 = time.perf_counter()
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=CLI_TIMEOUT_S, check=False,
    )
    return CliRun(leg, done.returncode, done.stdout,
                  time.perf_counter() - t0, cache_dir)


WORKLOADS: dict[str, Callable[[str, int, Ctx], list[Point]]] = {
    "narada_fanin": narada_fanin,
    "rgma_pipeline": rgma_pipeline,
    "plog_log": plog_log,
    "edge_fanout": edge_fanout,
    "fleet_cohort": fleet_cohort,
    "chaos_gauntlet": chaos_gauntlet,
    "harness_cli": harness_cli,
}


def track_simulators() -> list[Simulator]:
    """Register every ``Simulator`` built from now on, so that its public
    ``events_scheduled`` can be read once the call that built it returns."""
    built: list[Simulator] = []
    init = Simulator.__init__

    def tracked(self: Simulator, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        built.append(self)

    Simulator.__init__ = tracked  # type: ignore[method-assign]
    return built


_PLOG_COUNTS = (
    "duplicate_batches", "redeliveries", "producer_retries", "elections",
    "fenced_commits", "records_replicated", "acked_lost",
)
_EDGE_COUNTS = (
    "polls", "long_polls_parked", "polls_shed", "pooled_connections",
    "client_redeliveries",
)


class Tally:
    """What one call's results say: work and waste counts per layer, the
    simulated-time model numbers, a digest of the outputs, and every
    output check that did not hold."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(int)
        self.problems: list[str] = []
        self.sent = self.received = self.duplicates = 0
        self.invocations = self.bad_invocations = 0
        self._book = RecordBook()
        self._rtts: list[np.ndarray] = []
        self._idle: list[float] = []
        self._fleet: list[FleetOutcome] = []
        self._digest = hashlib.sha256()
        self._cold_stdout: Optional[bytes] = None

    def add(self, label: str, result: Any) -> None:
        if isinstance(result, ExperimentResult):
            rows = result.table[1] if result.table else []
            if not rows:
                self.problems.append(f"{label}: no verdict table")
            for row in rows:
                if row[-1] != "PASS":
                    self.problems.append(f"{label}: leg {row[0]!r} {row[-1]}")
            for leg, run in result.meta["runs"].items():
                self._add_run(f"{label}[{leg}]", run)
        elif isinstance(result, FleetOutcome):
            self._add_fleet(label, result)
        elif isinstance(result, CliRun):
            self._add_cli(label, result)
        else:
            self._add_run(label, result)

    def _check(self, label: str, sent: int, received: int, dups: int) -> None:
        self.sent += sent
        self.received += received
        self.duplicates += dups
        if sent != received or dups:
            self.problems.append(
                f"{label}: sent {sent}, received {received}, duplicates {dups}"
            )
        self._digest.update(f"{label}:{sent},{received};".encode())

    def _add_run(self, label: str, run: Any) -> None:
        dups = (run.client_duplicates if isinstance(run, EdgeRunResult)
                else run.duplicates)
        self._check(label, run.sent, run.received, dups)
        rtts = np.ascontiguousarray(run.rtts, dtype=float)
        self._digest.update(rtts.tobytes())
        self._rtts.append(rtts)
        self._book.merge(run.book.after(run.measure_since))
        counts = self.counts
        counts["powergrid.published"] += len(run.book)
        counts["faults.injected"] += len(getattr(run, "fault_log", ()))
        for vm in getattr(run, "vmstat", {}).values():
            self._idle.append(vm.mean_cpu_idle_percent)
            counts["cluster.broker_mem_mb"] += vm.memory_consumption_mb
        if isinstance(run, NaradaRunResult):
            for broker in run.broker_stats.values():
                for key in ("published", "delivered", "replayed"):
                    counts[f"narada.{key}"] += broker[key]
                counts["narada.threads_peak"] = max(
                    counts["narada.threads_peak"], broker["threads_peak"])
            counts["narada.redeliveries"] += run.redeliveries
            counts["narada.receiver_reconnects"] += run.receiver_reconnects
        elif isinstance(run, RgmaRunResult):
            counts["rgma.tuples_delivered"] += run.received
        elif isinstance(run, PlogRunResult):
            for key in _PLOG_COUNTS:
                counts[f"plog.{key}"] += getattr(run, key)
        elif isinstance(run, EdgeRunResult):
            for key in _EDGE_COUNTS:
                counts[f"edge.{key}"] += getattr(run, key)

    def _add_fleet(self, label: str, out: FleetOutcome) -> None:
        self._check(label, out.published, out.delivered, out.duplicates)
        if out.lost:
            self.problems.append(f"{label}: lost {out.lost}")
        self._digest.update(repr(
            (out.p50_ms, out.p95_ms, out.p99_ms, out.mean_ms, out.max_ms)
        ).encode())
        self._fleet.append(out)
        self.counts["powergrid.published"] += out.published
        self.counts["powergrid.fleet_ticks"] += out.ticks

    def _add_cli(self, label: str, run: CliRun) -> None:
        self.invocations += 1
        self._digest.update(run.stdout)
        faults = []
        if run.returncode != 0:
            faults.append(f"exit {run.returncode}")
        if run.leg == "cold":
            self._cold_stdout = run.stdout
            self.counts["harness.cold_s"] = run.wall_s
            # The cold leg's sweeps are in the cache it just filled: the
            # only place a subprocess's message counts can be read from.
            # Entry names hash the source tree, so order by content.
            sweeps = []
            names = os.listdir(run.cache_dir) if not faults else []
            for name in names:
                path = os.path.join(run.cache_dir, name)
                self.counts["harness.cache_bytes"] += os.path.getsize(path)
                with open(path, "rb") as fh:
                    sweeps.append(pickle.load(fh))
            for sweep in sorted(sweeps, key=lambda s: repr(tuple(s))):
                for key, point in sweep.items():
                    self._add_run(f"{label}[{key}]", point)
        elif run.leg == "warm":
            self.counts["harness.warm_s"] = run.wall_s
            if run.stdout != self._cold_stdout:
                faults.append("output differs from the cold leg")
        if faults:
            self.bad_invocations += 1
            self.problems.append(f"{label}: {', '.join(faults)}")

    @property
    def attempted(self) -> int:
        return self.sent + self.invocations

    @property
    def failed(self) -> int:
        lost = self.sent - self.received + self.duplicates
        return lost + self.bad_invocations

    def summary(self) -> dict[str, Any]:
        """Counts, model numbers (simulated time) and the output digest."""
        out: dict[str, Any] = dict(self.counts)
        if self._idle:
            out["cluster.broker_cpu_idle_pct"] = sum(self._idle) / len(self._idle)
        model = {"sent": self.sent, "received": self.received}
        if self._fleet:
            # No per-message arrays: the mean over the three service models
            # of each model's own statistic.
            for key in ("mean", "p50", "p99"):
                model[f"rtt_{key}_ms"] = float(np.mean(
                    [getattr(o, f"{key}_ms") for o in self._fleet]))
        elif self._rtts:
            rtts = np.concatenate(self._rtts)
            stats = rtt_stats(self._book)
            phases = decompose(self._book)
            p50, p99 = (np.percentile(rtts, [50, 99]) * 1e3
                        if rtts.size else (0.0, 0.0))
            model.update(
                rtt_mean_ms=stats.mean_ms, rtt_p50_ms=float(p50),
                rtt_p99_ms=float(p99), prt_ms=phases.prt_ms,
                pt_ms=phases.pt_ms, srt_ms=phases.srt_ms,
            )
        for key, value in model.items():
            out[f"model.{key}"] = 0.0 if value != value else value  # NaN -> 0
        out["model.failed_share"] = self.failed / max(self.attempted, 1)
        out["model.digest"] = self._digest.hexdigest()
        return out
