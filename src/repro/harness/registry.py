"""Experiment entries and the context they run under.

An :class:`Experiment` is declared beside its builder: id, one-line
description, the sweeps it reads, the builder that turns those sweeps
into an :class:`~repro.core.ExperimentResult`, and which run-context
values (scale, seed, fault plan, scenario) the builder takes.
``repro.harness.runner`` collects every module's ``EXPERIMENTS`` into the
registry behind the CLI; calling an entry directly runs it serially and
uncached, which is what tests and benchmarks that time real runs want.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.core import ExperimentResult
from repro.harness.cache import SweepCache
from repro.harness.parallel import RunSpec, sweep
from repro.harness.scale import Scale

#: ``(ctx, **options) -> {point_key: RunSpec}`` — one sweep an entry reads.
SpecBuilder = Callable[..., Mapping[Any, RunSpec]]


@dataclass(frozen=True)
class RunContext:
    """Everything one ``run()`` call fixes for the specs built under it."""

    scale: Scale
    seed: int = 1
    #: Fault-plan / scenario library *names* (the pipeline resolves them).
    fault_plan: Optional[str] = None
    scenario: Optional[str] = None
    #: Worker processes sweeps fan out over.
    jobs: int = 1
    #: ``None`` runs every sweep afresh (``--no-cache``, direct calls).
    cache: Optional[SweepCache] = None

    def spec(self, fn: Callable[..., Any], **options: Any) -> RunSpec:
        """One run of ``fn`` under this context: its scale and seed, plus
        the fault plan / scenario when the context names one (so every run
        of an experiment that accepts the flag is armed with it)."""
        armed = {"fault_plan": self.fault_plan, "scenario": self.scenario}
        options.update((k, v) for k, v in armed.items() if v is not None)
        return RunSpec.of(fn, scale=self.scale, seed=self.seed, **options)

    def sweep(self, specs: Mapping[Any, RunSpec]) -> dict[Any, Any]:
        """``{point_key: result}`` for ``specs`` — from the cache when this
        context has one; the specs themselves are the key."""
        if self.cache is None:
            return sweep(specs, self.jobs)
        return self.cache.fetch(
            tuple(specs.items()), lambda: sweep(specs, self.jobs)
        )


@dataclass(frozen=True)
class Experiment:
    """One registered experiment."""

    id: str
    description: str
    #: ``build(*sweeps, **params) -> ExperimentResult``.
    build: Callable[..., ExperimentResult]
    #: The sweeps ``build`` reads, handed to it positionally in this order.
    reads: tuple[SpecBuilder, ...] = ()
    #: :class:`RunContext` attributes ``build`` takes by keyword.  Naming
    #: ``fault_plan`` / ``scenario`` here is what makes the experiment
    #: accept ``--fault-plan`` / ``--scenario``.
    params: tuple[str, ...] = ()
    #: Defaults when the flag is accepted but not given.
    fault_plan: Optional[str] = None
    scenario: Optional[str] = None

    def run(
        self,
        scale: Optional[Scale] = None,
        seed: int = 1,
        fault_plan: Optional[str] = None,
        scenario: Optional[str] = None,
        jobs: int = 1,
        cache: Optional[SweepCache] = None,
        **options: Any,
    ) -> ExperimentResult:
        """Sweep what the entry reads and build the result.  The entry's
        default plan / scenario apply when none is given; ``options`` (e.g.
        ``connections=``) go to the spec builders."""
        ctx = RunContext(
            scale or Scale.from_env(),
            seed,
            fault_plan or self.fault_plan,
            scenario or self.scenario,
            jobs,
            cache,
        )
        sweeps = [ctx.sweep(read(ctx, **options)) for read in self.reads]
        return self.build(*sweeps, **{p: getattr(ctx, p) for p in self.params})

    #: Calling an entry runs it directly: serial and uncached.
    __call__ = run
