"""Experiment registry, the sweep cache instance and the CLI entry point.

Every experiment is an :class:`~repro.harness.registry.Experiment` entry
declared beside its builder (``EXPERIMENTS`` in each harness module); this
module collects them into one registry, in the paper's order, and runs
them under an explicit :class:`~repro.harness.registry.RunContext`.

Several figures share the same underlying sweeps (Figs 6, 7, 8, 9 all read
the Narada scaling runs; Figs 11-14 the R-GMA ones; the plog figures the
partitioned-log ones), so ``run`` hands its context the process-wide
:class:`~repro.harness.cache.SweepCache` — an in-process LRU over a
content-addressed disk tier, keyed by the sweeps' own run specs.  Only
``run`` consults it: calling a run function or an entry directly always
runs.  ``--no-cache`` bypasses both tiers; :func:`clear_cache` empties
both.  Sweep points fan out over a process pool when
``--jobs``/``$REPRO_JOBS`` ask for it (:mod:`repro.harness.parallel`);
results are identical to a serial run by construction.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Any, Optional

from repro.core import ExperimentResult
from repro.faults import PLANS, named_plan
from repro.harness import (
    ablations,
    chaos_experiments,
    decomposition,
    edge_experiments,
    federation_experiments,
    fleet_experiments,
    narada_experiments,
    plog_experiments,
    rgma_experiments,
    scenario_experiments,
    tables,
)
from repro.harness.cache import SweepCache
from repro.harness.parallel import resolve_jobs
from repro.harness.registry import Experiment
from repro.harness.scale import Scale
from repro.scenario import SCENARIOS, named_scenario
from repro.telemetry import context as tel_context

#: The process-wide sweep cache ``run`` uses.
SWEEPS = SweepCache()

_declared = {
    entry.id: entry
    for module in (
        tables,
        narada_experiments,
        rgma_experiments,
        plog_experiments,
        decomposition,
        federation_experiments,
        fleet_experiments,
        edge_experiments,
        chaos_experiments,
        scenario_experiments,
        ablations,
    )
    for entry in module.EXPERIMENTS
}

#: The registry, in ``--list`` order: the paper's tables and figures in its
#: own order (interleaving modules), then every other entry as declared.
EXPERIMENTS: dict[str, Experiment] = {
    experiment_id: _declared.pop(experiment_id)
    for experiment_id in (
        "table1", "table2_fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "losses",
        "rgma_warmup_loss", "table3", "table3_extended",
    )
} | _declared

EXPERIMENT_IDS = tuple(EXPERIMENTS)


def clear_cache() -> None:
    """Empty both cache tiers (the in-process LRU and the disk entries)."""
    SWEEPS.clear()


def list_experiments() -> str:
    """The ``--list`` text: one aligned line per registered experiment."""
    width = max(len(i) for i in EXPERIMENTS)
    return "\n".join(
        f"{entry.id:<{width}}  {entry.description}"
        for entry in EXPERIMENTS.values()
    )


def _accepting(flag: str) -> tuple[str, ...]:
    return tuple(e.id for e in EXPERIMENTS.values() if flag in e.params)


def _params(experiment_id: str) -> tuple[str, ...]:
    """What the id's builder takes (nothing, for an unknown id: ``run``
    reports those)."""
    entry = EXPERIMENTS.get(experiment_id)
    return entry.params if entry is not None else ()


def run(
    experiment_id: str,
    scale: Optional[Scale | str] = None,
    seed: int = 1,
    fault_plan: Optional[str] = None,
    scenario: Optional[str] = None,
    jobs: Optional[int] = None,
    cache: bool = True,
) -> ExperimentResult:
    """Run one experiment by id; returns its :class:`ExperimentResult`.

    ``fault_plan`` selects a named fault schedule for the chaos and
    scenario experiments and is an error for any other experiment id;
    ``scenario`` selects a scenario script for the scenario experiments
    only.  ``jobs`` fans the sweep points out over that many worker
    processes (default: ``$REPRO_JOBS``, else serial — results are
    identical either way); ``cache=False`` bypasses both sweep-cache tiers
    for this call.
    """
    if isinstance(scale, str):
        scale = Scale.named(scale)
    try:
        entry = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; choose from {EXPERIMENT_IDS}"
        ) from None
    if fault_plan is not None and "fault_plan" not in entry.params:
        raise ValueError(
            f"--fault-plan only applies to chaos and scenario experiments "
            f"{_accepting('fault_plan')}, not {experiment_id!r}"
        )
    if scenario is not None and "scenario" not in entry.params:
        raise ValueError(
            f"--scenario only applies to scenario experiments "
            f"{_accepting('scenario')}, not {experiment_id!r}"
        )
    # Unknown names fail here, before anything runs.
    if fault_plan is not None:
        named_plan(fault_plan)
    if scenario is not None:
        named_scenario(scenario)
    return entry.run(
        scale, seed, fault_plan, scenario,
        jobs=resolve_jobs(jobs), cache=SWEEPS if cache else None,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate a table/figure from the paper."
    )
    parser.add_argument(
        "experiment",
        nargs="*",
        help=f"experiment id(s): {', '.join(EXPERIMENT_IDS)} or 'all'",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered experiment ids with descriptions and exit",
    )
    parser.add_argument("--scale", default=None, choices=["bench", "smoke", "full"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep points (default: $REPRO_JOBS, else "
        "the CPU count; 1 = serial; results are identical at any value)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the sweep cache (both the in-process and disk tiers)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        choices=sorted(PLANS),
        help="fault schedule for the chaos/scenario experiments",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        choices=sorted(SCENARIOS),
        help="scenario script for the scenario experiments",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record telemetry spans for the run(s) and write a JSONL trace",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the telemetry metrics / resource-sampler JSON summary",
    )
    args = parser.parse_args(argv)
    if args.list:
        print(list_experiments())
        return 0
    if not args.experiment:
        parser.error("no experiment ids given (use --list to see them)")
    ids = list(args.experiment)
    if ids == ["all"]:
        ids = list(EXPERIMENT_IDS)
    # A flag is forwarded only to the ids that accept it (so mixed lists and
    # 'all' work) — but given to a list where *nothing* accepts it, it would
    # be silently dropped: refuse instead.
    flags = {"fault_plan": args.fault_plan, "scenario": args.scenario}
    for flag, value in flags.items():
        if value is not None and not any(flag in _params(i) for i in ids):
            parser.error(
                f"--{flag.replace('_', '-')} {value} applies to none of "
                f"{', '.join(ids)} (accepted by: {', '.join(_accepting(flag))})"
            )

    telemetry = None
    ctx: Any = contextlib.nullcontext()
    if args.trace or args.metrics_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(label=" ".join(ids))
        ctx = tel_context.session(telemetry)
    jobs = resolve_jobs(args.jobs, default=os.cpu_count() or 1)
    with ctx:
        for experiment_id in ids:
            params = _params(experiment_id)
            result = run(
                experiment_id,
                scale=args.scale,
                seed=args.seed,
                jobs=jobs,
                cache=not args.no_cache,
                **{f: v for f, v in flags.items() if f in params},
            )
            print(result.render())
            print()
    if telemetry is not None:
        from repro.telemetry.exporters import (
            metrics_tables,
            write_metrics_json,
            write_trace_jsonl,
        )

        print(metrics_tables(telemetry))
        if args.trace:
            n_spans = write_trace_jsonl(telemetry, args.trace)
            print(f"trace: {n_spans} spans -> {args.trace}")
        if args.metrics_out:
            write_metrics_json(telemetry, args.metrics_out)
            print(f"metrics: -> {args.metrics_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
