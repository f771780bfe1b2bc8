"""Figure shapes the paper repeats for every system: percentile-of-RTT
curves per connection count (Figs 8, 9, 12, 14) and CPU idle / memory
consumption vs connections (Figs 6, 13)."""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.core import ExperimentResult, percentile_curve


def percentile_figure(
    experiment_id: str,
    title: str,
    sweep: Mapping[int, Any],
    upto: Optional[int] = None,
) -> ExperimentResult:
    """One 95-100 % percentile-of-RTT curve per swept connection count that
    stayed under the memory wall (and at or under ``upto`` connections)."""
    result = ExperimentResult(experiment_id, title, "percentile", "millisecond")
    for n, run in sorted(sweep.items()):
        if run.oom or (upto is not None and n > upto):
            continue
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(str(n), pct, ms)
    return result


def cpu_memory_figure(
    experiment_id: str,
    title: str,
    single: Mapping[int, Any],
    distributed: Mapping[int, Any],
) -> ExperimentResult:
    """CPU idle and memory consumption vs connections: the single server's
    node (``CPU``/``MEM``) and the mean over the distributed deployment's
    nodes (``CPU2``/``MEM2``)."""
    result = ExperimentResult(
        experiment_id, title, "concurrent connections", "CPU idle % / memory MB"
    )
    for n, run in sorted(single.items()):
        if run.oom:
            continue
        vm = run.vmstat["hydra1"]
        result.add_point("CPU", n, vm.mean_cpu_idle_percent)
        result.add_point("MEM", n, vm.memory_consumption_mb)
    for n, run in sorted(distributed.items()):
        if run.oom:
            continue
        idles = [v.mean_cpu_idle_percent for v in run.vmstat.values()]
        mems = [v.memory_consumption_mb for v in run.vmstat.values()]
        result.add_point("CPU2", n, sum(idles) / len(idles))
        result.add_point("MEM2", n, sum(mems) / len(mems))
    return result
