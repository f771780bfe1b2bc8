"""Tables I and III, and the loss table: results derived from several
middlewares' sweeps at once (or, for Table I, from the testbed constants).
"""

from __future__ import annotations

from repro.cluster.hydra import HYDRA_SPEC
from repro.core import ExperimentResult
from repro.core.comparison import MiddlewareMeasurements, table_iii
from repro.harness import narada_experiments, plog_experiments, rgma_experiments
from repro.harness.registry import Experiment


def table1() -> ExperimentResult:
    result = ExperimentResult(
        "table1", "Hardware specifications and software versions", "", ""
    )
    result.table = (
        ["CPU and memory", "OS and JVM", "Middleware"],
        [
            [
                f"{HYDRA_SPEC.cpu}, {HYDRA_SPEC.memory_bytes // 1024**3}GB",
                f"{HYDRA_SPEC.os}, {HYDRA_SPEC.jvm}",
                HYDRA_SPEC.middleware,
            ]
        ],
    )
    result.note(
        f"{HYDRA_SPEC.node_count} nodes, "
        f"{HYDRA_SPEC.lan_bandwidth_bps / 1e6:.0f} Mbps isolated LAN, "
        "observed transfer rate 7-8 MB/s"
    )
    return result


def losses(runs, warmup_runs) -> ExperimentResult:
    result = ExperimentResult(
        "losses", "Message loss rates (§III.E.1 and §III.F)", "case", "loss rate"
    )
    rows = []
    for name in ("UDP", "UDP CLI", "NIO", "TCP", "Triple", "80"):
        run = runs[name]
        rows.append([name, run.sent, run.received, f"{run.loss_rate:.4%}"])
    warm = rgma_experiments.warmup_loss(warmup_runs)
    assert warm.table is not None
    rows.extend([[f"R-GMA {r[0]}", r[1], r[2], r[3]] for r in warm.table[1]])
    result.table = (["case", "sent", "received", "loss rate"], rows)
    result.note(
        "paper: UDP 0.06%, UDP CLI 0.03%, all TCP-family zero; R-GMA 0.17% "
        "without warm-up, zero with"
    )
    return result


def _max_ok(sweep, extra_ok=lambda run: True) -> int:
    """The largest swept connection count that neither hit the memory wall
    nor failed ``extra_ok``."""
    ok = [n for n, r in sweep.items() if not r.oom and extra_ok(r)]
    return max(ok) if ok else 0


def _distributed_ratios(single, dist) -> tuple[float, float]:
    """Distributed-vs-single ``(RTT ratio, CPU idle ratio)``: the RTT ratio
    is the mean over all common connection counts (a single point is noisy;
    the paper compares the curves), the idle ratio is taken at the largest."""
    common_ns = sorted(
        set(n for n in single if not single[n].oom)
        & set(n for n in dist if not dist[n].oom)
    )
    rtt_ratio = sum(
        dist[n].mean_rtt_ms / single[n].mean_rtt_ms for n in common_ns
    ) / len(common_ns)
    common = common_ns[-1]
    idle_ratio = (
        min(v.mean_cpu_idle_percent for v in dist[common].vmstat.values())
        / max(1e-9, single[common].vmstat["hydra1"].mean_cpu_idle_percent)
    )
    return rtt_ratio, idle_ratio


def table3(
    comparison, narada_single, narada_dbn, rgma_single, rgma_dist
) -> ExperimentResult:
    not_congested = lambda run: run.mean_rtt_ms < 1000 and run.loss_rate < 0.01

    narada_max_single = _max_ok(narada_single)
    narada_max_dist = _max_ok(narada_dbn, not_congested)
    narada_ratio, narada_idle_ratio = _distributed_ratios(narada_single, narada_dbn)
    narada = MiddlewareMeasurements(
        name="Narada",
        rtt_ms_light=comparison["TCP"].mean_rtt_ms,
        max_connections_single=narada_max_single,
        max_connections_distributed=max(narada_max_dist, narada_max_single),
        distributed_rtt_ratio=narada_ratio,
        distributed_idle_ratio=narada_idle_ratio,
    )

    common_rgma = max(
        set(n for n in rgma_single if not rgma_single[n].oom)
        & set(n for n in rgma_dist if not rgma_dist[n].oom)
    )
    rgma_ratio = (
        rgma_dist[common_rgma].mean_rtt_ms / rgma_single[common_rgma].mean_rtt_ms
    )
    rgma_idle_ratio = (
        min(v.mean_cpu_idle_percent for v in rgma_dist[common_rgma].vmstat.values())
        / max(1e-9, rgma_single[common_rgma].vmstat["hydra1"].mean_cpu_idle_percent)
    )
    rgma = MiddlewareMeasurements(
        name="R-GMA",
        rtt_ms_light=rgma_single[min(rgma_single)].mean_rtt_ms,
        max_connections_single=_max_ok(rgma_single),
        max_connections_distributed=_max_ok(rgma_dist),
        distributed_rtt_ratio=rgma_ratio,
        distributed_idle_ratio=rgma_idle_ratio,
    )

    result = ExperimentResult(
        "table3", "R-GMA and NaradaBrokering comparison", "", "rating"
    )
    result.table = table_iii(rgma, narada)
    result.note(
        "ratings derived from measured RTT / connection walls / "
        "distributed-vs-single ratios (repro.core.comparison)"
    )
    result.meta["narada"] = narada
    result.meta["rgma"] = rgma
    return result


def table3_extended(*sweeps) -> ExperimentResult:
    """Table III with a third row derived from the plog sweeps:
    :func:`table3`'s five sweeps, then the plog single-broker and 4-broker
    ones."""
    *paper_sweeps, single, spread = sweeps
    base = table3(*paper_sweeps)
    narada = base.meta["narada"]
    rgma = base.meta["rgma"]

    max_ok = lambda sweep: _max_ok(sweep, lambda run: run.compliant)
    ratio, idle_ratio = _distributed_ratios(single, spread)
    plog = MiddlewareMeasurements(
        name="Partitioned log",
        rtt_ms_light=single[min(single)].mean_rtt_ms,
        max_connections_single=max_ok(single),
        max_connections_distributed=max(max_ok(spread), max_ok(single)),
        distributed_rtt_ratio=ratio,
        distributed_idle_ratio=idle_ratio,
    )
    result = ExperimentResult(
        "table3_extended",
        "Table III extended with the partitioned commit log",
        "",
        "rating",
    )
    result.table = table_iii(rgma, narada, plog)
    result.note(
        f"plog single-broker compliance wall: {plog.max_connections_single} "
        f"connections (Narada: {narada.max_connections_single}; "
        f"R-GMA: {rgma.max_connections_single})"
    )
    result.meta["narada"] = narada
    result.meta["rgma"] = rgma
    result.meta["plog"] = plog
    return result


_PAPER_SWEEPS = (
    narada_experiments.comparison_tests,
    narada_experiments.single_sweep,
    narada_experiments.dbn_sweep,
    rgma_experiments.single_sweep,
    rgma_experiments.distributed_sweep,
)

EXPERIMENTS = (
    Experiment(
        "table1", "Table I: hardware specifications and software versions", table1
    ),
    Experiment(
        "losses", "Message loss rates (§III.E.1 and §III.F)", losses,
        reads=(narada_experiments.comparison_tests, rgma_experiments.warmup_pair),
    ),
    Experiment(
        "table3", "Table III: derived qualitative comparison", table3,
        reads=_PAPER_SWEEPS,
    ),
    Experiment(
        "table3_extended",
        "Table III plus a partitioned-commit-log row",
        table3_extended,
        reads=_PAPER_SWEEPS
        + (plog_experiments.single_sweep, plog_experiments.spread_sweep),
    ),
)
