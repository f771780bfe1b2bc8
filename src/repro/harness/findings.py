"""The paper's findings as code: one registry every shape gate reads.

A :class:`Finding` names one claim — an id, where it comes from (a paper
section or figure, or ``"extension"``), the registered experiments it
reads — and a check that turns those experiments'
:class:`~repro.core.ExperimentResult` objects into a :class:`Verdict`: pass
or fail, the observed value and the bound.  Each shape claim lives in
exactly one finding; ``benchmarks/bench_findings.py`` evaluates the
registry, one pytest id per finding.

A check is written as a sequence of clauses, each one comparison with its
bound.  Its verdict is the first clause that fails, else the first clause
(the headline).  Clauses are evaluated in order and evaluation stops at the
first failure, so a later clause may index what an earlier one guards.  A
result that lacks what a clause reads (no table, a missing row or label,
an empty sweep) fails the finding with the error as the observed value.

:data:`PAPER_FINDINGS` are the seven results PAPER.md §1 lists; every
other finding holds the shape of one figure, table or extension.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.core import ExperimentResult
from repro.core.report import render_table


@dataclass(frozen=True)
class Verdict:
    """One evaluated claim: did it hold, what was seen, what it must meet."""

    passed: bool
    observed: str
    bound: str


@dataclass(frozen=True)
class Finding:
    """One claim, the experiments it reads and its check."""

    id: str
    #: A paper section or figure, or ``"extension"``.
    citation: str
    #: Registered experiment ids; ``check`` takes their results in order.
    reads: tuple[str, ...]
    check: Callable[..., Verdict]


#: The registry, in declaration order.
FINDINGS: list[Finding] = []

#: PAPER.md §1's seven findings, in its order.
PAPER_FINDINGS = (
    "narada_tcp_fast_stable",
    "udp_ack_worse_than_tcp",
    "single_broker_oom_before_4000",
    "dbn_broadcasts",
    "rgma_pt_dominates_rtt",
    "secondary_producer_adds_30s",
    "rgma_distributed_beats_single",
)

Clauses = Iterator[Verdict]

#: What reading an incomplete result raises.
_MISSING = (LookupError, ValueError, ZeroDivisionError)


def _finding(finding_id: str, citation: str, *reads: str):
    """Register the decorated clause generator as a finding."""

    def register(clauses: Callable[..., Clauses]) -> Callable[..., Clauses]:
        @functools.wraps(clauses)
        def check(*results: ExperimentResult) -> Verdict:
            headline = None
            try:
                for verdict in clauses(*results):
                    if not verdict.passed:
                        return verdict
                    headline = headline or verdict
            except _MISSING as exc:
                return Verdict(False, f"{type(exc).__name__}: {exc}", "a complete result")
            assert headline is not None, f"{finding_id} checks nothing"
            return headline

        FINDINGS.append(Finding(finding_id, citation, reads, check))
        return clauses

    return register


def verdict_table(rows: Iterable[tuple[Finding, Verdict]]) -> str:
    """The rendered verdict table: one line per evaluated finding."""
    return render_table(
        ["finding", "citation", "verdict", "observed", "bound"],
        [
            [f.id, f.citation, "pass" if v.passed else "FAIL", v.observed, v.bound]
            for f, v in rows
        ],
    )


# ------------------------------------------------------------------ clauses

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


def _num(value: Any) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _cmp(what: str, value: Any, op: str, bound: Any, why: str = "") -> Verdict:
    """``value op bound``, e.g. ``_cmp("UDP RTT", udp, ">", 2 * tcp, "2 x TCP")``."""
    return Verdict(
        _OPS[op](value, bound),
        f"{what} {_num(value)}",
        f"{op} {_num(bound)}" + (f" ({why})" if why else ""),
    )


def _span(values: Iterable[float]) -> str:
    values = list(values)
    if not values:
        return "none"
    return f"{_num(min(values))}..{_num(max(values))}"


def _within(what: str, value: float, lo: float, hi: float) -> Verdict:
    return Verdict(lo < value < hi, f"{what} {_num(value)}", f"in ({_num(lo)}, {_num(hi)})")


def _every(what: str, values: Iterable[Any], holds: Callable[[Any], bool], bound: str) -> Verdict:
    """``holds(v)`` for every ``v`` (the loop of one assert)."""
    values = list(values)
    return Verdict(all(holds(v) for v in values), f"{what} {_span(values)}", bound)


def _zero(what: str, values: Iterable[float]) -> Verdict:
    """Every value is 0: no loss, no duplicates."""
    return _every(what, values, lambda v: v == 0, "== 0")


def _monotone(what: str, values: Iterable[float], decreasing: bool = False) -> Verdict:
    values = list(values)
    return Verdict(
        values == sorted(values, reverse=decreasing),
        f"{what} {_span(values)}",
        "non-increasing" if decreasing else "non-decreasing",
    )


def _all_monotone(curves: dict[str, dict[float, float]]) -> Verdict:
    """Every percentile curve is non-decreasing in its percentile."""
    bad = [
        label
        for label, curve in curves.items()
        if [curve[p] for p in sorted(curve)] != sorted(curve.values())
    ]
    return Verdict(not bad, f"non-monotone curves {bad}", "none (percentiles)")


def _noted(result: ExperimentResult, holds: Callable[[str], bool], what: str) -> Verdict:
    hits = sum(1 for note in result.notes if holds(note))
    return Verdict(hits > 0, f"{hits} notes {what}", ">= 1")


def _curve(result: ExperimentResult, label: str) -> dict[float, float]:
    return {p.x: p.y for p in result.series[label]}


def _percentiles(result: ExperimentResult) -> dict[str, dict[float, float]]:
    """Connection-count-labelled percentile curves, by ascending count."""
    return {
        label: _curve(result, label) for label in sorted(result.series, key=int)
    }


def _rows(result: ExperimentResult) -> dict[Any, list[Any]]:
    if result.table is None:
        raise LookupError(f"{result.experiment_id} has no table")
    return {row[0]: row for row in result.table[1]}


def _rate(cell: str) -> float:
    return float(cell.rstrip("%")) / 100.0


# ------------------------------------------------------ the paper's findings

@_finding("narada_tcp_fast_stable", "§I; Table II, Figs 3-4", "table2_fig3", "fig4")
def _narada_tcp(table2: ExperimentResult, fig4: ExperimentResult) -> Clauses:
    yield _cmp("TCP RTT", _rows(table2)["TCP"][1], "<", 10, "ms")
    yield _cmp("TCP P100", _curve(fig4, "TCP")[100.0], "<", 60, "ms")


@_finding("udp_ack_worse_than_tcp", "§III.E.1; Figs 3-4", "table2_fig3", "fig4")
def _udp_ack(table2: ExperimentResult, fig4: ExperimentResult) -> Clauses:
    rows = _rows(table2)
    tcp_rtt, tcp_std = rows["TCP"][1], rows["TCP"][2]
    udp_rtt, nio_rtt = rows["UDP"][1], rows["NIO"][1]
    yield _cmp("UDP RTT", udp_rtt, ">", 2 * tcp_rtt, "2 x TCP RTT")
    yield _cmp("UDP STDDEV", rows["UDP"][2], ">", 5 * tcp_std, "5 x TCP STDDEV")
    yield Verdict(
        tcp_rtt < nio_rtt < udp_rtt,
        f"TCP/NIO/UDP RTT {tcp_rtt}/{nio_rtt}/{udp_rtt}",
        "TCP < NIO < UDP",
    )
    tcp, udp = _curve(fig4, "TCP"), _curve(fig4, "UDP")
    yield _cmp("UDP P100", udp[100.0], ">", 100, "ms")
    yield _cmp("UDP P99", udp[99.0], ">", tcp[99.0], "TCP P99")


@_finding("single_broker_oom_before_4000", "§III.E.2; Fig 7", "fig7")
def _narada_oom(fig7: ExperimentResult) -> Clauses:
    rtt = _curve(fig7, "RTT")
    yield Verdict(
        4000 not in rtt, f"single-broker points up to {max(rtt)}", "no point at 4000"
    )
    yield _noted(fig7, lambda n: "OOM at 4000" in n, "saying 'OOM at 4000'")


@_finding("dbn_broadcasts", "§III.E.2, §V", "ablation_dbn_routing")
def _dbn_broadcasts(ablation: ExperimentResult) -> Clauses:
    rows = _rows(ablation)
    flawed, fixed = rows["broadcast (v1.1.3)"], rows["routed (fixed)"]
    yield _cmp("routed forwards", fixed[2], "<", flawed[2] / 2, "1/2 broadcast")
    yield _cmp("routed RTT", fixed[1], "<", flawed[1], "broadcast RTT")


@_finding("rgma_pt_dominates_rtt", "§III.F; Fig 15", "fig15")
def _rgma_pt(fig15: ExperimentResult) -> Clauses:
    prt, pt, srt, rtt = _rows(fig15)["RGMA"][1:]
    yield _cmp("R-GMA PT", pt, ">", 2 * prt, "2 x PRT")
    yield _cmp("R-GMA PT", pt, ">", 2 * srt, "2 x SRT")
    yield _cmp("|RTT - (PRT+PT+SRT)|", abs(rtt - (prt + pt + srt)), "<", 1e-6)


@_finding("secondary_producer_adds_30s", "§III.F; Fig 10", "fig10")
def _secondary_producer(fig10: ExperimentResult) -> Clauses:
    curves = _percentiles(fig10)
    yield _every(
        "P95 (s)", (c[95.0] for c in curves.values()), lambda v: 29.0 < v < 40.0,
        "in (29, 40)",
    )
    yield _cmp("curves", len(curves), ">", 0)
    yield _all_monotone(curves)
    yield _every("P100 (s)", (c[100.0] for c in curves.values()), lambda v: v < 45.0, "< 45")


@_finding("rgma_distributed_beats_single", "§III.F.1; Figs 11, 13", "fig11", "fig13")
def _rgma_distributed(fig11: ExperimentResult, fig13: ExperimentResult) -> Clauses:
    rtt, rtt2 = _curve(fig11, "RTT"), _curve(fig11, "RTT2")
    overlap = sorted(set(rtt) & set(rtt2))
    yield Verdict(
        all(rtt2[x] < rtt[x] for x in overlap),
        f"distributed/single RTT {_span(rtt2[x] / rtt[x] for x in overlap)}",
        "distributed < single at every shared count",
    )
    yield _cmp("distributed max connections", max(rtt2), ">=", 1000)
    yield _cmp("single/distributed shared counts", len(overlap), ">", 0)
    cpu, cpu2 = _curve(fig13, "CPU"), _curve(fig13, "CPU2")
    idle_overlap = set(cpu) & set(cpu2)
    yield _cmp("CPU shared counts", len(idle_overlap), ">", 0)
    yield Verdict(
        all(cpu2[x] > cpu[x] for x in idle_overlap),
        f"distributed - single idle {_span(cpu2[x] - cpu[x] for x in idle_overlap)}",
        "> 0 at every shared count",
    )


# ------------------------------------------------- the figures' other shapes

@_finding("comparison_payload_and_rate", "Table II; Figs 3-4", "table2_fig3", "fig4")
def _comparison(table2: ExperimentResult, fig4: ExperimentResult) -> Clauses:
    rows = _rows(table2)
    tcp_rtt = rows["TCP"][1]
    yield _cmp("Triple RTT", rows["Triple"][1], ">", tcp_rtt, "TCP RTT")
    yield _cmp("|80 - TCP| RTT", abs(rows["80"][1] - tcp_rtt), "<", tcp_rtt, "TCP RTT")
    curves = {label: _curve(fig4, label) for label in ("TCP", "UDP", "NIO", "Triple")}
    yield _all_monotone(curves)
    yield _cmp("Triple P95", curves["Triple"][95.0], ">", curves["TCP"][95.0], "TCP P95")


@_finding("fig6_cpu_mem", "Fig 6", "fig6")
def _fig6(fig6: ExperimentResult) -> Clauses:
    cpu, mem = _curve(fig6, "CPU"), _curve(fig6, "MEM")
    cpu2, mem2 = _curve(fig6, "CPU2"), _curve(fig6, "MEM2")
    xs, xs2 = sorted(cpu), sorted(cpu2)
    yield _cmp("MEM at top count", mem[xs[-1]], ">", 2 * mem[xs[0]], "2 x MEM at lowest")
    yield _monotone("single CPU idle", (cpu[x] for x in xs), decreasing=True)
    yield _monotone("single MEM", (mem[x] for x in xs))
    yield _monotone("DBN CPU idle", (cpu2[x] for x in xs2), decreasing=True)
    yield _monotone("DBN MEM", (mem2[x] for x in xs2))
    yield _cmp("DBN max connections", max(xs2), ">", max(xs), "single max")


@_finding("fig7_narada_scaling", "Fig 7", "fig7")
def _fig7(fig7: ExperimentResult) -> Clauses:
    rtt, rtt2 = _curve(fig7, "RTT"), _curve(fig7, "RTT2")
    stddev = _curve(fig7, "STDDEV")
    xs = sorted(rtt)
    yield _cmp(f"RTT at {xs[-1]}", rtt[xs[-1]], ">", 2 * rtt[xs[0]], f"2 x RTT at {xs[0]}")
    yield _monotone("single RTT", (rtt[x] for x in xs))
    yield _cmp(f"STDDEV at {xs[-1]}", stddev[xs[-1]], ">", stddev[xs[0]], f"at {xs[0]}")
    yield _every("single RTT (ms)", rtt.values(), lambda v: v < 100, "< 100")
    yield _cmp("DBN max connections", max(rtt2), ">=", 4000)
    overlap = set(rtt) & set(rtt2)
    yield _cmp("single/DBN shared counts", len(overlap), ">", 0)
    mean_ratio = sum(rtt2[x] / rtt[x] for x in overlap) / len(overlap)
    yield _cmp("DBN/single mean RTT ratio", mean_ratio, ">", 0.8, "not dramatically faster")
    yield _noted(fig7, lambda n: "within 100 ms" in n, "saying 'within 100 ms'")


def _stacked(result: ExperimentResult) -> tuple[dict, dict, dict]:
    """Percentile curves plus the lowest and highest connection counts'."""
    curves = _percentiles(result)
    labels = list(curves)
    return curves, curves[labels[0]], curves[labels[-1]]


@_finding("fig8_narada_single_percentiles", "Fig 8", "fig8")
def _fig8(fig8: ExperimentResult) -> Clauses:
    curves, low, high = _stacked(fig8)
    yield _cmp("top-count P99", high[99.0], ">", low[99.0], "lowest-count P99")
    yield _cmp("curves", len(curves), ">=", 3)
    yield _all_monotone(curves)
    yield _cmp("top-count P100", high[100.0], "<", 1000, "ms")


@_finding("fig9_narada_dbn_percentiles", "Fig 9", "fig9")
def _fig9(fig9: ExperimentResult) -> Clauses:
    curves, low, high = _stacked(fig9)
    yield _cmp("top-count P99", high[99.0], ">", low[99.0], "lowest-count P99")
    yield _cmp("top connection count", int(list(curves)[-1]), ">=", 4000)
    yield _all_monotone(curves)
    yield _within("top-count P100 (ms)", high[100.0], 20, 1000)


@_finding("fig11_rgma_scaling", "Fig 11", "fig11")
def _fig11(fig11: ExperimentResult) -> Clauses:
    rtt = _curve(fig11, "RTT")
    xs = sorted(rtt)
    yield Verdict(800 not in rtt, f"single-server points up to {max(rtt)}", "no point at 800")
    yield _noted(fig11, lambda n: "OOM" in n, "saying 'OOM'")
    yield _within(f"RTT at {xs[0]} (ms)", rtt[xs[0]], 200, 3000)
    yield _cmp(f"RTT at {xs[-1]}", rtt[xs[-1]], ">", rtt[xs[0]], f"RTT at {xs[0]}")
    yield _noted(fig11, lambda n: "4000 ms" in n, "saying '4000 ms'")


@_finding("fig12_rgma_single_percentiles", "Fig 12", "fig12")
def _fig12(fig12: ExperimentResult) -> Clauses:
    curves, low, high = _stacked(fig12)
    yield _cmp("top-count P99", high[99.0], ">", low[99.0], "lowest-count P99")
    yield _cmp("curves", len(curves), ">=", 3)
    yield _all_monotone(curves)
    yield _cmp("top-count P99", high[99.0], ">", 700, "ms")
    yield _cmp("top-count P100", high[100.0], "<", 20_000, "ms")


@_finding("fig13_rgma_cpu_mem", "Fig 13", "fig13")
def _fig13(fig13: ExperimentResult) -> Clauses:
    cpu, mem = _curve(fig13, "CPU"), _curve(fig13, "MEM")
    xs = sorted(cpu)
    yield _monotone("single CPU idle", (cpu[x] for x in xs), decreasing=True)
    yield _monotone("single MEM", (mem[x] for x in xs))


@_finding("fig14_rgma_dist_percentiles", "Fig 14", "fig14")
def _fig14(fig14: ExperimentResult) -> Clauses:
    curves, _, high = _stacked(fig14)
    yield _cmp("top-count P100", high[100.0], "<", 10_000, "ms")
    yield _cmp("top connection count", int(list(curves)[-1]), ">=", 1000)
    yield _all_monotone(curves)


@_finding("fig15_narada_vs_rgma", "Fig 15", "fig15")
def _fig15(fig15: ExperimentResult) -> Clauses:
    rows = _rows(fig15)
    narada_rtt, rgma_rtt = rows["Narada"][4], rows["RGMA"][4]
    yield _cmp("R-GMA RTT", rgma_rtt, ">", 50 * narada_rtt, "50 x Narada RTT")
    yield _cmp("Narada RTT", narada_rtt, "<", 50, "ms")


@_finding("in_text_losses", "§III.E.1, §III.F", "losses")
def _losses(losses: ExperimentResult) -> Clauses:
    rows = _rows(losses)
    loss = {name: _rate(row[3]) for name, row in rows.items()}
    yield _zero("TCP/NIO/Triple/80 loss", (loss[n] for n in ("TCP", "NIO", "Triple", "80")))
    yield _every(
        "UDP/UDP CLI loss", (loss[n] for n in ("UDP", "UDP CLI")), lambda v: v < 0.01, "< 0.01"
    )
    yield _cmp("R-GMA loss without warm-up", loss["R-GMA no warm-up"], ">", 0.0)
    yield _cmp("R-GMA loss with warm-up", loss["R-GMA 10-20 s warm-up"], "==", 0.0)


@_finding("table3_ratings", "Table III", "table3")
def _table3(table3: ExperimentResult) -> Clauses:
    ratings = {name: tuple(row[1:4]) for name, row in _rows(table3).items()}
    yield Verdict(
        ratings["R-GMA"] == ("Average", "Average", "Very good"),
        f"R-GMA {'/'.join(ratings['R-GMA'])}", "Average/Average/Very good",
    )
    yield Verdict(
        ratings["Narada"] == ("Very good", "Very good", "Average"),
        f"Narada {'/'.join(ratings['Narada'])}", "Very good/Very good/Average",
    )
    narada, rgma = table3.meta["narada"], table3.meta["rgma"]
    yield _cmp("Narada light-load RTT", narada.rtt_ms_light, "<", 50, "ms")
    yield _cmp("R-GMA light-load RTT", rgma.rtt_ms_light, ">", 200, "ms")
    yield _cmp(
        "Narada single max connections", narada.max_connections_single, ">",
        rgma.max_connections_single, "R-GMA's",
    )


@_finding("table3_extended_plog", "extension", "table3_extended")
def _table3_extended(table3x: ExperimentResult) -> Clauses:
    plog, narada = table3x.meta["plog"], table3x.meta["narada"]
    yield _cmp("plog single max connections", plog.max_connections_single, ">=", 10000)
    rows = set(_rows(table3x))
    yield Verdict(
        rows == {"R-GMA", "Narada", "Partitioned log"}, f"rows {sorted(rows)}",
        "R-GMA, Narada, Partitioned log",
    )
    yield _cmp(
        "plog single max connections", plog.max_connections_single, ">",
        narada.max_connections_single, "Narada's",
    )
    yield _within("plog light-load RTT (ms)", plog.rtt_ms_light, 40, 100)


# --------------------------------------------------------------- ablations

@_finding("ablation_web_services", "§III.D", "ablation_web_services")
def _web_services(result: ExperimentResult) -> Clauses:
    rows = _rows(result)
    native = rows["native JMS"][2]
    soap = rows["SOAP over HTTP via proxy"][2]
    yield _cmp("SOAP end-to-end", soap, ">", 2 * native, "2 x native JMS")
    yield _noted(result, lambda n: "expands" in n, "saying 'expands'")


@_finding("ablation_rgma_legacy_api", "§III.F.3", "ablation_rgma_legacy_api")
def _legacy_api(result: ExperimentResult) -> Clauses:
    old, new = result.table[1][0], result.table[1][1]
    yield _cmp("legacy API latency", old[1], "<", new[1] / 5, "1/5 PP/Consumer")
    yield _cmp("legacy tuples delivered", old[2], ">", 0)


@_finding("ablation_clock_skew", "§III.B (method)", "ablation_clock_skew")
def _clock_skew(result: ExperimentResult) -> Clauses:
    same_node, ntp, drifted = result.table[1][:3]
    yield _cmp("drifted RTT error", drifted[2], ">", 10 * ntp[2], "10 x NTP error")
    yield _cmp("same-node RTT error", same_node[2], "==", 0.0)
    yield _cmp("NTP RTT error", ntp[2], "<", 2.0, "ms")
    yield _cmp("drifted negative RTTs %", float(drifted[3].rstrip("%")), ">", 10)


@_finding("ablation_rgma_https", "§III.F", "ablation_rgma_https")
def _rgma_https(result: ExperimentResult) -> Clauses:
    rows = _rows(result)
    http, https = rows["HTTP (paper's choice)"], rows["HTTPS"]
    yield _cmp("HTTPS producer setup", https[1], ">", 2 * http[1], "2 x HTTP")
    yield _cmp("HTTPS - HTTP setup", https[1] - http[1], ">", 80, "ms")
    yield _cmp("HTTPS server CPU", https[2], ">", http[2] + 1.0, "HTTP + 1 s")
    yield _cmp("HTTPS RTT", https[3], "<", 3 * http[3], "3 x HTTP")


@_finding("ablation_udp_ack", "§III.E.1", "ablation_udp_ack")
def _udp_ack_ablation(result: ExperimentResult) -> Clauses:
    rows = _rows(result)
    acked, raw = rows["acked (JMS requires it)"], rows["raw (no ack)"]
    raw_loss, acked_loss = _rate(raw[2]), _rate(acked[2])
    yield _cmp("raw UDP RTT", raw[1], "<", acked[1] / 2, "1/2 acked")
    yield _cmp("raw UDP loss", raw_loss, ">", 0.01)
    yield _cmp("acked UDP loss", acked_loss, "<", raw_loss / 10, "1/10 raw")


@_finding("ablation_rgma_mediator", "§III.F; Fig 15", "ablation_rgma_mediator")
def _rgma_mediator(result: ExperimentResult) -> Clauses:
    rows = _rows(result)
    modelled = rows["gLite 3.0 (modelled)"][2]
    ablated = rows["zero-cost mediator"][2]
    yield _cmp("zero-cost mediator PT", ablated, "<", modelled / 2, "1/2 modelled")


@_finding("ablation_aggregation", "§IV", "ablation_aggregation")
def _aggregation(result: ExperimentResult) -> Clauses:
    small, big = result.table[1][:2]
    yield _cmp("aggregated messages", big[1], "<", small[1] / 2, "1/2 small-message count")
    yield _cmp("aggregated RTT", big[2], "<", 3 * small[2], "3 x small-message RTT")


# ------------------------------------------------------------------ chaos

@_finding("chaos_threeway_loss_burst", "extension", "chaos_threeway")
def _chaos_threeway(result: ExperimentResult) -> Clauses:
    runs = result.meta["runs"]
    no_retry, retry = runs["Plog (UDP, no retry)"], runs["Plog (UDP, retry)"]
    rgma, narada = runs["R-GMA (TCP)"], runs["Narada (UDP, retry)"]
    yield _cmp("plog retry loss", retry.loss_rate, "<", 0.005, "§I")
    yield _cmp("legs", len(result.table[1]), "==", 4)
    yield _cmp("plog one-shot loss", no_retry.loss_rate, ">", 0.0)
    yield _cmp("plog retry loss", retry.loss_rate, "<", no_retry.loss_rate, "one-shot")
    yield _cmp("plog producer retries", retry.producer_retries, ">", 0)
    yield _cmp("R-GMA TCP loss", rgma.loss_rate, "==", 0.0)
    yield _cmp("Narada UDP loss", narada.loss_rate, ">", retry.loss_rate, "plog retry")
    yield _every(
        "curve points per leg", (len(result.series[label]) for label in runs),
        lambda n: n > 0, "> 0",
    )
    yield _noted(result, lambda n: n.startswith("fault:"), "starting 'fault:'")
    plan = result.meta["fault_plan"]
    yield Verdict(plan == "loss_burst", f"plan {plan}", "loss_burst")


@_finding("chaos_broker_failover", "extension", "chaos_broker_failover")
def _broker_failover(result: ExperimentResult) -> Clauses:
    rows = result.table[1]
    losses = [_rate(row[3]) for row in rows]
    replicated = result.meta["replicated_run"]
    yield _cmp("replicated acked records lost", replicated.acked_lost, "==", 0)
    labels = [row[0] for row in rows]
    yield Verdict(
        labels == [
            "one-shot (no recovery)", "retry", "retry + failover",
            "replicated (RF=2, acks=all, one-shot)",
        ],
        f"legs {labels}", "one-shot, retry, retry + failover, replicated",
    )
    yield Verdict(
        losses[0] > losses[1] >= losses[2],
        f"loss one-shot/retry/failover {'/'.join(_num(v) for v in losses[:3])}",
        "one-shot > retry >= failover",
    )
    yield _cmp("failover loss", losses[2], "<", 0.005, "§I")
    yield _cmp("replicated elections", replicated.elections, ">", 0)
    yield _cmp("replicated acked records", replicated.acked, ">", 0)


@_finding("chaos_replication", "extension", "chaos_replication")
def _replication(result: ExperimentResult) -> Clauses:
    runs = result.meta["runs"]
    acked_all, full = runs["RF=2, acks=all (one-shot)"], runs["RF=3, acks=all + retry"]
    yield _cmp("RF=2 acked records lost", acked_all.acked_lost, "==", 0)
    yield _cmp("RF=2 elections", acked_all.elections, ">", 0)
    yield Verdict(
        acked_all.isr_shrinks > 0 and acked_all.isr_expands > 0,
        f"ISR shrinks/expands {acked_all.isr_shrinks}/{acked_all.isr_expands}", "both > 0",
    )
    yield _cmp("RF=3 acked records lost", full.acked_lost, "==", 0)
    yield _cmp("RF=3 loss", full.loss_rate, "<", 0.005, "§I")


@_finding("chaos_adaptive_backoff", "extension", "chaos_adaptive_backoff")
def _adaptive_backoff(result: ExperimentResult) -> Clauses:
    runs = result.meta["runs"]
    fixed, adaptive = runs["fixed backoff"], runs["adaptive backoff (SRTT/RTTVAR)"]
    yield _cmp("adaptive retries", adaptive.producer_retries, "<", fixed.producer_retries, "fixed")
    yield _cmp("fixed retries", fixed.producer_retries, ">", 0)
    yield _cmp("fixed loss", fixed.loss_rate, "==", 0.0)
    yield _cmp("adaptive loss", adaptive.loss_rate, "==", 0.0)


@_finding("durability_gauntlet_exactly_once", "extension", "chaos_durability")
def _durability(result: ExperimentResult) -> Clauses:
    runs = result.meta["runs"]
    narada = runs["Narada durable (TCP, retry)"]
    plog = runs["Plog idempotent (TCP, RF=2, acks=all)"]
    yield _zero("loss per leg", (r.loss_rate for r in runs.values()))
    yield _zero("duplicates per leg", (r.duplicates for r in runs.values()))
    yield _every("sent per leg", (r.sent for r in runs.values()), lambda v: v > 0, "> 0")
    yield _cmp("Narada receiver reconnects", narada.receiver_reconnects, ">", 0)
    yield _cmp("plog elections", plog.elections, ">", 0)
    yield _cmp("plog acked records", plog.acked, ">", 0)
    yield _cmp("plog acked records lost", plog.acked_lost, "==", 0)
    yield _cmp("plog redeliveries absorbed", plog.redeliveries, ">", 0)


# ------------------------------------------------------------------- plog

@_finding("plog_percentiles_bounded", "extension", "plog_percentiles")
def _plog_percentiles(result: ExperimentResult) -> Clauses:
    curves = {label: _curve(result, label) for label in result.series}
    yield _every(
        "P100 (ms)", (c[max(c)] for c in curves.values()), lambda v: v < 5000,
        "< 5000 (§I deadline)",
    )
    yield _cmp("curves", len(curves), ">", 0)
    yield _all_monotone(curves)
    yield _cmp("top connection count", max(map(int, curves)), ">=", 8000)


@_finding("plog_scaling_past_the_wall", "extension", "plog_scaling")
def _plog_scaling(result: ExperimentResult) -> Clauses:
    rtt, rtt2 = _curve(result, "RTT"), _curve(result, "RTT2")
    verdicts = {row[1]: row[6] for row in result.table[1]}
    yield Verdict(
        any(n >= 10000 and verdicts[n] == "PASS" for n in verdicts),
        f"SLA PASS up to {max((n for n, v in verdicts.items() if v == 'PASS'), default=0)}",
        "PASS at >= 10000",
    )
    yield Verdict(
        4000 in rtt and 8000 in rtt and 12000 in rtt,
        f"single-broker points {sorted(rtt)}", "4000, 8000, 12000 present",
    )
    oom_notes = sum(1 for n in result.notes if "OOM" in n)
    yield _cmp("notes saying 'OOM'", oom_notes, "==", 0)
    yield _every("single RTT (ms)", rtt.values(), lambda v: 40 < v < 1000, "in (40, 1000)")
    yield _cmp("RTT at 12000", rtt[12000], "<", 10 * rtt[min(rtt)], "10 x lightest")
    yield _every("SLA verdicts", verdicts.values(), lambda v: v == "PASS", "all PASS")
    yield _cmp("4-broker max connections", max(rtt2), ">=", 16000)
    yield _every("4-broker RTT (ms)", rtt2.values(), lambda v: v < 1000, "< 1000")
    yield _noted(result, lambda n: "no" in n and "thread" in n, "saying 'no ... thread'")


@_finding("fig15_threeway_regimes", "extension", "fig15_threeway")
def _fig15_threeway(result: ExperimentResult) -> Clauses:
    rows = _rows(result)
    plog_prt, plog_pt, plog_srt, plog_rtt = rows["Plog"][1:]
    narada_rtt, rgma_rtt = rows["Narada"][4], rows["RGMA"][4]
    yield Verdict(
        narada_rtt < plog_rtt < rgma_rtt,
        f"Narada/plog/R-GMA RTT {_num(narada_rtt)}/{_num(plog_rtt)}/{_num(rgma_rtt)}",
        "Narada < plog < R-GMA",
    )
    yield Verdict(
        set(rows) == {"RGMA", "Narada", "Plog"}, f"rows {sorted(rows)}", "RGMA, Narada, Plog"
    )
    yield _cmp("R-GMA RTT", rgma_rtt, ">", 10 * plog_rtt, "10 x plog RTT")
    yield _cmp("plog PRT", plog_prt, ">", plog_srt, "plog SRT")
    residual = abs((plog_prt + plog_pt + plog_srt) - plog_rtt)
    yield _cmp("|plog RTT - (PRT+PT+SRT)|", residual, "<", 1e-6)
    phases = {
        label: [p.y for p in sorted(result.series[label], key=lambda p: p.x)]
        for label in ("RGMA", "Narada", "Plog")
    }
    yield _every(
        "phase boundaries per system", (len(ys) for ys in phases.values()),
        lambda n: n == 4, "== 4",
    )
    yield _every("first boundary", (ys[0] for ys in phases.values()), lambda y: y == 0.0, "== 0")
    yield _noted(result, lambda n: "linger" in n, "saying 'linger'")


# ------------------------------------------------- federation, edge, scenarios

@_finding("federation_routed_beats_broadcast", "extension", "federation_scaling")
def _federation(result: ExperimentResult) -> Clauses:
    routed, broadcast = result.meta["routed"], result.meta["broadcast"]
    counts = sorted(routed)
    lo, hi = counts[0], counts[-1]
    broker_growth = hi / lo
    routed_growth = routed[hi] / routed[lo]
    bcast_growth = broadcast[hi] / broadcast[lo]
    yield _cmp("routed per-link growth", routed_growth, "<", bcast_growth, "broadcast growth")
    yield _cmp(
        "|broadcast growth - broker growth|", abs(bcast_growth - broker_growth), "<=",
        0.15 * broker_growth, "15 % of broker growth",
    )
    yield _cmp(
        "routed per-link growth", routed_growth, "<", 0.75 * bcast_growth, "0.75 x broadcast"
    )
    yield _zero("routed loss at every count", result.meta["routed_loss"].values())
    yield Verdict(
        all(routed[n] < broadcast[n] for n in counts),
        f"routed/broadcast per link {_span(routed[n] / broadcast[n] for n in counts)}",
        "routed < broadcast at every count",
    )


@_finding("edge_pooled_fan_in", "extension", "edge_scaling")
def _edge(result: ExperimentResult) -> Clauses:
    meta = result.meta
    pooled_by_gateways: dict[int, set[int]] = {}
    for point, pooled in meta["pooled_connections"].items():
        pooled_by_gateways.setdefault(int(point.split("x")[1]), set()).add(pooled)
    yield _cmp(
        "max pooled connections", meta["max_pooled"], "<", meta["max_clients"] / 100,
        "clients / 100",
    )
    yield _every(
        "distinct pooled counts per gateway count", (len(p) for p in pooled_by_gateways.values()),
        lambda n: n == 1, "== 1 (population-independent)",
    )
    p99 = {tuple(map(int, k.split("x"))): v for k, v in meta["edge_p99_ms"].items()}
    c, g = min(p99, key=lambda p: (abs(p[0] - 10_000), p[1]))
    yield _cmp(f"edge/direct P99 at {c}x{g}", p99[c, g] / meta["direct_p99_ms"], "<=", 2.0)
    yield _zero("loss at every point", meta["loss"].values())


def _finite_bursts(scores: Iterable[dict]) -> Verdict:
    """Every leg delivered during the bursts: its burst P99 is a number."""
    return _every(
        "burst P99 (ms)", (s["burst_p99_ms"] for s in scores), math.isfinite, "finite on every leg"
    )


@_finding("scenario_storm_front_sla", "extension", "scenario_threeway")
def _storm_front(result: ExperimentResult) -> Clauses:
    scores = result.meta["scores"]
    plog = scores["Plog (TCP, acks=all)"]
    tcp_legs = ("R-GMA (TCP)", "Plog (TCP, acks=all)")
    yield _zero("TCP-leg loss %", (scores[label]["loss_pct"] for label in tcp_legs))
    yield _cmp("plog acks=all duplicates", plog["duplicates"], "==", 0)
    yield _finite_bursts(scores.values())


@_finding("scenario_alarm_storm_sla", "extension", "scenario_edge_storm")
def _alarm_storm(result: ExperimentResult) -> Clauses:
    scores = result.meta["scores"].values()
    yield _zero("loss % per leg", (s["loss_pct"] for s in scores))
    yield _finite_bursts(scores)
