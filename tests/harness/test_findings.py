"""The findings registry, without simulating: its declarations, and that
each of the paper's seven findings fails on a result doctored against it."""

import pytest

from repro.core import ExperimentResult
from repro.harness import runner
from repro.harness.findings import FINDINGS, PAPER_FINDINGS

BY_ID = {f.id: f for f in FINDINGS}


def _result(experiment_id, rows=None, series=None, notes=()):
    result = ExperimentResult(experiment_id, "", "", "")
    if rows is not None:
        result.table = (["name"], [list(row) for row in rows])
    for label, curve in (series or {}).items():
        for x, y in curve.items():
            result.add_point(label, x, y)
    result.notes = list(notes)
    return result


def _healthy():
    """One result per experiment the paper findings read, shaped as the
    paper reports it."""
    return {
        "table2_fig3": _result("table2_fig3", rows=[
            ("UDP", 8.2, 27.0), ("NIO", 3.8, 1.2), ("TCP", 3.3, 1.1),
        ]),
        "fig4": _result("fig4", series={
            "TCP": {95.0: 5.0, 99.0: 8.0, 100.0: 40.0},
            "UDP": {95.0: 20.0, 99.0: 60.0, 100.0: 250.0},
        }),
        "fig7": _result(
            "fig7",
            series={"RTT": {500: 2.0, 2000: 5.0, 3000: 8.0}},
            notes=["single broker refused: OOM at 4000 connections"],
        ),
        "ablation_dbn_routing": _result("ablation_dbn_routing", rows=[
            ("broadcast (v1.1.3)", 10.0, 3000), ("routed (fixed)", 8.0, 1000),
        ]),
        "fig15": _result("fig15", rows=[
            ("RGMA", 100.0, 2000.0, 150.0, 2250.0), ("Narada", 1.0, 1.0, 1.0, 3.0),
        ]),
        "fig10": _result("fig10", series={
            "50": {95.0: 31.0, 99.0: 33.0, 100.0: 35.0},
            "200": {95.0: 32.0, 99.0: 34.0, 100.0: 38.0},
        }),
        "fig11": _result("fig11", series={
            "RTT": {100: 500.0, 400: 900.0, 600: 1500.0},
            "RTT2": {400: 700.0, 600: 800.0, 1000: 1200.0},
        }),
        "fig13": _result("fig13", series={
            "CPU": {100: 80.0, 400: 50.0, 600: 20.0},
            "CPU2": {400: 70.0, 600: 60.0},
        }),
    }


def _set_row(result, name, column, value):
    for row in result.table[1]:
        if row[0] == name:
            row[column] = value


def _set_point(result, label, x, y):
    points = [p for p in result.series[label] if p.x != x]
    result.series[label] = points
    result.add_point(label, x, y)


#: finding id -> (experiment id, how to break that one claim in its result)
DOCTORED = {
    "narada_tcp_fast_stable": ("table2_fig3", lambda r: _set_row(r, "TCP", 1, 12.0)),
    "udp_ack_worse_than_tcp": ("table2_fig3", lambda r: _set_row(r, "UDP", 1, 4.0)),
    # A 4 000-connection single-broker point: the OOM wall is gone.
    "single_broker_oom_before_4000": ("fig7", lambda r: _set_point(r, "RTT", 4000, 12.0)),
    # Broadcast off: routing sends as many forwards as broadcasting.
    "dbn_broadcasts": ("ablation_dbn_routing", lambda r: _set_row(r, "routed (fixed)", 2, 3000)),
    "rgma_pt_dominates_rtt": ("fig15", lambda r: _set_row(r, "RGMA", 2, 150.0)),
    # Secondary Producer delay 0: the P95s drop out of the 30 s band.
    "secondary_producer_adds_30s": ("fig10", lambda r: _set_point(r, "50", 95.0, 1.0)),
    # Distributed slower than single at 600 connections.
    "rgma_distributed_beats_single": ("fig11", lambda r: _set_point(r, "RTT2", 600, 1600.0)),
}


def _verdict(finding_id, results):
    finding = BY_ID[finding_id]
    return finding.check(*(results[i] for i in finding.reads))


def test_finding_ids_are_unique():
    ids = [f.id for f in FINDINGS]
    assert len(ids) == len(set(ids))


def test_every_read_is_a_registered_experiment():
    for finding in FINDINGS:
        assert finding.reads, finding.id
        for experiment_id in finding.reads:
            assert experiment_id in runner.EXPERIMENTS, (finding.id, experiment_id)


def test_every_finding_has_a_citation():
    assert all(f.citation.strip() for f in FINDINGS)


def test_paper_findings_are_registered():
    assert len(PAPER_FINDINGS) == 7
    assert set(PAPER_FINDINGS) <= set(BY_ID)
    assert set(DOCTORED) == set(PAPER_FINDINGS)


@pytest.mark.parametrize("finding_id", PAPER_FINDINGS)
def test_paper_finding_passes_on_paper_shaped_results(finding_id):
    verdict = _verdict(finding_id, _healthy())
    assert verdict.passed, verdict


@pytest.mark.parametrize("finding_id", PAPER_FINDINGS)
def test_doctored_result_fails_paper_finding(finding_id):
    results = _healthy()
    experiment_id, doctor = DOCTORED[finding_id]
    doctor(results[experiment_id])
    verdict = _verdict(finding_id, results)
    assert not verdict.passed
    assert verdict.observed and verdict.bound


def test_result_missing_what_a_finding_reads_fails_it():
    results = _healthy()
    results["fig15"].table = None
    verdict = _verdict("rgma_pt_dominates_rtt", results)
    assert not verdict.passed
    assert "has no table" in verdict.observed
