"""Every finding of the registry, one pytest id each.

Each experiment the findings read runs once per session through
``runner.run``, whose sweep cache also shares sweeps between experiments
(fig6/7/8 pay for the Narada scaling sweep once).  Its rendering goes to
``benchmarks/results/<id>.txt``; the verdict table (observed value and
bound per finding) goes to ``benchmarks/results/findings.txt``.

    REPRO_SCALE=smoke PYTHONPATH=src python -m pytest benchmarks/bench_findings.py
"""

import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.harness import runner
from repro.harness.findings import FINDINGS, verdict_table


@pytest.fixture(scope="session")
def experiment(scale, save_result):
    results = {}

    def run(experiment_id):
        if experiment_id not in results:
            results[experiment_id] = runner.run(experiment_id, scale=scale)
            save_result(results[experiment_id])
        return results[experiment_id]

    return run


@pytest.fixture(scope="session")
def verdicts(scale):
    found = {}
    yield found
    rows = [(f, found[f.id]) for f in FINDINGS if f.id in found]
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "findings.txt").write_text(
        f"findings at scale {scale}, seed 1\n{verdict_table(rows)}\n", encoding="utf-8"
    )


@pytest.mark.parametrize("finding", FINDINGS, ids=[f.id for f in FINDINGS])
def test_finding(finding, experiment, verdicts):
    verdict = finding.check(*map(experiment, finding.reads))
    verdicts[finding.id] = verdict
    assert verdict.passed, (
        f"{finding.id} ({finding.citation}): {verdict.observed}, bound {verdict.bound}"
    )
