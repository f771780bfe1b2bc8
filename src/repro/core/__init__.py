"""Measurement core: records, metrics, experiment plumbing, reporting.

Implements the paper's §III.C performance metrics exactly: Round-Trip Time
(mean of per-message round trips), RTT variation (standard deviation),
percentile of RTT, loss rate — plus the §III.F.2 decomposition
``RTT = PRT + PT + SRT`` and the qualitative rating derivation behind
Table III.
"""

from repro.core.dedup import DedupIndex
from repro.core.records import MessageRecord, RecordBook, Recorder, record_of
from repro.core.metrics import (
    PhaseBreakdown,
    RttStats,
    decompose,
    loss_rate,
    percentile_curve,
    rtt_stats,
)
from repro.core.experiment import ExperimentResult, SeriesPoint
from repro.core.report import render_series, render_table
from repro.core.comparison import Rating, rate_middleware, table_iii

__all__ = [
    "DedupIndex",
    "ExperimentResult",
    "MessageRecord",
    "PhaseBreakdown",
    "Rating",
    "RecordBook",
    "Recorder",
    "RttStats",
    "SeriesPoint",
    "decompose",
    "loss_rate",
    "percentile_curve",
    "rate_middleware",
    "record_of",
    "render_series",
    "render_table",
    "rtt_stats",
    "table_iii",
]
