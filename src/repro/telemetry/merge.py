"""Telemetry fan-out: export a worker session, merge it into a parent.

When the harness runs sweep points across a :class:`ProcessPoolExecutor`
(:mod:`repro.harness.parallel`), each worker observes its runs under a
*fresh* :class:`~repro.telemetry.Telemetry` session — the parent's session
object cannot cross the process boundary and come back.  The worker ships
:func:`export_telemetry`'s picklable snapshot alongside its run results,
and the parent folds it in with :func:`merge_telemetry`, so ``--trace`` /
``--metrics-out`` outputs are complete under any ``--jobs`` value.

Merge semantics:

* **spans** — appended verbatim.  Nothing needs re-binding: every phase
  is stamped on the records themselves, which travel back inside the run
  results, so a span reader binds the unpickled book
  (:func:`~repro.telemetry.spans.bind_book`) to the very spans shipped
  here;
* **counters / gauges / histogram buckets** — merged exactly, so every
  quantile equals a serial run's;
* **node samples** — the plain :class:`~repro.telemetry.NodeSamples`
  data, appended in point order (summaries are computed from it by the
  one summary function, :func:`repro.cluster.vmstat.steady_state_summary`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

EXPORT_VERSION = 3


def export_telemetry(telemetry: "Telemetry") -> dict:
    """A picklable snapshot of ``telemetry`` for shipping to the parent."""
    return {
        "version": EXPORT_VERSION,
        "label": telemetry.label,
        "spans": telemetry.spans,
        "metrics": telemetry.metrics,
        "runs": telemetry.runs,
        "fault_windows": telemetry.fault_windows,
        "node_samples": telemetry.node_samples,
    }


def merge_telemetry(parent: "Telemetry", export: dict) -> None:
    """Fold a worker's :func:`export_telemetry` snapshot into ``parent``."""
    version = export.get("version")
    if version != EXPORT_VERSION:
        raise ValueError(f"unknown telemetry export version {version!r}")
    parent.spans.extend(export["spans"])
    parent.metrics.merge_from(export["metrics"])
    parent.runs.extend(export["runs"])
    parent.fault_windows.extend(export["fault_windows"])
    parent.node_samples.extend(export["node_samples"])
