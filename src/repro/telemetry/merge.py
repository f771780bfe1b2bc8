"""Telemetry fan-out: export a worker session, merge it into a parent.

When the harness runs sweep points across a :class:`ProcessPoolExecutor`
(:mod:`repro.harness.parallel`), each worker observes its runs under a
*fresh* :class:`~repro.telemetry.Telemetry` session — the parent's session
object cannot cross the process boundary and come back.  The worker ships
:func:`export_telemetry`'s picklable snapshot alongside its run results,
and the parent folds it in with :func:`merge_telemetry`, so ``--trace`` /
``--metrics-out`` outputs are complete under any ``--jobs`` value.

Merge semantics:

* **spans** — appended verbatim, and re-bound to the *unpickled* record
  books via :meth:`~repro.telemetry.spans.Tracer.adopt` (record identity
  changes across the pickle round-trip), so ``spans_for_book`` keeps
  working for the trace exporters and for span readers such as
  ``fig15_federation``;
* **counters / gauges / histogram buckets** — merged exactly, so every
  quantile equals a serial run's;
* **node samples** — the plain :class:`~repro.telemetry.NodeSamples`
  data, appended in point order (summaries are computed from it by the
  one summary function, :func:`repro.cluster.vmstat.summarize`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.records import RecordBook
    from repro.telemetry import Telemetry

EXPORT_VERSION = 2


def export_telemetry(
    telemetry: "Telemetry", books: Iterable["RecordBook"] = ()
) -> dict:
    """A picklable snapshot of ``telemetry`` for shipping to the parent.

    ``books`` are the record books travelling back with the worker's run
    results, in an order the parent can reproduce; each book's spans are
    exported as ``(record_index, span_index)`` pairs so the parent can
    re-bind them to the unpickled records.
    """
    tracer = telemetry.tracer
    span_index = {id(span): i for i, span in enumerate(tracer.spans)}
    book_bindings: list[list[tuple[int, int]]] = []
    for book in books:
        by_record = tracer._span_by_record
        book_bindings.append(
            [
                (record_index, span_index[id(by_record[id(record)])])
                for record_index, record in enumerate(book.records)
                if id(record) in by_record
            ]
        )
    return {
        "version": EXPORT_VERSION,
        "label": telemetry.label,
        "spans": tracer.spans,
        "book_bindings": book_bindings,
        "metrics": telemetry.metrics,
        "runs": telemetry.runs,
        "fault_windows": telemetry.fault_windows,
        "node_samples": telemetry.node_samples,
    }


def merge_telemetry(
    parent: "Telemetry", export: dict, books: Sequence["RecordBook"] = ()
) -> None:
    """Fold a worker's :func:`export_telemetry` snapshot into ``parent``.

    ``books`` must be the *unpickled* record books, in the same order they
    were passed to :func:`export_telemetry` worker-side.
    """
    version = export.get("version")
    if version != EXPORT_VERSION:
        raise ValueError(f"unknown telemetry export version {version!r}")
    spans = export["spans"]
    parent.tracer.spans.extend(spans)
    bindings = export["book_bindings"]
    if len(books) != len(bindings):
        raise ValueError(
            f"{len(books)} books for {len(bindings)} exported bindings"
        )
    for book, pairs in zip(books, bindings):
        parent.tracer.adopt(
            book, [(record_index, spans[i]) for record_index, i in pairs]
        )
    parent.metrics.merge_from(export["metrics"])
    parent.runs.extend(export["runs"])
    parent.fault_windows.extend(export["fault_windows"])
    parent.node_samples.extend(export["node_samples"])
