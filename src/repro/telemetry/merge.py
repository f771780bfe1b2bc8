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
* **resource samplers** — imported as read-only :class:`ImportedSampler`
  shims exposing the ``node.name`` / ``samples`` / ``summary()`` surface
  the exporters consume.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.cluster.vmstat import VmStatSummary
from repro.telemetry.samplers import ResourceSample

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.records import RecordBook
    from repro.telemetry import Telemetry

EXPORT_VERSION = 1


class ImportedSampler:
    """Read-only stand-in for a fan-out worker's ResourceSampler.

    Quacks like :class:`~repro.telemetry.samplers.ResourceSampler` for every
    consumer in :mod:`repro.telemetry.exporters` (``node.name``,
    ``middleware``, ``samples``, ``summary``); it owns no simulator and
    cannot sample further.
    """

    def __init__(
        self,
        node: str,
        middleware: str,
        interval: float,
        samples: Sequence[ResourceSample],
    ):
        self.node = SimpleNamespace(name=node)
        self.middleware = middleware
        self.interval = interval
        self.samples = list(samples)

    def stop(self) -> None:  # parity with ResourceSampler
        pass

    def summary(self, warmup: float = 0.0) -> VmStatSummary:
        used = [s for s in self.samples if s.time >= warmup]
        if not used:
            return VmStatSummary(100.0, 0.0, 0)
        mean_idle = 100.0 * sum(s.cpu_idle_fraction for s in used) / len(used)
        mems = [s.memory_used_bytes for s in used]
        return VmStatSummary(
            mean_cpu_idle_percent=mean_idle,
            memory_consumption_bytes=max(mems) - min(mems),
            samples=len(used),
        )


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
        "samplers": [
            {
                "node": sampler.node.name,
                "middleware": sampler.middleware,
                "interval": sampler.interval,
                "samples": sampler.samples,
            }
            for sampler in telemetry.samplers
        ],
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
    parent.samplers.extend(
        ImportedSampler(**sampler) for sampler in export["samplers"]
    )
