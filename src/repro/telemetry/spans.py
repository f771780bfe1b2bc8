"""Per-message trace spans.

A :class:`Span` is the trace-shaped view of one monitored message: the
paper's four :class:`~repro.core.records.MessageRecord` timestamps become
the *endpoint* phases (``created`` / ``published`` / ``arrived`` /
``delivered``), and live broker-side marks add the *interior* phases
(``broker_in`` / ``broker_out``) that the record book never sees.  All
times come from the one simulated clock, so traces are deterministic and
cross-middleware phase durations are directly comparable — the property
the paper manufactures by sending and receiving on the same node
(§III.E.2).

The :class:`Tracer` accumulates marks keyed by ``id(record)`` (records are
plain unhashable dataclasses, and the record book keeps every record alive
for the run, so ids are stable and unique) and materialises spans when a
harness run binds its book with :meth:`Tracer.bind_book`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.core.metrics import PhaseBreakdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.records import RecordBook

#: Phase names in life-cycle order.  ``created``..``delivered`` are the
#: record-book boundaries; ``broker_in``/``broker_out`` are live broker
#: marks, and ``edge_in``/``parked``/``edge_out`` are the gateway-tier hop
#: (upstream delivery into the gateway, the long-poll park that consumed
#: the event, and the write into the long-poll response).
PHASES = (
    "created",
    "published",
    "broker_in",
    "broker_out",
    "edge_in",
    "parked",
    "edge_out",
    "arrived",
    "delivered",
)

#: The subset of phases whose ordering is a schema invariant (interior
#: broker phases may legitimately precede ``published`` — e.g. a plog
#: append lands before the produce acknowledgement returns).
ORDERED_PHASES = ("created", "published", "arrived", "delivered")


@dataclass
class Span:
    """One message's life through one middleware."""

    middleware: str
    gen_id: int
    seq: int
    #: phase name -> sim time (seconds); missing phases were never reached.
    phases: dict[str, float] = field(default_factory=dict)
    #: phase name -> component that first stamped it (broker/servlet name).
    components: dict[str, str] = field(default_factory=dict)
    #: total live marks observed (> len(phases) when a message crossed
    #: several brokers, e.g. the Narada DBN).
    hops: int = 0
    #: fault windows (``kind@target``) overlapping this span's lifetime.
    annotations: list[str] = field(default_factory=list)

    # ------------------------------------------------------------ durations
    @property
    def complete(self) -> bool:
        """All four endpoint phases stamped (the paper's "delivered and
        fully timed" criterion for Fig 15)."""
        return all(p in self.phases for p in ORDERED_PHASES)

    @property
    def prt(self) -> float:
        """Publishing Response Time (seconds)."""
        return self.phases["published"] - self.phases["created"]

    @property
    def pt(self) -> float:
        """Process Time: middleware transit, published -> arrived."""
        return self.phases["arrived"] - self.phases["published"]

    @property
    def srt(self) -> float:
        """Subscribing Response Time: arrived -> delivered."""
        return self.phases["delivered"] - self.phases["arrived"]

    @property
    def rtt(self) -> float:
        return self.phases["delivered"] - self.phases["created"]

    def to_dict(self) -> dict:
        out: dict = {
            "middleware": self.middleware,
            "gen_id": self.gen_id,
            "seq": self.seq,
            "phases": {p: self.phases[p] for p in PHASES if p in self.phases},
        }
        if self.components:
            out["components"] = dict(self.components)
        if self.hops:
            out["hops"] = self.hops
        if self.annotations:
            out["annotations"] = list(self.annotations)
        return out


class Tracer:
    """Collects live phase marks and materialises spans per run."""

    def __init__(self) -> None:
        #: id(record) -> {phase: (time, component)} — first mark wins, so a
        #: DBN message's ``broker_in`` is the ingress broker.
        self._marks: dict[int, dict[str, tuple[float, str]]] = {}
        self._hops: dict[int, int] = {}
        self.spans: list[Span] = []
        self._span_by_record: dict[int, Span] = {}

    # ----------------------------------------------------------------- marks
    def mark(self, record: object, phase: str, t: float, component: str) -> None:
        """Record that ``record`` crossed ``phase`` at sim time ``t``."""
        marks = self._marks.setdefault(id(record), {})
        self._hops[id(record)] = self._hops.get(id(record), 0) + 1
        if phase not in marks:
            marks[phase] = (t, component)

    # ----------------------------------------------------------------- spans
    def bind_book(self, book: "RecordBook", middleware: str) -> list[Span]:
        """Materialise one span per record of ``book``.

        Endpoint phases come from the record's timestamps (identical data
        to the paper's record-book analysis, so span-based decompositions
        agree bit-for-bit with :func:`repro.core.metrics.decompose`);
        interior phases merge in from live marks.
        """
        spans: list[Span] = []
        for record in book.records:
            span = Span(middleware=middleware, gen_id=record.gen_id, seq=record.seq)
            span.phases["created"] = record.t_before_send
            if record.t_after_send is not None:
                span.phases["published"] = record.t_after_send
            if record.t_arrived is not None:
                span.phases["arrived"] = record.t_arrived
            if record.t_received is not None:
                span.phases["delivered"] = record.t_received
            # Binding consumes the marks: once this book is freed, a later
            # record may reuse its id() and must not inherit them.
            marks = self._marks.pop(id(record), None)
            if marks:
                span.hops = self._hops.pop(id(record), 0)
                for phase, (t, component) in marks.items():
                    span.phases.setdefault(phase, t)
                    span.components.setdefault(phase, component)
            spans.append(span)
            self._span_by_record[id(record)] = span
        self.spans.extend(spans)
        return spans

    def spans_for_book(self, book: "RecordBook") -> list[Span]:
        """The spans a previous :meth:`bind_book` built for ``book``."""
        return [
            self._span_by_record[id(r)]
            for r in book.records
            if id(r) in self._span_by_record
        ]

    def adopt(self, book: "RecordBook", pairs: Iterable[tuple[int, Span]]) -> None:
        """Register externally materialised spans for ``book``'s records.

        ``pairs`` are ``(record_index, span)`` built by a fan-out worker's
        own :meth:`bind_book`; the record identities changed when the book
        crossed the process boundary, so :meth:`spans_for_book` needs the
        mapping rebuilt against the unpickled records.  The spans themselves
        must be appended to :attr:`spans` by the caller (which controls
        cross-book ordering)."""
        records = book.records
        for record_index, span in pairs:
            self._span_by_record[id(records[record_index])] = span


def phase_breakdown(
    spans: Iterable[Span], since: float = 0.0
) -> PhaseBreakdown:
    """Mean PRT / PT / SRT over complete spans created at/after ``since``.

    Numerically identical to :func:`repro.core.metrics.decompose` over the
    originating record book — the endpoint phases *are* the record's
    timestamps — which is what lets Fig 15 be rebuilt on spans without
    moving any measured number.
    """
    rows = [
        s for s in spans if s.complete and s.phases["created"] >= since
    ]
    if not rows:
        return PhaseBreakdown(float("nan"), float("nan"), float("nan"))
    n = len(rows)
    return PhaseBreakdown(
        prt_ms=sum(s.prt for s in rows) / n * 1e3,
        pt_ms=sum(s.pt for s in rows) / n * 1e3,
        srt_ms=sum(s.srt for s in rows) / n * 1e3,
    )
