"""Per-message trace spans.

A :class:`Span` is the trace-shaped view of one monitored message: the
paper's four :class:`~repro.core.records.MessageRecord` timestamps become
the *endpoint* phases (``created`` / ``published`` / ``arrived`` /
``delivered``), and the record's live marks add the *interior* phases
(``broker_in`` / ``broker_out`` and the edge gateway's hop).  All
times come from the one simulated clock, so traces are deterministic and
cross-middleware phase durations are directly comparable — the property
the paper manufactures by sending and receiving on the same node
(§III.E.2).

Every phase is stamped on the record itself
(:meth:`~repro.core.records.MessageRecord.mark`), so :func:`bind_book`
materialises a run's spans from its record book alone, whether the book
was just filled or came back from a worker process or the sweep cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

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
    #: the record's :attr:`~repro.core.records.MessageRecord.hops`: every
    #: live mark (> len(phases) when a message crossed several brokers,
    #: e.g. the Narada DBN).
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


def bind_book(book: "RecordBook", middleware: str) -> list[Span]:
    """One span per record of ``book``, in record order.

    Endpoint phases come from the record's timestamps (identical data to
    the paper's record-book analysis, so span-based decompositions agree
    bit-for-bit with :func:`repro.core.metrics.decompose`); interior
    phases, their components and the hop count come from the record's own
    :attr:`~repro.core.records.MessageRecord.marks`.  A pure function of
    the book: a book unpickled from the sweep cache or a ``--jobs`` worker
    binds to the same spans as the one the run filled.
    """
    spans: list[Span] = []
    for record in book.records:
        span = Span(middleware=middleware, gen_id=record.gen_id, seq=record.seq)
        phases = span.phases
        phases["created"] = record.t_before_send
        if record.t_after_send is not None:
            phases["published"] = record.t_after_send
        if record.t_arrived is not None:
            phases["arrived"] = record.t_arrived
        if record.t_received is not None:
            phases["delivered"] = record.t_received
        marks = record.marks
        if marks:
            span.hops = record.hops
            for phase, (t, component) in marks.items():
                phases.setdefault(phase, t)
                span.components[phase] = component
        spans.append(span)
    return spans


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
