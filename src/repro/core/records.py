"""Per-message measurement records.

The paper's receiving program "dumped [sending and receiving time, etc]
into a local text file for later analysis" (§III.B); a :class:`RecordBook`
is that log file.  Each message carries four timestamps matching Fig 15's
phase boundaries:

* ``t_before_send`` — the application called publish/insert;
* ``t_after_send``  — the publish/insert call returned (end of PRT);
* ``t_arrived``     — the receiving runtime got the message off the wire /
  started the receiving operation (start of SRT);
* ``t_received``    — the application's listener/poll saw the message.

Every interior phase a message crosses on the way — a broker's
``broker_in``/``broker_out``, the edge gateway's ``edge_in``/``parked``/
``edge_out`` — is stamped on the same record by :meth:`MessageRecord.mark`,
on the same clock, so a record alone is the whole trace of its message.
Every mark is also tallied on the book that holds the record, keyed by
``(middleware, component, phase)``: a finished book is all a telemetry
session reads, its ``span.<phase>`` counters included.

A :class:`Recorder` is the receiving program's one sink: every recording
receiver, the edge clients and the federation subscribers count and stamp
each delivery through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dedup import DedupIndex

#: ``(middleware, component, phase)`` -> marks made.
MarkTally = dict[tuple[str, str, str], int]


@dataclass(slots=True)
class MessageRecord:
    """One monitored message's life."""

    gen_id: int
    seq: int
    t_before_send: float
    t_after_send: Optional[float] = None
    t_arrived: Optional[float] = None
    t_received: Optional[float] = None
    #: phase -> ``(sim time, component)`` of its first mark, in mark order
    #: (``None`` until the first mark): a DBN message's ``broker_in`` is
    #: the ingress broker.
    marks: Optional[dict[str, tuple[float, str]]] = None
    #: Every mark made, first or not (> ``len(marks)`` once a message
    #: crossed several brokers or reached several subscribers).
    hops: int = 0
    #: The holding book's :attr:`RecordBook.tally` (``None`` for a record
    #: no book made).
    tally: Optional[MarkTally] = field(default=None, repr=False, compare=False)

    @property
    def delivered(self) -> bool:
        return self.t_received is not None

    def deliver(
        self, t_arrived: float, now: float, middleware: str, where: str
    ) -> bool:
        """Stamp this message's first delivery; ``False`` for a later copy.

        The one first-delivery rule every receiving path applies: the first
        copy to reach a recording receiver sets ``t_arrived``/``t_received``
        and marks ``delivered`` (``middleware``, ``where`` name the
        instrument); a later copy changes nothing, and the
        :class:`Recorder` that called counts it as a duplicate.
        """
        if self.t_received is not None:
            return False
        self.t_arrived = t_arrived
        self.t_received = now
        self.mark("delivered", now, middleware, where)
        return True

    def mark(self, phase: str, t: float, middleware: str, component: str) -> None:
        """Stamp ``phase`` at sim time ``t`` by ``component``: the first
        mark of a phase wins, every mark counts a hop and is tallied on
        the record's book."""
        marks = self.marks
        if marks is None:
            self.marks = {phase: (t, component)}
        elif phase not in marks:
            marks[phase] = (t, component)
        self.hops += 1
        tally = self.tally
        if tally is not None:
            key = (middleware, component, phase)
            tally[key] = tally.get(key, 0) + 1

    @property
    def rtt(self) -> float:
        """Round-trip time: sending to receiving (paper §III.C)."""
        if self.t_received is None:
            raise ValueError("message was not delivered")
        return self.t_received - self.t_before_send

    @property
    def prt(self) -> float:
        """Publishing Response Time (paper §III.F.2)."""
        if self.t_after_send is None:
            raise ValueError("send never completed")
        return self.t_after_send - self.t_before_send

    @property
    def srt(self) -> float:
        """Subscribing Response Time."""
        if self.t_received is None or self.t_arrived is None:
            raise ValueError("message was not received")
        return self.t_received - self.t_arrived

    @property
    def pt(self) -> float:
        """Process Time: RTT = PRT + PT + SRT."""
        return self.rtt - self.prt - self.srt


def record_of(payload: Any) -> Optional[MessageRecord]:
    """The :class:`MessageRecord` riding on a middleware payload, if any.

    Narada messages and plog values carry it as ``_record``; R-GMA tuples
    carry it in ``meta["record"]``.
    """
    record = getattr(payload, "_record", None)
    if record is not None:
        return record
    meta = getattr(payload, "meta", None)
    if isinstance(meta, dict):
        return meta.get("record")
    return None


class Recorder:
    """The delivery-accounting rule, written once: a receiver's
    per-delivery callback ``(payload, t_arrived)``.

    With a ``dedup`` index, a ``(gen_id, seq)`` already seen is a
    *redelivery* (replay, rebalance or failover overlap) and is not
    counted as received.  Every other delivery is ``received``; a
    ``stamping`` recorder then stamps the first delivery of the message on
    its record (:meth:`MessageRecord.deliver`, at the clock's ``now``) and
    counts a later copy, which reached it by another path, as one of the
    ``duplicates``.  ``middleware`` and ``component`` name the instrument
    on the ``delivered`` mark.
    """

    __slots__ = (
        "sim", "middleware", "component", "dedup", "stamping",
        "received", "duplicates", "redeliveries",
    )

    def __init__(
        self,
        sim: Any,
        middleware: str,
        component: str,
        dedup: Optional["DedupIndex"] = None,
        stamping: bool = True,
    ):
        self.sim = sim
        self.middleware = middleware
        self.component = component
        self.dedup = dedup
        self.stamping = stamping
        self.received = 0
        self.duplicates = 0
        self.redeliveries = 0

    def __call__(self, payload: Any, t_arrived: float) -> bool:
        """Count one delivery; ``False`` for a suppressed redelivery."""
        record = record_of(payload)
        if self.dedup is not None and record is not None:
            if not self.dedup.mark(record.gen_id, record.seq):
                self.redeliveries += 1
                return False
        self.received += 1
        if self.stamping and record is not None and not record.deliver(
            t_arrived, self.sim.now, self.middleware, self.component
        ):
            self.duplicates += 1
        return True


class RecordBook:
    """Accumulates records during a run; the analysis input."""

    def __init__(self) -> None:
        self.records: list[MessageRecord] = []
        #: Every mark made on a record this book made, first or not.
        self.tally: MarkTally = {}

    def new_record(self, gen_id: int, seq: int, t_before_send: float) -> MessageRecord:
        record = MessageRecord(
            gen_id=gen_id, seq=seq, t_before_send=t_before_send, tally=self.tally
        )
        self.records.append(record)
        return record

    # ------------------------------------------------------------- queries
    @property
    def sent_count(self) -> int:
        return len(self.records)

    @property
    def received_count(self) -> int:
        return sum(1 for r in self.records if r.delivered)

    def delivered(self) -> list[MessageRecord]:
        return [r for r in self.records if r.delivered]

    def rtts(self, since: float = 0.0) -> np.ndarray:
        """RTTs (seconds) of delivered messages sent at/after ``since``."""
        return np.array(
            [r.rtt for r in self.records if r.delivered and r.t_before_send >= since],
            dtype=float,
        )

    def after(self, since: float) -> "RecordBook":
        """A view restricted to messages sent at/after ``since`` (warm-up cut)."""
        book = RecordBook()
        book.records = [r for r in self.records if r.t_before_send >= since]
        return book

    def merge(self, other: "RecordBook") -> None:
        self.records.extend(other.records)

    def __len__(self) -> int:
        return len(self.records)

