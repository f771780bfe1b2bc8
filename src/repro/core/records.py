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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np


@dataclass
class MessageRecord:
    """One monitored message's life."""

    gen_id: int
    seq: int
    t_before_send: float
    t_after_send: Optional[float] = None
    t_arrived: Optional[float] = None
    t_received: Optional[float] = None

    @property
    def delivered(self) -> bool:
        return self.t_received is not None

    def deliver(
        self, t_arrived: float, now: float, middleware: str, where: str
    ) -> bool:
        """Stamp this message's first delivery; ``False`` for a later copy.

        The one first-delivery rule every receiving path applies: the first
        copy to reach a recording receiver sets ``t_arrived``/``t_received``
        and emits the telemetry ``delivered`` mark (``middleware``,
        ``where`` name the instrument); a later copy changes nothing, and
        the caller counts it as a duplicate if it keeps that count.
        """
        if self.t_received is not None:
            return False
        self.t_arrived = t_arrived
        self.t_received = now
        tel = _telemetry()
        if tel is not None:
            tel.mark(self, "delivered", now, middleware, where)
        return True

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


class RecordBook:
    """Accumulates records during a run; the analysis input."""

    def __init__(self) -> None:
        self.records: list[MessageRecord] = []

    def new_record(self, gen_id: int, seq: int, t_before_send: float) -> MessageRecord:
        record = MessageRecord(gen_id=gen_id, seq=seq, t_before_send=t_before_send)
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


# Imported last: repro.telemetry's span module imports repro.core.metrics,
# which imports this module's classes, so they must exist by then.
from repro.telemetry.context import current as _telemetry  # noqa: E402
