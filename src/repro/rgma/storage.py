"""Producer memory storage with retention periods.

"Primary Producers used memory storage to allow fast query.  The latest
retention period was set to 30 seconds and history retention period was set
to 1 minute" (paper §III.F).  The store keeps an append-ordered history for
continuous/history queries and a latest-tuple-per-key view for latest
queries; a purge sweep enforces both retention periods.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.rgma.schema import TableDef
    from repro.sim.kernel import Simulator

_tuple_seq = count(1)


@dataclass
class Tuple:
    """One published row plus provenance metadata."""

    table: str
    row: dict[str, Any]
    #: Simulated time the producer servlet stored the row.
    insert_time: float
    #: Client-side stamps for RTT decomposition (set by the harness/clients).
    meta: dict[str, float] = field(default_factory=dict)
    seq: int = field(default_factory=lambda: next(_tuple_seq))


class TupleStore:
    """In-memory storage for one (producer, table) pair."""

    def __init__(
        self,
        sim: "Simulator",
        table: "TableDef",
        latest_retention: float = 30.0,
        history_retention: float = 60.0,
    ):
        if latest_retention <= 0 or history_retention <= 0:
            raise ValueError("retention periods must be positive")
        self.sim = sim
        self.table = table
        self.latest_retention = latest_retention
        self.history_retention = history_retention
        self._history: deque[Tuple] = deque()
        self._latest: dict[tuple, Tuple] = {}
        self.inserted_count = 0
        self.purged_count = 0

    def insert(self, row: dict[str, Any], meta: Optional[dict] = None) -> Tuple:
        """Validate and store a row; returns the stored tuple."""
        self.table.validate_row(row)
        t = Tuple(
            table=self.table.name,
            row=dict(row),
            insert_time=self.sim.now,
            meta=dict(meta or {}),
        )
        self._history.append(t)
        self._latest[self.table.key_of(row)] = t
        self.inserted_count += 1
        return t

    # ---------------------------------------------------------------- reads
    def history(self, since: float = float("-inf")) -> list[Tuple]:
        """Tuples still inside the history retention, newer than ``since``."""
        self.purge()
        return [t for t in self._history if t.insert_time > since]

    def latest(self) -> list[Tuple]:
        """Latest tuple per primary key, inside the latest retention."""
        self.purge()
        horizon = self.sim.now - self.latest_retention
        return [t for t in self._latest.values() if t.insert_time >= horizon]

    def since_seq(self, seq: int) -> list[Tuple]:
        """Tuples with sequence number greater than ``seq`` (stream cursor)."""
        return [t for t in self._history if t.seq > seq]

    @property
    def newest_seq(self) -> int:
        """Sequence number of the newest stored tuple (0 when empty)."""
        return self._history[-1].seq if self._history else 0

    def __len__(self) -> int:
        return len(self._history)

    @property
    def resident_bytes(self) -> float:
        """Approximate heap held by stored tuples."""
        return len(self._history) * (self.table.row_bytes() + 64)

    # ---------------------------------------------------------------- purge
    def purge(self, as_of: Optional[float] = None) -> None:
        """Drop history older than the history retention and stale latest
        entries older than the latest retention, as of ``as_of`` (default:
        now)."""
        now = self.sim.now if as_of is None else as_of
        history_horizon = now - self.history_retention
        while self._history and self._history[0].insert_time < history_horizon:
            self._history.popleft()
            self.purged_count += 1
        latest_horizon = now - self.latest_retention
        stale = [k for k, t in self._latest.items() if t.insert_time < latest_horizon]
        for key in stale:
            del self._latest[key]
