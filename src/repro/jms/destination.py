"""JMS destinations.

"Data are discovered by destination.  There are two kinds of destinations:
queue and topic" (paper §II.B).  Topics fan a message out to every matching
subscriber (publish/subscribe); queues hand each message to exactly one
receiver (point-to-point).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Destination:
    """Base class: a named delivery target."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("destination name must be non-empty")


@dataclass(frozen=True)
class Topic(Destination):
    """Publish/subscribe destination: all matching subscribers receive."""


@dataclass(frozen=True)
class Queue(Destination):
    """Point-to-point destination: exactly one receiver per message."""
