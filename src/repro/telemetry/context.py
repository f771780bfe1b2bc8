"""The active-telemetry slot.

Metric hook sites — and :meth:`repro.core.records.MessageRecord.mark`,
which stamps phases on the record whether a session is active or not and
bumps a phase counter only when one is — import :func:`current` from
*this* module only.  It is deliberately free of numpy and of the rest of
the telemetry package, so the guard ``tel = current()`` adds one module
attribute read and a ``None`` check to hot paths when telemetry is off.
Off is the default: nothing in the simulator ever activates a session;
only the harness (``--trace`` / ``--metrics-out``) or a test does, via
:func:`session`.

Sessions nest as a stack: a session a test or library caller opens
composes with one the CLI wraps around the whole run, and the innermost
one observes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

_stack: list["Telemetry"] = []


def current() -> Optional["Telemetry"]:
    """The innermost active :class:`~repro.telemetry.Telemetry`, or ``None``.

    This is the guard every instrumentation hook evaluates; ``None`` means
    telemetry is off and the hook must do nothing.
    """
    return _stack[-1] if _stack else None


def activate(telemetry: "Telemetry") -> None:
    """Push a session; prefer :func:`session` which guarantees the pop."""
    _stack.append(telemetry)


def deactivate(telemetry: "Telemetry") -> None:
    """Pop ``telemetry``; it must be the innermost active session."""
    if not _stack or _stack[-1] is not telemetry:
        raise RuntimeError("deactivate() of a session that is not innermost")
    _stack.pop()


@contextmanager
def session(telemetry: "Telemetry") -> Iterator["Telemetry"]:
    """Activate ``telemetry`` for the duration of the ``with`` block."""
    activate(telemetry)
    try:
        yield telemetry
    finally:
        deactivate(telemetry)
