"""Discrete-event simulation kernel.

A small, deterministic, SimPy-flavoured kernel: coroutine processes drive
simulated time through an event heap.  Everything in :mod:`repro` that has a
notion of time — network links, broker threads, JVM garbage collection,
publishing generators — is a :class:`~repro.sim.process.Process` running on a
single :class:`~repro.sim.kernel.Simulator`.

The kernel is intentionally self-contained (no third-party dependency) so that
the middleware models above it are portable and the whole simulation is
bit-reproducible from a seed.
"""

from repro.sim.cohort import CohortProcess
from repro.sim.events import AnyOf, Cancelled, Event, TimedOut, Timeout
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngStreams

__all__ = [
    "AnyOf",
    "Cancelled",
    "CohortProcess",
    "Event",
    "Process",
    "Resource",
    "RngStreams",
    "Simulator",
    "Store",
    "TimedOut",
    "Timeout",
]
