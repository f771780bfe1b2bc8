"""A compute node: one CPU with a FIFO run-queue and a memory budget.

The paper's testbed nodes are single-socket Pentium III machines, so the CPU
is modelled as a single non-preemptive server.  Work is expressed in seconds
of CPU time on that reference machine; queueing at the CPU is what produces
the "smooth increase of round-trip time according to the number of concurrent
connections" the paper observes (Fig. 7): more connections → more messages
per second → higher utilisation → longer run-queue waits.

The node also tracks busy time so :class:`repro.cluster.vmstat.VmStat` can
report CPU idle exactly the way the paper's ``vmstat`` runs did.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator

from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.cluster.jvm import Jvm


class Node:
    """A simulated cluster node.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Node name (e.g. ``"hydra1"``).
    memory_bytes:
        Physical memory (paper: 2 GB).
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        memory_bytes: int = 2 * 1024**3,
    ):
        self.sim = sim
        self.name = name
        self.memory_bytes = memory_bytes
        #: True while a job is in service.
        self._busy = False
        #: Queued jobs, FIFO: (completion event, work).
        self._run_queue: deque[tuple[Event, float]] = deque()
        #: Total CPU-busy seconds since simulation start (for vmstat).
        self.cpu_busy_time = 0.0
        #: JVMs running on this node (for memory accounting).
        self.jvms: list["Jvm"] = []

    # ------------------------------------------------------------------ CPU
    def execute(self, work: float) -> Generator[Any, Any, None]:
        """Process-style: occupy the CPU for ``work`` seconds (of the paper's
        PIII 866 MHz reference node).

        Usage inside a process::

            yield from node.execute(0.0002)
        """
        if work < 0:
            raise ValueError("work must be >= 0")
        if work == 0.0:
            return
        if not self._busy:
            # An idle CPU is taken on the spot: queueing order is fixed at
            # call time either way.
            self._busy = True
            try:
                yield self.sim.timeout(work)
            except BaseException:
                self._serve_next()
                raise
        else:
            # The CPU starts this job itself when the one ahead of it ends
            # (``_serve_next``): the completion event fires at the end of
            # service.
            job = Event(self.sim)
            entry = (job, work)
            self._run_queue.append(entry)
            try:
                yield job
            except BaseException:
                # Killed in the run-queue: withdraw and never run.  Killed
                # in service: pass the CPU on at this instant.
                if job.triggered:
                    self._serve_next()
                else:
                    self._run_queue.remove(entry)
                raise
        self.cpu_busy_time += work
        if self._run_queue:
            self._serve_next()
        else:
            self._busy = False

    def _serve_next(self) -> None:
        """The job in service ended or was killed: start the next queued
        one now.  Its completion is its only heap entry."""
        if self._run_queue:
            job, work = self._run_queue.popleft()
            job.succeed(delay=work)
        else:
            self._busy = False

    def execute_process(self, work: float):
        """``execute`` wrapped as a Process (for fire-and-forget CPU load)."""
        return self.sim.process(self.execute(work), name=f"{self.name}.cpu")

    @property
    def run_queue_length(self) -> int:
        """Jobs waiting for the CPU right now (excluding the running one)."""
        return len(self._run_queue)

    @property
    def cpu_in_use(self) -> bool:
        return self._busy

    # --------------------------------------------------------------- memory
    @property
    def memory_used_bytes(self) -> float:
        """Committed memory across all JVMs on this node."""
        return sum(jvm.committed_bytes for jvm in self.jvms)

    @property
    def memory_free_bytes(self) -> float:
        return self.memory_bytes - self.memory_used_bytes

    def attach_jvm(self, jvm: "Jvm") -> None:
        self.jvms.append(jvm)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} busy={self.cpu_busy_time:.3f}s>"
