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

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim import Interrupt, Resource

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
    cpu_scale:
        Relative CPU speed; ``1.0`` is the paper's PIII 866 MHz reference.
        A job of ``work`` seconds takes ``work / cpu_scale`` to execute.
    memory_bytes:
        Physical memory (paper: 2 GB).
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        cpu_scale: float = 1.0,
        memory_bytes: int = 2 * 1024**3,
    ):
        if cpu_scale <= 0:
            raise ValueError("cpu_scale must be positive")
        self.sim = sim
        self.name = name
        self.cpu_scale = cpu_scale
        self.memory_bytes = memory_bytes
        self._cpu = Resource(sim, capacity=1)
        #: Total CPU-busy seconds since simulation start (for vmstat).
        self.cpu_busy_time = 0.0
        #: JVMs running on this node (for memory accounting).
        self.jvms: list["Jvm"] = []

    # ------------------------------------------------------------------ CPU
    def execute(self, work: float) -> Generator[Any, Any, None]:
        """Process-style: occupy the CPU for ``work`` reference-seconds.

        Usage inside a process::

            yield from node.execute(0.0002)
        """
        if work < 0:
            raise ValueError("work must be >= 0")
        if work == 0.0:
            return
        cpu = self._cpu
        # An idle CPU is taken on the spot: queueing order is fixed at call
        # time either way, and waking up just to learn the CPU was free is a
        # heap round-trip that changes nothing.
        if not cpu.try_acquire():
            queued = cpu.acquire()
            try:
                yield queued
            except (Interrupt, GeneratorExit):
                # Killed in the run-queue: leave it — or, if release() had
                # already handed the unit over, pass it on — and never run.
                if queued.triggered:
                    cpu.release()
                else:
                    cpu.cancel(queued)
                raise
        try:
            duration = work / self.cpu_scale
            yield self.sim.timeout(duration)
            self.cpu_busy_time += duration
        finally:
            cpu.release()

    def execute_process(self, work: float):
        """``execute`` wrapped as a Process (for fire-and-forget CPU load)."""
        return self.sim.process(self.execute(work), name=f"{self.name}.cpu")

    @property
    def run_queue_length(self) -> int:
        """Jobs waiting for the CPU right now (excluding the running one)."""
        return len(self._cpu._waiters)

    @property
    def cpu_in_use(self) -> bool:
        return self._cpu.in_use > 0

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
