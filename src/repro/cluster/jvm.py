"""A coarse JVM memory model: heap, native thread stacks, GC pauses, OOM.

Both middlewares in the paper die by running out of memory: "a single Narada
broker ... ran out of memory to create new threads to serve more incoming
connections" (§III.E.2) and "one R-GMA server cannot accept 800 concurrent
connections.  It ran out of memory to create new threads" (§III.F.1).  Both
used ``-Xmx1024m`` on 2 GB machines with thread-per-connection servers, so
the wall is a function of heap size, per-connection heap state and native
stack consumption.  This model reproduces those walls mechanistically:

* **heap** — explicit ``alloc``/``free`` with a high-water mark (the paper's
  "memory consumption = peak - bottom" metric is read off this);
* **native stacks** — each spawned thread charges a fixed stack against a
  native budget; exhaustion raises :class:`OutOfMemoryError` with the
  classic "unable to create new native thread" message;
* **GC** — allocation volume triggers minor collections whose stop-the-world
  pauses seize the node CPU, producing the latency tail visible in the
  paper's 99–100th percentile plots; a failed allocation triggers a full
  collection before giving up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.cluster.node import Node
    from repro.sim.process import Process

MiB = 1024 * 1024


class OutOfMemoryError(Exception):
    """java.lang.OutOfMemoryError equivalent."""

    def __init__(self, message: str, jvm_name: str = ""):
        super().__init__(message)
        self.jvm_name = jvm_name


class Jvm:
    """One JVM process hosted on a :class:`~repro.cluster.node.Node`.

    Parameters
    ----------
    heap_bytes:
        ``-Xmx`` (paper: 1 GiB for both middlewares).
    thread_stack_bytes:
        Native stack per thread (JVM 1.4-era default, 256 KiB).
    native_budget_bytes:
        Address space available for thread stacks beyond the heap.
    young_gen_bytes:
        Allocation volume between minor collections.
    gc_minor_base / gc_minor_per_live:
        Minor pause = base + per_live × (live heap fraction).
    gc_full_base / gc_full_per_live:
        Same for full (allocation-failure) collections.
    """

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        name: str,
        heap_bytes: float = 1024 * MiB,
        thread_stack_bytes: float = 256 * 1024,
        native_budget_bytes: float = 900 * MiB,
        base_overhead_bytes: float = 24 * MiB,
        young_gen_bytes: float = 32 * MiB,
        gc_minor_base: float = 0.004,
        gc_minor_per_live: float = 0.050,
        gc_full_base: float = 0.150,
        gc_full_per_live: float = 0.800,
    ):
        self.sim = sim
        self.node = node
        self.name = name
        self.heap_bytes = heap_bytes
        self.thread_stack_bytes = thread_stack_bytes
        self.native_budget_bytes = native_budget_bytes
        self.base_overhead_bytes = base_overhead_bytes
        self.young_gen_bytes = young_gen_bytes
        self.gc_minor_base = gc_minor_base
        self.gc_minor_per_live = gc_minor_per_live
        self.gc_full_base = gc_full_base
        self.gc_full_per_live = gc_full_per_live

        self.heap_used = 0.0
        self.heap_high_water = 0.0
        self.thread_count = 0
        self.threads_peak = 0
        self._allocated_since_gc = 0.0
        self.minor_gcs = 0
        self.full_gcs = 0
        self.dead = False
        node.attach_jvm(self)

    # --------------------------------------------------------------- memory
    @property
    def committed_bytes(self) -> float:
        """Process-resident memory as ``vmstat`` would see it."""
        return (
            self.base_overhead_bytes
            + self.heap_high_water
            + self.thread_count * self.thread_stack_bytes
        )

    @property
    def live_fraction(self) -> float:
        return self.heap_used / self.heap_bytes if self.heap_bytes else 1.0

    def alloc(self, nbytes: float, reason: str = "") -> None:
        """Allocate heap; may schedule a GC pause; raises on exhaustion."""
        if self.dead:
            raise OutOfMemoryError(f"JVM {self.name} already dead", self.name)
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self.heap_used + nbytes > self.heap_bytes:
            # Allocation failure: full stop-the-world collection.  Our
            # explicit alloc/free accounting has no floating garbage, so a
            # full GC cannot reclaim anything extra — the JVM is out of
            # memory for real, exactly like the saturated brokers in §III.
            self.full_gcs += 1
            self._pause(self.gc_full_base + self.gc_full_per_live * self.live_fraction)
            self.dead = True
            raise OutOfMemoryError(
                f"Java heap space ({reason or 'alloc'} of {nbytes:.0f} B, "
                f"used {self.heap_used:.0f}/{self.heap_bytes:.0f})",
                self.name,
            )
        self.heap_used += nbytes
        self.heap_high_water = max(self.heap_high_water, self.heap_used)
        self._allocated_since_gc += nbytes
        if self._allocated_since_gc >= self.young_gen_bytes:
            self._allocated_since_gc = 0.0
            self.minor_gcs += 1
            self._pause(
                self.gc_minor_base + self.gc_minor_per_live * self.live_fraction
            )

    def free(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        self.heap_used = max(0.0, self.heap_used - nbytes)

    def _pause(self, duration: float) -> None:
        """Stop-the-world: seize the node CPU for ``duration`` seconds."""
        self.node.execute_process(duration)

    # -------------------------------------------------------------- threads
    def spawn_thread(
        self, generator: Generator[Any, Any, Any], name: Optional[str] = None
    ) -> "Process":
        """Create a thread (process) charging one native stack.

        Raises :class:`OutOfMemoryError` when the native budget is exhausted —
        the exact failure mode behind both middlewares' connection walls.
        """
        if self.dead:
            raise OutOfMemoryError(f"JVM {self.name} already dead", self.name)
        needed = (self.thread_count + 1) * self.thread_stack_bytes
        if needed > self.native_budget_bytes:
            raise OutOfMemoryError(
                f"unable to create new native thread "
                f"(threads={self.thread_count}, stack={self.thread_stack_bytes:.0f} B)",
                self.name,
            )
        self.thread_count += 1
        self.threads_peak = max(self.threads_peak, self.thread_count)
        proc = self.sim.process(generator, name=name or f"{self.name}.thread")
        proc.add_callback(lambda _e: self._thread_exit())
        return proc

    def _thread_exit(self) -> None:
        self.thread_count -= 1

    @property
    def max_threads(self) -> int:
        """How many threads fit in the native budget."""
        return int(self.native_budget_bytes // self.thread_stack_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Jvm {self.name} heap={self.heap_used / MiB:.1f}/"
            f"{self.heap_bytes / MiB:.0f} MiB threads={self.thread_count}>"
        )
