"""``vmstat`` emulation: periodic CPU-idle and memory sampling.

The paper records "CPU idle time ... calculated as the average of CPU idle
time during the tests" and "memory consumption ... as the difference between
peak and bottom values" (§III.C).  This sampler reproduces both definitions
against the modelled node.  It is the only node sampler: a run keeps each
sampled node's raw samples as :class:`NodeSamples` on its result, and a
telemetry session reads them there instead of sampling the node a second
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.cluster.node import Node


@dataclass
class VmStatSample:
    time: float
    cpu_idle_fraction: float
    memory_used_bytes: float


@dataclass
class NodeSamples:
    """One run's vmstat samples of one node, as plain picklable data."""

    node: str
    #: The middleware label the node reports under.
    middleware: str
    samples: list[VmStatSample]


@dataclass
class VmStatSummary:
    """The two numbers the paper reports per node (Figs. 6 and 13)."""

    mean_cpu_idle_percent: float
    memory_consumption_bytes: float
    samples: int

    @property
    def memory_consumption_mb(self) -> float:
        return self.memory_consumption_bytes / (1024 * 1024)


class VmStat:
    """Samples a node at a fixed interval while the simulation runs."""

    def __init__(self, sim: "Simulator", node: "Node", interval: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.node = node
        self.interval = interval
        self.samples: list[VmStatSample] = []
        self._last_busy = node.cpu_busy_time
        self._running = True
        sim.process(self._sampler(), name=f"vmstat.{node.name}")

    def stop(self) -> None:
        self._running = False

    def _sampler(self) -> Generator[Any, Any, None]:
        while self._running:
            yield self.sim.timeout(self.interval)
            busy = self.node.cpu_busy_time
            busy_delta = busy - self._last_busy
            self._last_busy = busy
            idle = max(0.0, 1.0 - busy_delta / self.interval)
            self.samples.append(
                VmStatSample(
                    time=self.sim.now,
                    cpu_idle_fraction=idle,
                    memory_used_bytes=self.node.memory_used_bytes,
                )
            )

    def summary(self, warmup: float = 0.0) -> VmStatSummary:
        """Aggregate samples taken after ``warmup`` seconds of sim time."""
        return summarize(self.samples, warmup)


def summarize(
    samples: Iterable[VmStatSample], warmup: float = 0.0
) -> VmStatSummary:
    """The paper's two per-node numbers over ``samples`` taken at or after
    ``warmup``: mean CPU idle and memory peak minus bottom."""
    used = [s for s in samples if s.time >= warmup]
    if not used:
        return VmStatSummary(100.0, 0.0, 0)
    mean_idle = 100.0 * sum(s.cpu_idle_fraction for s in used) / len(used)
    mems = [s.memory_used_bytes for s in used]
    return VmStatSummary(
        mean_cpu_idle_percent=mean_idle,
        memory_consumption_bytes=max(mems) - min(mems),
        samples=len(used),
    )


def steady_state_summary(
    samples: Sequence[VmStatSample], since: float
) -> VmStatSummary:
    """A run's node summary as Figs 6/13 report it: CPU idle over the
    steady-state window opening at ``since``; memory consumption (peak −
    bottom, the paper's definition) over the whole run — connection setup
    is where most memory is committed."""
    cpu = summarize(samples, warmup=since)
    mem = summarize(samples)
    return VmStatSummary(
        mean_cpu_idle_percent=cpu.mean_cpu_idle_percent,
        memory_consumption_bytes=mem.memory_consumption_bytes,
        samples=cpu.samples,
    )
