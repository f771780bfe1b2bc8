"""Periodic CPU-idle and memory probes — the paper's Figs 6/13 methodology.

"CPU idle time ... calculated as the average of CPU idle time during the
tests" and "memory consumption ... as the difference between peak and
bottom values" (§III.C).  :class:`ResourceSampler` reproduces both, like
:class:`repro.cluster.vmstat.VmStat`, but feeds the telemetry registry so
one session sees every deployment's resources side by side.

Samplers are strictly passive: they read node and resource state, never
draw from an RNG stream and never mutate anything the workload touches —
so even a telemetry-*enabled* run measures the same numbers as a disabled
one (the extra timer events cannot reorder independently-scheduled events:
the kernel breaks time ties by scheduling sequence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.cluster.vmstat import VmStatSummary

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.sim.kernel import Simulator
    from repro.telemetry.metrics import MetricsRegistry


@dataclass
class ResourceSample:
    """One probe of a node."""

    time: float
    cpu_idle_fraction: float
    memory_used_bytes: float


class ResourceSampler:
    """Samples one node at a fixed interval."""

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        registry: Optional["MetricsRegistry"] = None,
        middleware: str = "",
        interval: float = 1.0,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.node = node
        self.registry = registry
        self.middleware = middleware or "cluster"
        self.interval = interval
        self.samples: list[ResourceSample] = []
        self._last_busy = node.cpu_busy_time
        self._running = True
        sim.process(self._sampler(), name=f"telemetry.sampler.{node.name}")

    def stop(self) -> None:
        self._running = False

    def _sampler(self) -> Generator[Any, Any, None]:
        while self._running:
            yield self.sim.timeout(self.interval)
            busy = self.node.cpu_busy_time
            busy_delta = busy - self._last_busy
            self._last_busy = busy
            idle = max(0.0, 1.0 - busy_delta / self.interval)
            memory = self.node.memory_used_bytes
            self.samples.append(
                ResourceSample(
                    time=self.sim.now,
                    cpu_idle_fraction=idle,
                    memory_used_bytes=memory,
                )
            )
            if self.registry is not None:
                component = self.node.name
                self.registry.gauge(
                    self.middleware, component, "cpu_idle_percent"
                ).set(idle * 100.0)
                self.registry.gauge(
                    self.middleware, component, "memory_used_bytes"
                ).set(memory)

    def summary(self, warmup: float = 0.0) -> VmStatSummary:
        """The paper's two per-node numbers, over samples past ``warmup``."""
        used = [s for s in self.samples if s.time >= warmup]
        if not used:
            return VmStatSummary(100.0, 0.0, 0)
        mean_idle = 100.0 * sum(s.cpu_idle_fraction for s in used) / len(used)
        mems = [s.memory_used_bytes for s in used]
        return VmStatSummary(
            mean_cpu_idle_percent=mean_idle,
            memory_consumption_bytes=max(mems) - min(mems),
            samples=len(used),
        )
