"""The Hydra testbed (paper Table I) as a ready-made cluster factory.

Eight identical nodes, Pentium III 866 MHz, 2 GB RAM, Scientific Linux with
kernel 2.4.21, Sun Hotspot JVM 1.4.2, interconnected by a 100 Mbps switch on
an isolated LAN with a measured application transfer rate of 7–8 Mbyte/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cluster.network import Lan
from repro.cluster.node import Node

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class HydraSpec:
    """Table I constants."""

    node_count: int = 8
    cpu: str = "Pentium III 866 MHz"
    memory_bytes: int = 2 * 1024**3
    os: str = "Scientific Linux, kernel 2.4.21"
    jvm: str = "Sun Hotspot JVM 1.4.2"
    lan_bandwidth_bps: float = 100e6
    #: Observed end-to-end application transfer rate (paper: 7-8 MB/s).
    observed_transfer_rate_bytes: tuple[float, float] = (7e6, 8e6)
    middleware: str = "NaradaBrokering v1.1.3, R-GMA gLite v3.0, Tomcat v5.0.28"


HYDRA_SPEC = HydraSpec()


class HydraCluster:
    """Table I nodes on one isolated switch: ``hydra1..hydra8``, or the
    ``node_names`` a run lays out (a federation's brokers, an edge run's
    gateways and clients), created and attached in the order given."""

    def __init__(
        self,
        sim: "Simulator",
        node_names: Optional[Sequence[str]] = None,
        spec: HydraSpec = HYDRA_SPEC,
    ):
        self.sim = sim
        self.spec = spec
        self.lan = Lan(sim, bandwidth_bps=spec.lan_bandwidth_bps)
        self.nodes: dict[str, Node] = {}
        if node_names is None:
            node_names = [f"hydra{i}" for i in range(1, spec.node_count + 1)]
        for name in node_names:
            self.nodes[name] = Node(sim, name, memory_bytes=spec.memory_bytes)
            self.lan.attach(name)

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def node_names(self) -> list[str]:
        return list(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)
