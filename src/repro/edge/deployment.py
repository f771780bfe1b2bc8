"""Edge-tier deployment: gateways on their own cluster nodes.

The gateway tier fronts whichever middleware deployment the experiment
built; this module only owns the tier shape — one gateway per ``gw<i>``
node, all serving the same topic set on the same port — plus the address
book clients poll and the fault-injection attachment surface (gateways
duck-type brokers, so ``FaultScheduler.attach(brokers=tier.gateways)``
arms ``broker_crash`` windows against them).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.edge.config import EdgeConfig
from repro.edge.gateway import EDGE_PORT, EdgeGateway

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


def gateway_node_names(n_gateways: int) -> tuple[str, ...]:
    """Cluster node names the tier expects (``gw0`` .. ``gw<n-1>``)."""
    return tuple(f"gw{i}" for i in range(n_gateways))


class EdgeTier:
    """All gateways of one run, plus their client-facing address book."""

    def __init__(
        self,
        sim: "Simulator",
        cluster: Any,
        transport: Any,
        subscribe: Any,
        n_gateways: int,
        topics: tuple[str, ...],
        config: Optional[EdgeConfig] = None,
        port: int = EDGE_PORT,
    ):
        self.sim = sim
        self.config = config or EdgeConfig()
        self.gateways = [
            EdgeGateway(
                sim,
                cluster.node(name),
                f"edge-{name}",
                subscribe,
                topics,
                config=self.config,
                port=port,
                transport=transport,
            )
            for name in gateway_node_names(n_gateways)
        ]
        self.port = port

    def start(self) -> None:
        for gateway in self.gateways:
            gateway.start()

    @property
    def addresses(self) -> list[tuple[str, int]]:
        return [(gateway.node.name, gateway.port) for gateway in self.gateways]

    def total_upstream_connections(self) -> int:
        return sum(gateway.upstream_connections for gateway in self.gateways)

    def total_parked_weight(self) -> float:
        return sum(gateway.parked_weight for gateway in self.gateways)
