"""Federation membership and parent failover.

Reuses the plog control plane's :class:`~repro.plog.replication.MembershipController`
— the same deterministic periodic liveness scan that drives partition
leader election drives tree re-parenting here:

* **parent crash** — each live child of the dead broker re-attaches to its
  nearest live ancestor (walking the topology towards the root), in child
  index order.  ``connect_to_parent`` re-advertises the child's aggregated
  subtree interest, so routing re-converges with one ``fsub`` per topic per
  rewired link;
* **broker return** — the returnee re-attaches to its topology parent
  (its table is empty: a crash loses in-memory state) and its original
  children are rewired back underneath it, restoring the configured tree.
  Rewiring closes the interim uplink, whose EOF withdraws the covering
  entries the interim parent held.

A root crash leaves the tree headless until the root returns — the
children keep serving their subtrees locally (degraded mode) rather than
electing a new root, mirroring the paper's observation that the v1.1.3
DBN had no recovery story at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.plog.replication import MembershipController

if TYPE_CHECKING:  # pragma: no cover
    from repro.federation.broker import FederatedBroker
    from repro.federation.deployment import FederationDeployment
    from repro.sim.kernel import Simulator

#: Default liveness-scan period (seconds) — matches the plog default order
#: of magnitude so chaos windows compare across subsystems.
DETECT_INTERVAL = 1.0


class FederationController(MembershipController):
    """Tree membership: failure detection, re-parenting, restore."""

    monitor_name = "federation.controller"

    def __init__(
        self,
        sim: "Simulator",
        deployment: "FederationDeployment",
        detect_interval: float = DETECT_INTERVAL,
    ):
        super().__init__(sim)
        self.deployment = deployment
        self.detect_interval = detect_interval
        self.reparents = 0
        self.restores = 0
        #: (time, child, new_parent) — the determinism witness.
        self.reparent_log: list[tuple[float, str, str]] = []

    def start(self) -> None:
        self._start_monitor()

    def _members(self) -> list["FederatedBroker"]:
        return self.deployment.brokers

    @property
    def _detect_interval(self) -> float:
        return self.detect_interval

    # ----------------------------------------------------------- transitions
    def _live_ancestor(self, name: str) -> Optional[str]:
        """Nearest ancestor of ``name`` that is up, or None."""
        topology = self.deployment.topology
        parent = topology.parent(name)
        while parent is not None:
            if self._broker_up(self.deployment.broker(parent)):
                return parent
            parent = topology.parent(parent)
        return None

    def _on_broker_failure(self, broker: "FederatedBroker") -> None:
        fallback = self._live_ancestor(broker.name)
        if fallback is None:
            return  # root (or whole ancestor chain) down: wait for return
        children = [
            child
            for child in self.deployment.topology.children(broker.name)
            if self._broker_up(self.deployment.broker(child))
        ]
        if not children:
            return
        self.sim.process(
            self._rewire(children, fallback), name="federation.reparent"
        )

    def _on_broker_return(self, broker: "FederatedBroker") -> None:
        topology = self.deployment.topology
        moves: list[tuple[str, str]] = []
        parent = topology.parent(broker.name)
        if parent is not None and self._broker_up(self.deployment.broker(parent)):
            moves.append((broker.name, parent))
        for child in topology.children(broker.name):
            if self._broker_up(self.deployment.broker(child)):
                moves.append((child, broker.name))
        if moves:
            self.restores += 1
            self.sim.process(
                self._rewire_moves(moves), name="federation.restore"
            )

    # -------------------------------------------------------------- rewiring
    def _rewire(
        self, children: list[str], new_parent: str
    ) -> Generator[Any, Any, None]:
        yield from self._rewire_moves([(child, new_parent) for child in children])

    def _rewire_moves(
        self, moves: list[tuple[str, str]]
    ) -> Generator[Any, Any, None]:
        """Re-attach ``(child, parent)`` pairs sequentially — one process,
        fixed order, so recovery is deterministic under a fixed seed."""
        for child_name, parent_name in moves:
            child = self.deployment.broker(child_name)
            parent = self.deployment.broker(parent_name)
            if not self._broker_up(child) or not self._broker_up(parent):
                continue
            yield from child.connect_to_parent(self.deployment.transport, parent)
            self.reparents += 1
            self.reparent_log.append((self.sim.now, child_name, parent_name))
