"""Broker-tree topology: the shape of the federation overlay.

The hierarchical monitoring architecture of Zuzak et al. (arXiv:1209.4485)
arranges brokers in a tree: leaves sit next to the monitored sites, interior
brokers aggregate, the root is the control-room tier.  A
:class:`TreeTopology` is pure data — broker names, parent/child links and
depth arithmetic — with no simulation state, so routing tables and tests
can reason about the shape without building a deployment.

Brokers are named ``fed0`` (the root), ``fed1`` .. ``fedN-1`` in
breadth-first order: broker ``i``'s parent is ``(i - 1) // fanout``, which
makes membership changes (and their recovery paths) deterministic functions
of the index alone.
"""

from __future__ import annotations

from typing import Iterator, Optional


def broker_name(index: int) -> str:
    return f"fed{index}"


class TreeTopology:
    """A complete ``fanout``-ary tree over ``broker_count`` brokers.

    The tree need not be full at the last level: any ``broker_count >= 1``
    yields a valid left-packed tree (heap layout).
    """

    def __init__(self, broker_count: int, fanout: int = 2):
        if broker_count < 1:
            raise ValueError("broker_count must be >= 1")
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.broker_count = broker_count
        self.fanout = fanout
        self.names: tuple[str, ...] = tuple(
            broker_name(i) for i in range(broker_count)
        )
        self._index = {name: i for i, name in enumerate(self.names)}

    # ------------------------------------------------------------ structure
    @property
    def root(self) -> str:
        return self.names[0]

    def index(self, name: str) -> int:
        return self._index[name]

    def parent(self, name: str) -> Optional[str]:
        """Parent broker name, or ``None`` for the root."""
        i = self._index[name]
        if i == 0:
            return None
        return self.names[(i - 1) // self.fanout]

    def grandparent(self, name: str) -> Optional[str]:
        parent = self.parent(name)
        return None if parent is None else self.parent(parent)

    def children(self, name: str) -> tuple[str, ...]:
        i = self._index[name]
        lo = i * self.fanout + 1
        hi = min(lo + self.fanout, self.broker_count)
        return self.names[lo:hi] if lo < self.broker_count else ()

    def is_leaf(self, name: str) -> bool:
        return not self.children(name)

    def leaves(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if self.is_leaf(n))

    def depth_of(self, name: str) -> int:
        """Root is depth 0."""
        i = self._index[name]
        depth = 0
        while i > 0:
            i = (i - 1) // self.fanout
            depth += 1
        return depth

    @property
    def depth(self) -> int:
        """Levels in the tree (a lone root is depth 1)."""
        return self.depth_of(self.names[-1]) + 1

    def links(self) -> Iterator[tuple[str, str]]:
        """Every (parent, child) tree link, in child-index order."""
        for name in self.names[1:]:
            parent = self.parent(name)
            assert parent is not None
            yield (parent, name)

    @property
    def link_count(self) -> int:
        return self.broker_count - 1

    def path_to_root(self, name: str) -> tuple[str, ...]:
        """Brokers from ``name`` (inclusive) up to the root (inclusive)."""
        path = [name]
        parent = self.parent(name)
        while parent is not None:
            path.append(parent)
            parent = self.parent(parent)
        return tuple(path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TreeTopology n={self.broker_count} fanout={self.fanout} "
            f"depth={self.depth}>"
        )
