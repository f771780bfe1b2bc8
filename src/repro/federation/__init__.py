"""Hierarchical broker federation with topic-aware routing.

The fix for the paper's headline NaradaBrokering deficiency — "data were
broadcast and not diverged to different routes" (§III.E.2) — following the
hierarchical pub/sub monitoring architecture of Zuzak et al.
(arXiv:1209.4485): brokers form a tree; subscriptions propagate *up* as
covering routing-table entries (one per child-subtree × topic); events
climb to the root and descend only links with downstream subscribers.

Layout:

* :mod:`~repro.federation.topology` — tree shape;
* :mod:`~repro.federation.routing` — per-broker covering routing tables;
* :mod:`~repro.federation.broker` — the federated broker (wire protocol,
  CPU/heap charges, telemetry hop marks);
* :mod:`~repro.federation.deployment` — tree wiring
  (:class:`FederationDeployment`), the broadcast-DBN star behind the same
  surface (:class:`BroadcastDeployment`), per-link traffic ledger, and the
  publisher/subscriber clients that run against either;
* :mod:`~repro.federation.controller` — membership + parent failover,
  built on the plog :class:`~repro.plog.replication.MembershipController`.
"""

from repro.federation.broker import FederatedBroker, FederationBrokerStats
from repro.federation.controller import FederationController
from repro.federation.deployment import (
    FEDERATION_PORT,
    BroadcastDeployment,
    FederationDeployment,
    FederationSitePublishers,
    FederationSubscriber,
    SiteDeployment,
    site_topic,
)
from repro.federation.routing import RoutingTable
from repro.federation.topology import TreeTopology, broker_name

__all__ = [
    "FEDERATION_PORT",
    "BroadcastDeployment",
    "FederatedBroker",
    "FederationBrokerStats",
    "FederationController",
    "FederationDeployment",
    "FederationSitePublishers",
    "FederationSubscriber",
    "RoutingTable",
    "SiteDeployment",
    "TreeTopology",
    "broker_name",
    "site_topic",
]
