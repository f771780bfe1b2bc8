"""The server contract, once, for every broker built on
:class:`repro.cluster.server.JvmServer`: accept / refuse / release / crash /
restart behave the same under Narada, the federation tree and the plog."""

import pytest

from repro.cluster import HydraCluster
from repro.cluster.server import JvmServer
from repro.federation import FederatedBroker
from repro.narada import Broker, NaradaConfig
from repro.plog import PlogBroker, PlogConfig
from repro.sim import Simulator
from repro.transport import ChannelClosed, TcpTransport

PORT = 7000

SERVERS = [
    pytest.param(Broker, NaradaConfig, id="narada"),
    pytest.param(FederatedBroker, NaradaConfig, id="federation"),
    pytest.param(PlogBroker, PlogConfig, id="plog"),
]


def build(server_cls, config):
    sim = Simulator(seed=3)
    cluster = HydraCluster(sim)
    transport = TcpTransport(sim, cluster.lan)
    server = server_cls(sim, cluster.node("hydra1"), "srv", config)
    server.serve(transport, PORT)
    return sim, cluster, transport, server


def connect(sim, cluster, transport, n=1):
    """Open ``n`` client connections from hydra2; refused ones are None."""
    channels = []

    def go():
        for _ in range(n):
            try:
                channel = yield from transport.connect(
                    cluster.node("hydra2"), "hydra1", PORT
                )
            except ChannelClosed:
                channel = None
            channels.append(channel)

    sim.run_process(go())
    return channels


@pytest.mark.parametrize("server_cls, config_cls", SERVERS)
def test_is_a_jvm_server_and_records_its_port(server_cls, config_cls):
    _, _, _, server = build(server_cls, config_cls())
    assert isinstance(server, JvmServer)
    assert server.port == PORT


@pytest.mark.parametrize("server_cls, config_cls", SERVERS)
def test_connect_while_down_is_refused_and_counted(server_cls, config_cls):
    sim, cluster, transport, server = build(server_cls, config_cls())
    server.crash()
    assert connect(sim, cluster, transport) == [None]
    assert server.stats.connections_refused == 1
    assert server.stats.connections_accepted == 0
    assert server.open_connections == 0


@pytest.mark.parametrize("server_cls, config_cls", SERVERS)
def test_heap_exhausting_accept_is_a_counted_refusal(server_cls, config_cls):
    per_connection = config_cls().per_connection_heap
    config = config_cls(heap_bytes=2.5 * per_connection)
    sim, cluster, transport, server = build(server_cls, config)
    channels = connect(sim, cluster, transport, n=3)
    assert [c is not None for c in channels] == [True, True, False]
    assert server.stats.connections_accepted == 2
    assert server.stats.connections_refused == 1
    assert server.open_connections == 2


@pytest.mark.parametrize("server_cls, config_cls", SERVERS)
def test_clients_that_close_release_everything(server_cls, config_cls):
    sim, cluster, transport, server = build(server_cls, config_cls())
    heap_before = server.jvm.heap_used
    channels = connect(sim, cluster, transport, n=5)
    assert server.open_connections == 5
    assert len(server._client_channels) == 5
    assert server.jvm.heap_used > heap_before
    for channel in channels:
        channel.close()
    sim.run(until=sim.now + 1.0)
    assert server.open_connections == 0
    assert server._client_channels == []
    assert server.jvm.heap_used == heap_before


@pytest.mark.parametrize("server_cls, config_cls", SERVERS)
def test_crash_severs_every_client_and_is_idempotent(server_cls, config_cls):
    sim, cluster, transport, server = build(server_cls, config_cls())
    channels = connect(sim, cluster, transport, n=4)
    server.crash()
    server.crash()
    assert server.crashes == 1
    assert not server.alive
    assert all(channel.closed for channel in channels)
    assert server._client_channels == []


@pytest.mark.parametrize("server_cls, config_cls", SERVERS)
def test_restart_accepts_connections_again(server_cls, config_cls):
    sim, cluster, transport, server = build(server_cls, config_cls())
    connect(sim, cluster, transport, n=2)
    server.crash()
    sim.run(until=sim.now + 1.0)
    server.restart()
    server.restart()
    assert server.restarts == 1
    assert server.alive
    (channel,) = connect(sim, cluster, transport)
    assert channel is not None and not channel.closed
    sim.run(until=sim.now + 1.0)
    # the pre-crash connections were released through the EOF path, by the
    # dying threads or by the restarted pool draining stale EOFs
    assert server.open_connections == 1
    assert server._client_channels == [channel.peer]
