"""R-GMA failure injection: bad requests, OOM servlets, retention purges."""

import pytest

from repro.cluster import HydraCluster
from repro.rgma import RGMAConfig, RGMADeployment
from repro.sim import Simulator
from repro.transport.http import HttpClient


def single(config=None, seed=51):
    sim = Simulator(seed=seed)
    cluster = HydraCluster(sim)
    deployment = RGMADeployment.single_server(sim, cluster, config)
    return sim, cluster, deployment


def http(sim, cluster, deployment, node="hydra5"):
    return HttpClient(
        sim, deployment.transport, cluster.node(node), "hydra1", 8080
    )


def request(sim, client, path, body, nbytes=200):
    def go():
        response = yield from client.request(path, body, nbytes)
        return response

    return sim.run_process(go())


def test_unknown_servlet_404():
    sim, cluster, deployment = single()
    client = http(sim, cluster, deployment)
    response = request(sim, client, "/nope", {})
    assert response.status == 404


def test_insert_to_unknown_resource_500():
    sim, cluster, deployment = single()
    client = http(sim, cluster, deployment)
    response = request(
        sim, client, "/pp/insert",
        {"resource_id": "ghost", "sql": "INSERT INTO gridmon (genid) VALUES (1)"},
    )
    assert response.status == 500
    assert "no such producer" in response.body["error"]


def test_malformed_sql_500_not_crash():
    sim, cluster, deployment = single()
    client = http(sim, cluster, deployment)
    create = request(sim, client, "/pp/create", {"table": "gridmon"})
    rid = create.body["resource_id"]
    response = request(
        sim, client, "/pp/insert", {"resource_id": rid, "sql": "DELETE FROM x"}
    )
    assert response.status == 500
    # The container survives and keeps serving.
    ok = request(
        sim, client, "/pp/insert",
        {"resource_id": rid, "sql": "INSERT INTO gridmon (genid) VALUES (7)"},
    )
    assert ok.status == 200


def test_insert_violating_schema_500():
    sim, cluster, deployment = single()
    client = http(sim, cluster, deployment)
    create = request(sim, client, "/pp/create", {"table": "gridmon"})
    rid = create.body["resource_id"]
    response = request(
        sim, client, "/pp/insert",
        {"resource_id": rid, "sql": "INSERT INTO gridmon (genid) VALUES ('x')"},
    )
    assert response.status == 500


def test_create_for_unknown_table_500():
    sim, cluster, deployment = single()
    client = http(sim, cluster, deployment)
    response = request(sim, client, "/pp/create", {"table": "nonexistent"})
    assert response.status == 500


def test_consumer_with_bad_query_500():
    sim, cluster, deployment = single()
    client = http(sim, cluster, deployment)
    response = request(
        sim, client, "/consumer/create", {"sql": "SELECT * FROM nonexistent"}
    )
    assert response.status == 500


def test_oom_server_returns_503_until_dead():
    """Once producer heap exhausts the JVM, creates fail with 503/closed."""
    config = RGMAConfig(per_producer_heap=400 * 1024 * 1024)  # 2 fit in 1 GiB
    sim, cluster, deployment = single(config)
    client = http(sim, cluster, deployment)
    statuses = []
    for _ in range(4):
        try:
            response = request(sim, client, "/pp/create", {"table": "gridmon"})
            statuses.append(response.status)
        except Exception:
            statuses.append("refused")
    assert statuses[0] == 200
    assert any(s in (503, "refused") for s in statuses[1:])


def test_connector_limit_refuses_new_connections():
    config = RGMAConfig(max_connections=3)
    sim, cluster, deployment = single(config)
    outcomes = []
    for i in range(6):
        client = HttpClient(
            sim, deployment.transport, cluster.node("hydra5"), "hydra1", 8080
        )
        try:
            response = request(sim, client, "/pp/create", {"table": "gridmon"})
            outcomes.append(response.status)
        except Exception:
            outcomes.append("refused")
    assert outcomes.count(200) == 3
    assert outcomes.count("refused") == 3
    site = deployment.sites[0]
    assert site.container.connections_refused == 3


def test_retention_purges_old_tuples_from_history_query():
    sim, cluster, deployment = single()
    client = http(sim, cluster, deployment)
    create = request(sim, client, "/pp/create", {"table": "gridmon"})
    rid = create.body["resource_id"]
    request(
        sim, client, "/pp/insert",
        {"resource_id": rid, "sql": "INSERT INTO gridmon (genid) VALUES (1)"},
    )
    consumer = deployment.consumer_client(cluster.node("hydra6"))

    def query():
        tuples = yield from consumer.query_history("SELECT * FROM gridmon")
        return tuples

    assert len(sim.run_process(query())) == 1
    sim.run(until=sim.now + 61.0)  # past the 60 s history retention
    assert sim.run_process(query()) == []


def test_consumer_close_stops_streaming():
    sim, cluster, deployment = single()
    consumer = deployment.consumer_client(cluster.node("hydra6"))

    def run():
        yield from consumer.create("SELECT * FROM gridmon")
        yield from consumer.close()

    sim.run_process(run())
    site = deployment.sites[0]
    assert all(r.closed for r in site.consumers.values()) or not site.consumers


def legacy_single(seed=51):
    from repro.rgma.stream_producer import LegacyDeployment

    sim, cluster, deployment = single(seed=seed)
    LegacyDeployment(deployment)
    return sim, cluster, deployment


def test_legacy_insert_of_a_select_500_not_crash():
    sim, cluster, deployment = legacy_single()
    client = http(sim, cluster, deployment)
    rid = request(sim, client, "/sp_legacy/create", {"table": "gridmon"}).body[
        "resource_id"
    ]
    response = request(
        sim, client, "/sp_legacy/insert",
        {"resource_id": rid, "sql": "SELECT * FROM gridmon"},
    )
    assert response.status == 500
    assert "expected INSERT" in response.body["error"]


@pytest.mark.parametrize(
    "create, insert", [("/pp/create", "/pp/insert"),
                       ("/sp_legacy/create", "/sp_legacy/insert")]
)
def test_short_insert_without_columns_500(create, insert):
    """Too few values for the table's columns: refused, never truncated."""
    sim, cluster, deployment = legacy_single()
    client = http(sim, cluster, deployment)
    rid = request(sim, client, create, {"table": "gridmon"}).body["resource_id"]
    response = request(
        sim, client, insert,
        {"resource_id": rid, "sql": "INSERT INTO gridmon VALUES (1)"},
    )
    assert response.status == 500
    assert "count mismatch" in response.body["error"]


@pytest.mark.parametrize(
    "create, insert", [("/pp/create", "/pp/insert"),
                       ("/sp_legacy/create", "/sp_legacy/insert")]
)
@pytest.mark.parametrize("missing", ["sql", "resource_id"])
def test_insert_body_missing_a_field_500(create, insert, missing):
    sim, cluster, deployment = legacy_single()
    client = http(sim, cluster, deployment)
    rid = request(sim, client, create, {"table": "gridmon"}).body["resource_id"]
    body = {"resource_id": rid, "sql": "INSERT INTO gridmon (genid) VALUES (1)"}
    del body[missing]
    response = request(sim, client, insert, body)
    assert response.status == 500
    # The container keeps serving.
    ok = request(
        sim, client, insert,
        {"resource_id": rid, "sql": "INSERT INTO gridmon (genid) VALUES (2)"},
    )
    assert ok.status == 200
