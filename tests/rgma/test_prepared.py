"""Prepared INSERTs: ``?`` templates bound per row, statement shapes parsed
once, and the table's shape read once."""

import re

import numpy as np
import pytest

import repro.rgma.sql as sql
from repro.cluster import HydraCluster
from repro.rgma import RGMADeployment
from repro.rgma.errors import RGMAException
from repro.rgma.schema import Schema, grid_monitoring_table
from repro.rgma.sql import PARAM, Insert, insert_template, parse_sql, render_insert
from repro.sim import Simulator
from repro.transport.http import HttpClient


def grid_row(genid):
    row = {"genid": genid}
    row.update({f"ival{i}": i for i in range(1, 4)})
    row.update({f"dval{i}": i + 0.5 for i in range(1, 9)})
    row.update({f"sval{i}": f"s{i}" for i in range(1, 5)})
    return row


def single(seed=61):
    sim = Simulator(seed=seed)
    cluster = HydraCluster(sim)
    deployment = RGMADeployment.single_server(sim, cluster)
    return sim, cluster, deployment


def post(sim, cluster, deployment, path, body):
    client = HttpClient(
        sim, deployment.transport, cluster.node("hydra5"), "hydra1", 8080
    )

    def go():
        response = yield from client.request(path, body, 200)
        return response

    return sim.run_process(go())


# ------------------------------------------------------------------ sql.py
def test_placeholder_parses_and_binds_in_order():
    stmt = parse_sql("INSERT INTO g (a, b, c) VALUES (?, 7, ?)")
    assert stmt.values == (PARAM, 7, PARAM)
    assert stmt.bind((1, "x")).values == (1, 7, "x")
    built = Insert("g", ("a", "b"), (PARAM, PARAM))
    assert built.bind((2, None)).values == (2, None)


def test_bind_without_placeholders_is_identity():
    stmt = parse_sql("INSERT INTO g (a) VALUES (1)")
    assert stmt.bind(()) is stmt


def test_bind_arity_checked():
    stmt = parse_sql("INSERT INTO g (a, b) VALUES (?, ?)")
    with pytest.raises(RGMAException, match="2 placeholders but 1 params"):
        stmt.bind((1,))
    with pytest.raises(RGMAException, match="2 placeholders but 3 params"):
        stmt.bind((1, 2, 3))
    with pytest.raises(RGMAException, match="0 placeholders but 1 params"):
        parse_sql("INSERT INTO g (a) VALUES (1)").bind((2,))


def test_placeholder_is_not_a_number():
    with pytest.raises(RGMAException, match="unary minus"):
        parse_sql("INSERT INTO g (a) VALUES (-?)")


class _Tag(str):
    pass


class _Weird:
    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


@pytest.mark.parametrize(
    "value",
    [True, float("nan"), float("inf"), np.float64(1.5), np.True_,
     _Weird("?"), _Weird("1, 2"), _Weird("3;")],
)
def test_bind_refuses_what_no_literal_carries(value):
    stmt = parse_sql("INSERT INTO g (a, b) VALUES (?, ?)")
    with pytest.raises(RGMAException, match="parameter 1"):
        stmt.bind((1, value))
    with pytest.raises(RGMAException):  # the servlet's literal path
        parse_sql(render_insert("g", {"a": 1, "b": value})).bind(())


@pytest.mark.parametrize(
    "value", [np.int64(3), np.int32(-7), _Tag("it's"), _Weird("-2.5")]
)
def test_bind_stores_what_the_literal_stores(value):
    """A value the literal text carries binds to what that text parses to."""
    stmt = parse_sql("INSERT INTO g (a, b) VALUES (?, ?)")
    literal = parse_sql(render_insert("g", {"a": 1, "b": value})).values[1]
    bound = stmt.bind((1, value)).values[1]
    assert (type(bound), bound) == (type(literal), literal)


def test_template_matches_rendered_columns():
    row = {"genid": 1, "dval1": 2.5, "sval1": "x"}
    template = insert_template("gridmon", tuple(row))
    assert template == "INSERT INTO gridmon (genid, dval1, sval1) VALUES (?, ?, ?)"
    literal = parse_sql(render_insert("gridmon", row))
    assert parse_sql(template).bind(tuple(row.values())) == Insert(
        "gridmon", literal.columns, literal.values
    )


def test_statements_are_memoised():
    text = "SELECT * FROM gridmon WHERE genid < 3"
    assert parse_sql(text) is parse_sql(text)


def test_failures_are_not_memoised(monkeypatch):
    calls = []
    real = sql._lex_sql
    monkeypatch.setattr(sql, "_lex_sql", lambda text: calls.append(text) or real(text))
    bad = "INSERT INTO gridmon (genid) VALUES (1"
    for _ in range(3):
        with pytest.raises(RGMAException):
            parse_sql(bad)
    assert len(calls) == 3


def test_fifty_inserts_lex_the_template_once(monkeypatch):
    """One producer's 50 inserts through the servlet lex one statement."""
    sim, cluster, deployment = single()
    client = deployment.producer_client(cluster.node("hydra5"))
    sim.run_process(client.create("gridmon"))
    parse_sql.cache_clear()
    calls = []
    real = sql._lex_sql
    monkeypatch.setattr(sql, "_lex_sql", lambda text: calls.append(text) or real(text))

    def publish():
        for i in range(50):
            yield from client.insert(grid_row(i))

    sim.run_process(publish())
    assert client.inserts_ok == 50
    assert len(calls) <= 2
    store = deployment.sites[0].producers[client.resource_id].store
    assert [t.row for t in store.history()] == [grid_row(i) for i in range(50)]


# --------------------------------------------------- servlet bind guards
@pytest.mark.parametrize(
    "value, literal",
    [
        (True, "True"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (np.float64(1.5), "np.float64(1.5)"),
    ],
)
def test_bound_param_cannot_widen_the_store(value, literal):
    """A value whose literal text fails to parse is refused when bound."""
    sim, cluster, deployment = single()
    rid = post(sim, cluster, deployment, "/pp/create", {"table": "gridmon"}).body[
        "resource_id"
    ]
    bound = post(
        sim, cluster, deployment, "/pp/insert",
        {
            "resource_id": rid,
            "sql": "INSERT INTO gridmon (genid, dval1) VALUES (?, ?)",
            "params": (1, value),
        },
    )
    assert bound.status == 500
    assert "parameter 1" in bound.body["error"]
    text = post(
        sim, cluster, deployment, "/pp/insert",
        {
            "resource_id": rid,
            "sql": f"INSERT INTO gridmon (genid, dval1) VALUES (1, {literal})",
        },
    )
    assert text.status == 500
    assert deployment.sites[0].producers[rid].store.inserted_count == 0


@pytest.mark.parametrize("params", [(1,), (1, 2.0, 3)])
def test_param_count_mismatch_500(params):
    sim, cluster, deployment = single()
    rid = post(sim, cluster, deployment, "/pp/create", {"table": "gridmon"}).body[
        "resource_id"
    ]
    response = post(
        sim, cluster, deployment, "/pp/insert",
        {
            "resource_id": rid,
            "sql": "INSERT INTO gridmon (genid, dval1) VALUES (?, ?)",
            "params": params,
        },
    )
    assert response.status == 500
    assert "placeholders but" in response.body["error"]


# ---------------------------------------------------------------- schema.py
def _linear_column(table, name):
    for col in table.columns:
        if col.name == name:
            return col
    raise RGMAException(f"table {table.name}: no column {name!r}")


def _linear_row_bytes(table):
    total = 8
    for col in table.columns:
        if col.sql_type in ("INTEGER", "INT"):
            total += 4
        elif col.sql_type in ("REAL", "DOUBLE", "TIMESTAMP"):
            total += 8
        else:
            total += int(re.match(r"^(VARCHAR|CHAR)\((\d+)\)$", col.sql_type).group(2))
    return total


@pytest.mark.parametrize(
    "create",
    [
        grid_monitoring_table(),
        parse_sql(
            "CREATE TABLE mix (k INT PRIMARY KEY, a VARCHAR(7), b CHAR(20),"
            " t TIMESTAMP, r REAL, c VARCHAR(255))"
        ),
    ],
)
def test_table_shape_matches_linear_reads(create):
    table = Schema().create_table(create)
    assert table.row_bytes() == _linear_row_bytes(table)
    for col in table.columns:
        assert table.column(col.name) is _linear_column(table, col.name)
    with pytest.raises(RGMAException, match="no column"):
        table.column("absent")


def test_char_width_still_enforced():
    table = Schema().create_table(
        parse_sql("CREATE TABLE w (k INTEGER, a VARCHAR(3), b CHAR(5))")
    )
    table.validate_row({"k": 1, "a": "abc", "b": "abcde"})
    with pytest.raises(RGMAException, match="longer than 3"):
        table.validate_row({"a": "abcd"})
    with pytest.raises(RGMAException, match="longer than 5"):
        table.validate_row({"b": "abcdef"})


def test_bare_varchar_column_still_creates():
    """A width-less VARCHAR defines a table; only its values are refused."""
    table = Schema().create_table(parse_sql("CREATE TABLE v (k INTEGER, s VARCHAR)"))
    with pytest.raises(RGMAException, match="unknown type"):
        table.validate_row({"s": "x"})
    assert table.column("k").storage_bytes() == 4
