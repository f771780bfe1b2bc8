"""Property-based tests for the SQL subset (hypothesis)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.rgma.errors import RGMAException
from repro.rgma.producer import insert_body_row, insert_request
from repro.rgma.schema import Schema
from repro.rgma.sql import CreateTable, Insert, RowView, Select, parse_sql, render_insert

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)
values = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
        max_size=30,
    ),
    st.none(),
)


@given(st.dictionaries(identifiers, values, min_size=1, max_size=8))
def test_render_insert_parse_roundtrip(row):
    """render_insert produces SQL that parses back to the same row."""
    stmt = parse_sql(render_insert("t1", row))
    assert isinstance(stmt, Insert)
    assert stmt.table == "t1"
    parsed = dict(zip(stmt.columns, stmt.values))
    assert set(parsed) == set(row)
    for key, original in row.items():
        got = parsed[key]
        if isinstance(original, float):
            assert got == pytest.approx(original, rel=0, abs=0) or got == original
        else:
            assert got == original


@given(st.text(max_size=40))
def test_arbitrary_text_never_crashes_parser(text):
    """Garbage either parses or raises RGMAException — never anything else."""
    try:
        parse_sql(text)
    except RGMAException:
        pass


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_where_range_predicate_equivalence(lo, hi):
    stmt = parse_sql(f"SELECT * FROM t WHERE genid >= {lo} AND genid < {hi}")
    assert isinstance(stmt, Select)
    for probe in (lo - 1, lo, (lo + hi) // 2, hi - 1, hi, hi + 1):
        if probe < 0:
            continue
        expected = lo <= probe < hi
        assert stmt.where.matches(RowView({"genid": probe})) == expected


@given(st.lists(identifiers, min_size=1, max_size=6, unique=True))
def test_select_column_list_roundtrip(cols):
    stmt = parse_sql(f"SELECT {', '.join(cols)} FROM t")
    assert stmt.columns == tuple(cols)


class _Tag(str):
    pass


# NumPy integers and str subclasses are not literal types; they bind to
# what their rendered literal parses to, exactly as the text INSERT does.
bindable = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([-0.0, 1e16, 5e-324, -1e-05]),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
        max_size=30,
    ),
    st.sampled_from(["'", "?", ",", ")", "it's (?, ?)", "''"]),
    st.none(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
        max_size=10,
    ).map(_Tag),
)


@settings(max_examples=200)
@given(st.dictionaries(identifiers, bindable, min_size=1, max_size=16))
def test_prepared_row_equals_literal_row(row):
    """Template + params stores exactly the row the literal INSERT stores:
    same keys in the same order, equal values of the same types (incl. the
    sign of -0.0), and the same wire size."""
    schema = Schema()
    schema.create_table(CreateTable("t1", (("k", "INTEGER"),), ()))
    literal_sql = render_insert("t1", row)
    body, nbytes = insert_request("ppr-1", "t1", row, {})
    literal = insert_body_row(schema, {"sql": literal_sql})
    prepared = insert_body_row(schema, body)
    assert nbytes == len(literal_sql) + 64
    assert list(prepared) == list(literal) == list(row)
    assert [(type(v), repr(v)) for v in prepared.values()] == [
        (type(v), repr(v)) for v in literal.values()
    ]
