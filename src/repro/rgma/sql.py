"""The R-GMA SQL subset: CREATE TABLE, INSERT, SELECT ... WHERE.

"Data are published using SQL INSERT statement and queried using SQL SELECT
statement" (paper §II.A).  WHERE predicates reuse the SQL-92 conditional
engine from :mod:`repro.jms.selector` (the grammar is the same subset),
evaluated against a row view — this is R-GMA's content-based filtering.

An INSERT may carry ``?`` placeholders in its VALUES list, bound per row by
:meth:`Insert.bind` — the producer model of arXiv cs/0308024, where a
producer declares its table once and then inserts rows into it.  A producer
client therefore sends one statement *shape* per table plus each row's
values, and :func:`parse_sql` is memoised on the statement text, so the
server lexes a shape once rather than once per tuple.  Every statement is
a frozen dataclass (and a compiled :class:`Selector` holds no state), so a
cached statement is safe to share; a malformed text is not cached and
raises on every call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional, Sequence

from repro.jms.selector import Selector
from repro.rgma.errors import RGMAException

# --------------------------------------------------------------------- lexer

_SQL_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<float>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<punct><>|<=|>=|[(),*=\-<>+/?])
    """,
    re.VERBOSE,
)


@dataclass
class _Tok:
    kind: str  # 'num' | 'str' | 'ident' | punct char
    value: Any
    pos: int


def _lex_sql(text: str) -> list[_Tok]:
    out: list[_Tok] = []
    pos = 0
    while pos < len(text):
        m = _SQL_TOKEN_RE.match(text, pos)
        if m is None:
            raise RGMAException(f"bad SQL at offset {pos}: {text[pos:pos+10]!r}")
        start = pos
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        raw = m.group()
        if kind == "float":
            out.append(_Tok("num", float(raw), start))
        elif kind == "int":
            out.append(_Tok("num", int(raw), start))
        elif kind == "string":
            out.append(_Tok("str", raw[1:-1].replace("''", "'"), start))
        elif kind == "ident":
            out.append(_Tok("ident", raw, start))
        else:
            out.append(_Tok(raw, raw, start))
    out.append(_Tok("eof", None, len(text)))
    return out


# ----------------------------------------------------------------------- AST

@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple[tuple[str, str], ...]  # (name, type) pairs
    primary_key: tuple[str, ...]


class _Placeholder:
    """The ``?`` literal: a value bound per row by :meth:`Insert.bind`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "?"


PARAM = _Placeholder()


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]
    values: tuple[Any, ...]  # a ``?`` placeholder is PARAM

    def bind(self, params: Sequence[Any] = ()) -> "Insert":
        """Substitute ``params`` for the ``?`` placeholders, in order.

        Each bound value is stored as the literal INSERT would store it
        (:func:`_bound_value`), so binding stores nothing a literal could
        not.  With no placeholders and no params, binding is the identity.
        """
        slots = sum(v is PARAM for v in self.values)
        if len(params) != slots:
            raise RGMAException(f"{slots} placeholders but {len(params)} params")
        if not params:
            return self
        bound = iter([_bound_value(i, p) for i, p in enumerate(params)])
        values = tuple(next(bound) if v is PARAM else v for v in self.values)
        return Insert(self.table, self.columns, values)


@dataclass(frozen=True)
class Select:
    table: str
    columns: tuple[str, ...]  # empty = '*'
    where: Optional[Selector]
    where_text: Optional[str]


class RowView:
    """Adapter letting the selector engine evaluate a row dict."""

    __slots__ = ("row",)

    def __init__(self, row: dict[str, Any]):
        self.row = row

    def selector_value(self, identifier: str) -> Any:
        return self.row.get(identifier)


# -------------------------------------------------------------------- parser

_COLUMN_TYPES = {"INTEGER", "INT", "REAL", "DOUBLE", "VARCHAR", "CHAR", "TIMESTAMP"}


class _SqlParser:
    def __init__(self, text: str):
        self.text = text.strip().rstrip(";")
        self.toks = _lex_sql(self.text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch: str) -> None:
        tok = self.next()
        if tok.kind != ch:
            raise RGMAException(f"expected {ch!r}, found {tok.value!r}")

    def expect_ident(self, keyword: Optional[str] = None) -> str:
        tok = self.next()
        if tok.kind != "ident":
            raise RGMAException(f"expected identifier, found {tok.value!r}")
        if keyword is not None and tok.value.upper() != keyword:
            raise RGMAException(f"expected {keyword}, found {tok.value!r}")
        return tok.value

    def at_keyword(self, keyword: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value.upper() == keyword

    # -- statements ---------------------------------------------------------
    def parse(self) -> CreateTable | Insert | Select:
        if self.at_keyword("CREATE"):
            return self.parse_create()
        if self.at_keyword("INSERT"):
            return self.parse_insert()
        if self.at_keyword("SELECT"):
            return self.parse_select()
        raise RGMAException(f"unsupported statement: {self.text[:30]!r}")

    def parse_create(self) -> CreateTable:
        self.expect_ident("CREATE")
        self.expect_ident("TABLE")
        table = self.expect_ident()
        self.expect_punct("(")
        columns: list[tuple[str, str]] = []
        primary_key: list[str] = []
        while True:
            if self.at_keyword("PRIMARY"):
                self.expect_ident("PRIMARY")
                self.expect_ident("KEY")
                self.expect_punct("(")
                primary_key.append(self.expect_ident())
                while self.peek().kind == ",":
                    self.next()
                    primary_key.append(self.expect_ident())
                self.expect_punct(")")
            else:
                name = self.expect_ident()
                col_type = self.expect_ident().upper()
                if col_type not in _COLUMN_TYPES:
                    raise RGMAException(f"unknown column type {col_type!r}")
                if col_type in ("VARCHAR", "CHAR") and self.peek().kind == "(":
                    self.next()
                    width = self.next()
                    if width.kind != "num":
                        raise RGMAException("expected width in type")
                    self.expect_punct(")")
                    col_type = f"{col_type}({width.value})"
                if self.at_keyword("PRIMARY"):
                    self.expect_ident("PRIMARY")
                    self.expect_ident("KEY")
                    primary_key.append(name)
                columns.append((name, col_type))
            tok = self.next()
            if tok.kind == ")":
                break
            if tok.kind != ",":
                raise RGMAException(f"expected , or ) found {tok.value!r}")
        if self.peek().kind != "eof":
            raise RGMAException("trailing input after CREATE TABLE")
        if not columns:
            raise RGMAException("CREATE TABLE needs at least one column")
        return CreateTable(table, tuple(columns), tuple(primary_key))

    def parse_insert(self) -> Insert:
        self.expect_ident("INSERT")
        self.expect_ident("INTO")
        table = self.expect_ident()
        columns: list[str] = []
        if self.peek().kind == "(":
            self.next()
            columns.append(self.expect_ident())
            while self.peek().kind == ",":
                self.next()
                columns.append(self.expect_ident())
            self.expect_punct(")")
        self.expect_ident("VALUES")
        self.expect_punct("(")
        values: list[Any] = [self.parse_literal()]
        while self.peek().kind == ",":
            self.next()
            values.append(self.parse_literal())
        self.expect_punct(")")
        if self.peek().kind != "eof":
            raise RGMAException("trailing input after INSERT")
        if columns and len(columns) != len(values):
            raise RGMAException(
                f"{len(columns)} columns but {len(values)} values in INSERT"
            )
        return Insert(table, tuple(columns), tuple(values))

    def parse_literal(self) -> Any:
        tok = self.next()
        if tok.kind in ("num", "str"):
            return tok.value
        if tok.kind == "?":
            return PARAM
        if tok.kind == "ident" and tok.value.upper() == "NULL":
            return None
        if tok.kind == "-":
            num = self.next()
            if num.kind != "num":
                raise RGMAException("expected number after unary minus")
            return -num.value
        raise RGMAException(f"expected literal, found {tok.value!r}")

    def parse_select(self) -> Select:
        self.expect_ident("SELECT")
        columns: list[str] = []
        if self.peek().kind == "*":
            self.next()
        else:
            columns.append(self.expect_ident())
            while self.peek().kind == ",":
                self.next()
                columns.append(self.expect_ident())
        self.expect_ident("FROM")
        table = self.expect_ident()
        where = None
        where_text = None
        if self.at_keyword("WHERE"):
            where_tok = self.next()
            # Everything after WHERE is a selector-language predicate.
            where_text = self.text[where_tok.pos + len("WHERE"):].strip()
            if not where_text:
                raise RGMAException("empty WHERE clause")
            try:
                where = Selector(where_text)
            except Exception as exc:
                raise RGMAException(f"bad WHERE clause: {exc}") from exc
            return Select(table, tuple(columns), where, where_text)
        if self.peek().kind != "eof":
            raise RGMAException("trailing input after SELECT")
        return Select(table, tuple(columns), None, None)


@lru_cache(maxsize=256)
def parse_sql(text: str) -> CreateTable | Insert | Select:
    """Parse one SQL statement of the supported subset (memoised on text)."""
    return _SqlParser(text).parse()


def insert_template(table: str, columns: Sequence[str]) -> str:
    """The prepared INSERT for ``columns``: one ``?`` per value."""
    marks = ", ".join("?" * len(columns))
    return f"INSERT INTO {table} ({', '.join(columns)}) VALUES ({marks})"


def render_insert(table: str, row: dict[str, Any]) -> str:
    """Build the literal INSERT statement for a row.

    The paper's monitoring data "were wrapped in an SQL statement" (§III.F):
    this is the text its generators sent.  The rendered length is the wire
    size; the server parses the template once (:func:`insert_template`)
    and binds each row's values to it.
    """
    cols = ", ".join(row)
    vals = ", ".join(_render_literal(v) for v in row.values())
    return f"INSERT INTO {table} ({cols}) VALUES ({vals})"


def _bound_value(index: int, value: Any) -> Any:
    """What the literal INSERT stores for ``value``, the ``index``-th param.

    An exact ``int`` or ``str``, ``None`` or a finite ``float`` is its own
    literal.  Anything else stores what its rendered text parses to — a
    NumPy integer or an ``int``/``str`` subclass becomes the plain value —
    and is refused, naming the parameter, when that text is no literal
    (``True``, ``nan``, ``inf``, ``np.float64(1.5)``).
    """
    kind = type(value)
    if kind is int or kind is str or value is None or (
        kind is float and math.isfinite(value)
    ):
        return value
    try:
        parser = _SqlParser(f"({_render_literal(value)})")
        parser.expect_punct("(")
        literal = parser.parse_literal()
        parser.expect_punct(")")
        if literal is PARAM or parser.peek().kind != "eof":
            raise RGMAException("not a single literal")
    except RGMAException as exc:
        raise RGMAException(f"parameter {index}: cannot bind {value!r}: {exc}") from None
    return literal


def _render_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float):
        return repr(value)
    return str(value)
