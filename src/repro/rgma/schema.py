"""The schema service: table definitions for the virtual database.

"Data discovery is through registry and schema" (paper §II.A).  The schema
holds table structure; the registry (see :mod:`repro.rgma.registry`) holds
who produces/consumes each table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

from repro.rgma.errors import RGMAException
from repro.rgma.sql import CreateTable

_CHAR_RE = re.compile(r"^(VARCHAR|CHAR)\((\d+)\)$")


@dataclass(frozen=True)
class ColumnDef:
    name: str
    sql_type: str  # INTEGER | REAL | DOUBLE | VARCHAR(n) | CHAR(n) | TIMESTAMP

    @cached_property
    def _width(self) -> Optional[int]:
        # The CHAR width is parsed once, not on every validate.
        m = _CHAR_RE.match(self.sql_type)
        return int(m.group(2)) if m else None

    def validate(self, value: Any) -> None:
        if value is None:
            return
        t = self.sql_type
        if t in ("INTEGER", "INT"):
            if not isinstance(value, int) or isinstance(value, bool):
                raise RGMAException(f"column {self.name}: expected INTEGER")
        elif t in ("REAL", "DOUBLE", "TIMESTAMP"):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise RGMAException(f"column {self.name}: expected {t}")
        else:
            width = self._width
            if width is None:
                raise RGMAException(f"column {self.name}: unknown type {t}")
            if not isinstance(value, str):
                raise RGMAException(f"column {self.name}: expected string")
            if len(value) > width:
                raise RGMAException(
                    f"column {self.name}: string longer than {width}"
                )

    def storage_bytes(self) -> int:
        """Approximate per-value storage/wire footprint."""
        t = self.sql_type
        if t in ("INTEGER", "INT"):
            return 4
        if t in ("REAL", "DOUBLE", "TIMESTAMP"):
            return 8
        assert self._width is not None
        return self._width


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...]

    # The table's shape is read once: every stored row consults it.
    @cached_property
    def _by_name(self) -> dict[str, ColumnDef]:
        return {c.name: c for c in self.columns}

    @cached_property
    def _names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @cached_property
    def _row_bytes(self) -> int:
        return sum(c.storage_bytes() for c in self.columns) + 8  # + timestamp

    def column(self, name: str) -> ColumnDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise RGMAException(f"table {self.name}: no column {name!r}") from None

    def column_names(self) -> tuple[str, ...]:
        return self._names

    def validate_row(self, row: dict[str, Any]) -> None:
        for key in row:
            self.column(key).validate(row[key])
        for pk in self.primary_key:
            if row.get(pk) is None:
                raise RGMAException(f"table {self.name}: primary key {pk} missing")

    def row_bytes(self) -> int:
        """Nominal row footprint (used for wire/heap modelling)."""
        return self._row_bytes

    def key_of(self, row: dict[str, Any]) -> tuple:
        return tuple(row.get(pk) for pk in self.primary_key)


class Schema:
    """Table registry for one virtual database."""

    def __init__(self) -> None:
        self._tables: dict[str, TableDef] = {}

    def create_table(self, stmt: CreateTable) -> TableDef:
        if stmt.table in self._tables:
            raise RGMAException(f"table {stmt.table!r} already exists")
        columns = tuple(ColumnDef(n, t) for n, t in stmt.columns)
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise RGMAException("duplicate column names")
        for pk in stmt.primary_key:
            if pk not in names:
                raise RGMAException(f"primary key {pk!r} is not a column")
        table = TableDef(stmt.table, columns, stmt.primary_key)
        self._tables[stmt.table] = table
        return table

    def table(self, name: str) -> TableDef:
        try:
            return self._tables[name]
        except KeyError:
            raise RGMAException(f"unknown table {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)


def grid_monitoring_table() -> CreateTable:
    """The paper's monitoring table: 4 integer, 8 double, 4 char(20) values
    (§III.F), keyed by generator id."""
    cols: list[tuple[str, str]] = [("genid", "INTEGER")]
    cols += [(f"ival{i}", "INTEGER") for i in range(1, 4)]
    cols += [(f"dval{i}", "DOUBLE") for i in range(1, 9)]
    cols += [(f"sval{i}", "CHAR(20)") for i in range(1, 5)]
    return CreateTable("gridmon", tuple(cols), ("genid",))
