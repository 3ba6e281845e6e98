"""Shared machinery for SQL backends that mirror native relations.

A mirror backend owns a DB-API connection and keeps one mirror table
per native relation.  Sync is lazy and versioned: every execution entry
point first compares each native table's monotone mutation counter
(:attr:`repro.engine.storage.Table.version`, plus its schema and index
signature) against what the mirror last copied, and rebuilds only the
relations that changed.  Tids survive the crossing -- subclasses either
pin them into the engine's ``rowid`` (SQLite) or store them in an
explicit leading column (DuckDB) -- so residual-join results are
directly usable as conflict-hypergraph vertices.

All SQL text handed to the driver comes from
:mod:`repro.ra.to_sql` (parameterized rendering and quoting helpers);
no interpolated SQL is built here (hippolint HL015).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Iterator, Optional, Sequence

from repro.backends.base import (
    Backend,
    query_output_types,
    tree_output_types,
)
from repro.engine.storage import Table
from repro.engine.types import SQLType, SQLValue
from repro.errors import AlgebraError, BackendError
from repro.ra.sjud import SJUDCore, SJUDTree
from repro.ra.to_sql import (
    ParameterizedSQL,
    create_index_sql,
    create_table_sql,
    drop_table_sql,
    insert_sql,
    render_core_tids,
    render_query,
    render_tree,
)
from repro.sql import ast

#: A mirror signature: source-table identity + mutation version +
#: schema/index shape.  Any component changing forces a rebuild.
MirrorSignature = tuple

_MAX_EDGE_ARITY = 64


class MirrorBackend(Backend):
    """Base class for backends that copy relations into a SQL engine."""

    #: The column (or pseudo-column) carrying native tids in mirrors.
    tid_column: str = "_tid"
    #: Whether :attr:`tid_column` is the engine's rowid (not a real
    #: column) rather than an explicit leading column of the mirror.
    tid_is_rowid: bool = False

    def __init__(self) -> None:
        super().__init__()
        self._conn: Optional[Any] = None
        self._mirrored: dict[str, MirrorSignature] = {}

    # ------------------------------------------------------------- plumbing

    @abstractmethod
    def _connect(self) -> Any:
        """Open and configure the driver connection."""

    @abstractmethod
    def _driver_errors(self) -> tuple[type[BaseException], ...]:
        """The driver's exception classes, wrapped into BackendError."""

    @abstractmethod
    def type_name(self, sql_type: SQLType) -> str:
        """The backend's column type name for a native :class:`SQLType`."""

    @property
    def connection(self) -> Any:
        """The live driver connection (opened on first use)."""
        if self._conn is None:
            self._conn = self._connect()
        return self._conn

    def close(self) -> None:
        """Drop mirrors state and close the driver connection."""
        try:
            if self._conn is not None:
                self._conn.close()
        finally:
            # Even a failing driver close() must not leave the backend
            # half-alive: the next use would sync against stale mirror
            # signatures over a dead connection.
            self._conn = None
            self._mirrored.clear()
            super().close()

    # ----------------------------------------------------------------- sync

    def _signature(self, table: Table) -> MirrorSignature:
        schema = table.schema
        return (
            id(table),
            table.version,
            schema.column_names,
            tuple(column.sql_type.value for column in schema.columns),
            tuple(sorted(table.indexed_column_sets())),
        )

    def _mirror_rows(self, table: Table) -> Iterator[tuple[SQLValue, ...]]:
        for tid, row in table.items():
            yield (tid,) + row

    def sync(self) -> None:
        """Bring every mirror up to date with the attached database.

        Rebuilds only relations whose signature changed; drops mirrors
        of relations that no longer exist.  Called automatically by the
        execution entry points.

        Raises:
            BackendError: on any driver failure.
        """
        conn = self.connection
        live: set[str] = set()
        try:
            for table in self.db.catalog:
                key = table.schema.name.lower()
                live.add(key)
                signature = self._signature(table)
                if self._mirrored.get(key) == signature:
                    continue
                self._rebuild_mirror(conn, table)
                self._mirrored[key] = signature
            for key in sorted(set(self._mirrored) - live):
                conn.execute(drop_table_sql(key))
                del self._mirrored[key]
        except self._driver_errors() as exc:
            raise BackendError(
                f"backend {self.name!r} failed to sync mirrors: {exc}"
            ) from exc

    def _rebuild_mirror(self, conn: Any, table: Table) -> None:
        schema = table.schema
        key = schema.name.lower()
        names = schema.column_names
        columns = [
            (column.name, self.type_name(column.sql_type))
            for column in schema.columns
        ]
        if not self.tid_is_rowid:
            columns.insert(0, (self.tid_column, self.type_name(SQLType.INTEGER)))
        elif self.tid_column.lower() in {n.lower() for n in names}:
            raise BackendError(
                f"relation {key!r} has a column named {self.tid_column!r},"
                f" which backend {self.name!r} reserves for native tids"
            )
        conn.execute(drop_table_sql(key))
        conn.execute(create_table_sql(key, columns))
        insert = insert_sql(
            key, schema.arity + 1, columns=(self.tid_column,) + names
        )
        conn.executemany(insert, self._mirror_rows(table))
        for number, positions in enumerate(table.indexed_column_sets()):
            conn.execute(
                create_index_sql(
                    f"idx_{key}_{number}",
                    key,
                    [names[position] for position in positions],
                )
            )

    # ------------------------------------------------------------ execution

    def _run(self, rendered: ParameterizedSQL) -> tuple[tuple[str, ...], list[tuple]]:
        try:
            cursor = self.connection.execute(rendered.text, rendered.params)
            columns = tuple(
                description[0] for description in cursor.description or ()
            )
            rows = [tuple(row) for row in cursor.fetchall()]
        except self._driver_errors() as exc:
            raise BackendError(
                f"backend {self.name!r} rejected pushed SQL: {exc}"
            ) from exc
        self.db.stats.backend_pushdowns += 1
        return columns, rows

    @staticmethod
    def _coerce_rows(
        rows: list[tuple], types: Sequence[Optional[SQLType]]
    ) -> list[tuple]:
        if not any(t is SQLType.BOOLEAN for t in types):
            return rows
        boolean = [
            index for index, t in enumerate(types) if t is SQLType.BOOLEAN
        ]
        coerced = []
        for row in rows:
            values = list(row)
            for index in boolean:
                if values[index] is not None:
                    values[index] = bool(values[index])
            coerced.append(tuple(values))
        return coerced

    def execute_tree(self, tree: SJUDTree) -> frozenset[tuple]:
        """Render the tree to parameterized SQL and push it down."""
        self.sync()
        try:
            rendered = render_tree(tree)
        except AlgebraError as exc:
            raise BackendError(f"cannot lower tree: {exc}") from exc
        _, rows = self._run(rendered)
        types = tree_output_types(tree, self.db.catalog)
        return frozenset(self._coerce_rows(rows, types))

    def execute_query(
        self, query: ast.Query
    ) -> tuple[tuple[str, ...], list[tuple]]:
        """Render the SELECT to parameterized SQL and push it down."""
        self.sync()
        try:
            rendered = render_query(query)
        except AlgebraError as exc:
            raise BackendError(f"cannot lower query: {exc}") from exc
        columns, rows = self._run(rendered)
        types = query_output_types(query, self.db.catalog)
        if len(types) == 0 or (rows and len(types) != len(rows[0])):
            return columns, rows
        return columns, self._coerce_rows(rows, types)

    def residual_join(self, core: SJUDCore) -> list[tuple[int, ...]]:
        """Push the constraint body down, reading one tid per atom."""
        if len(core.atoms) > _MAX_EDGE_ARITY:
            raise BackendError(
                f"residual join over {len(core.atoms)} atoms exceeds the"
                f" mirror backend limit of {_MAX_EDGE_ARITY}"
            )
        self.sync()
        try:
            rendered = render_core_tids(core, self.tid_column)
        except AlgebraError as exc:
            raise BackendError(f"cannot lower residual join: {exc}") from exc
        _, rows = self._run(rendered)
        return [tuple(int(tid) for tid in row) for row in rows]
