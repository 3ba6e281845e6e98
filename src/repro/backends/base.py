"""The execution-backend protocol.

The paper's point about the rewriting approach is that consistent
queries are *first-order*, hence runnable on any ordinary RDBMS; this
package makes that concrete.  A :class:`Backend` is an executor the CQA
layers can hand relational work to: an SJUD tree (the envelope / a
rewritten consistent query) or a denial constraint's residual join.  The
:class:`~repro.backends.native.NativeBackend` wraps the in-memory
planner and plan executor; SQL backends
(:class:`~repro.backends.sqlite.SQLiteBackend`,
:class:`~repro.backends.duckdb.DuckDBBackend`) mirror relations into a
real database and push rendered SQL with bound parameters.

Ownership rules: a backend never owns the data.  The native
:class:`~repro.engine.database.Database` is the single source of truth;
SQL backends keep per-relation mirrors stamped with the source table's
mutation version and re-sync lazily before executing.  Answers flow back
coerced to the native type system (booleans in particular), so every
backend is exchangeable under the differential oracle suite
(``tests/backends/test_differential.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.engine.catalog import Catalog
from repro.engine.database import Database
from repro.engine.types import SQLType, infer_type
from repro.errors import BackendError
from repro.ra.sjud import Difference, SJUDCore, SJUDTree, Union_
from repro.sql import ast


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do.

    Attributes:
        pushes_sql: whether the backend executes rendered SQL text (SQL
            backends) or native plan objects (the native engine).
        requires_sync: whether relations must be mirrored into the
            backend before queries can run against it.
    """

    pushes_sql: bool
    requires_sync: bool


class Backend(ABC):
    """An executor for relational work produced by the CQA layers.

    Lifecycle: construct, :meth:`attach` to a database, execute any
    number of trees / queries / residual joins, :meth:`close`.  A
    backend is bound to at most one database at a time; attaching a
    second one replaces the first.
    """

    #: Registry name (``"native"``, ``"sqlite"``, ``"duckdb"``).
    name: str = "abstract"

    def __init__(self) -> None:
        self._db: Optional[Database] = None

    @property
    @abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """The backend's capability flags."""

    def attach(self, db: Database) -> None:
        """Bind the backend to ``db`` (the oracle and source of truth)."""
        self._db = db

    def close(self) -> None:
        """Release the bound database and any driver resources."""
        self._db = None

    @property
    def db(self) -> Database:
        """The attached database.

        Raises:
            BackendError: when no database is attached.
        """
        if self._db is None:
            raise BackendError(f"backend {self.name!r} is not attached")
        return self._db

    @abstractmethod
    def execute_tree(self, tree: SJUDTree) -> frozenset[tuple]:
        """Evaluate an SJUD tree, returning its answer set."""

    @abstractmethod
    def execute_query(self, query: ast.Query) -> tuple[tuple[str, ...], list[tuple]]:
        """Evaluate a SELECT AST; returns (column names, rows).

        Raises:
            BackendError: when the query cannot be lowered or executed
                by this backend (callers holding a native fallback catch
                this and re-run natively).
        """

    @abstractmethod
    def residual_join(self, core: SJUDCore) -> list[tuple[int, ...]]:
        """Evaluate a denial constraint's residual join.

        ``core`` is the constraint body (atoms + condition, no outputs);
        the result rows carry one native tid per atom, in atom order,
        with duplicates removed.  Conflict detection turns each row into
        a conflict-hypergraph hyperedge.
        """


# ---------------------------------------------------------------------------
# Output typing (read-side coercion contract)
# ---------------------------------------------------------------------------


def _alias_map(from_items: Sequence[ast.FromItem]) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for item in from_items:
        if isinstance(item, ast.TableRef):
            mapping[(item.alias or item.name).lower()] = item.name
    return mapping


def _column_type(
    expr: ast.Expression, aliases: dict[str, str], catalog: Catalog
) -> Optional[SQLType]:
    if isinstance(expr, ast.Literal):
        return None if expr.value is None else infer_type(expr.value)
    if isinstance(expr, ast.ColumnRef):
        candidates = (
            [aliases[expr.table.lower()]]
            if expr.table is not None and expr.table.lower() in aliases
            else list(aliases.values())
        )
        for relation in candidates:
            if not catalog.has_table(relation):
                continue
            schema = catalog.table(relation).schema
            if schema.has_column(expr.name):
                return schema.column(expr.name).sql_type
    return None


def query_output_types(
    query: ast.Query, catalog: Catalog
) -> tuple[Optional[SQLType], ...]:
    """Declared types of a query's output columns, where derivable.

    ``None`` marks a column whose type cannot be resolved statically (an
    expression, or an unresolvable reference); SQL backends leave those
    values as the driver returned them.  Set operations take the left
    branch's types (both sides are union-compatible by construction).
    """
    body = query.body
    while isinstance(body, ast.SetOperation):
        body = body.left
    aliases = _alias_map(body.from_items)
    types: list[Optional[SQLType]] = []
    for item in body.items:
        if isinstance(item, ast.Star):
            relations = (
                [aliases[item.table.lower()]]
                if item.table is not None and item.table.lower() in aliases
                else list(aliases.values())
            )
            for relation in relations:
                if catalog.has_table(relation):
                    schema = catalog.table(relation).schema
                    types.extend(c.sql_type for c in schema.columns)
            continue
        types.append(_column_type(item.expr, aliases, catalog))
    return tuple(types)


def tree_output_types(
    tree: SJUDTree, catalog: Catalog
) -> tuple[Optional[SQLType], ...]:
    """Declared types of an SJUD tree's output columns, where derivable."""
    core = tree
    while isinstance(core, (Union_, Difference)):
        core = core.left
    aliases = {
        atom.alias.lower(): atom.relation for atom in core.atoms
    }
    return tuple(
        _column_type(column.source, aliases, catalog)
        for column in core.outputs
    )
