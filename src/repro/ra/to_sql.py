"""Conversion of SJUD trees back to SQL -- literal or parameterized.

Hippo's Enveloping step produces *"a query defining Candidates"* which is
then evaluated by the RDBMS; these helpers render such queries so examples
and logs can show exactly what is handed to the engine, so the rewriting
baseline can splice residues into real SQL, and -- since the backend
layer exists -- so pushdown backends (:mod:`repro.backends`) can hand the
rendered SQL to a real driver.

**The lowering contract.**  Pushdown rendering never inlines a literal:
every :class:`~repro.sql.ast.Literal` becomes a ``?`` placeholder (the
qmark style every backend driver here takes) and its value is appended
to an ordered argument list (:class:`ParameterizedSQL`).  Identifiers
go through :func:`~repro.sql.formatter.format_identifier` (this
module's quoting helpers are the only place SQL text may be assembled
from strings -- hippolint rule ``HL015`` enforces that at every execute
call site).  All SJUD node shapes render: cores (selection, join, restricted projection,
constant outputs), unions and differences, plus the full condition
grammar (comparisons, ``AND``/``OR``/``NOT``, ``IS NULL``, ``IN``,
``BETWEEN``, ``LIKE``) and the rewriting baseline's ``NOT EXISTS``
residues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.engine.types import SQLValue, literal_sql
from repro.errors import AlgebraError
from repro.sql import ast
from repro.sql.formatter import format_identifier, format_query
from repro.ra.sjud import Difference, SJUDCore, SJUDTree, Union_


@dataclass(frozen=True)
class ParameterizedSQL:
    """Rendered SQL text plus its ordered bound arguments.

    Attributes:
        text: the SQL with ``?`` placeholders.
        params: the literal values, in placeholder order.
    """

    text: str
    params: tuple[SQLValue, ...]

    def inline(self) -> str:
        """The SQL with literals substituted back -- display/logging only.

        Never execute the returned text; it exists so humans can read one
        self-contained statement.  Placeholder-looking text inside quoted
        identifiers is not protected (no such identifiers are produced by
        the renderer itself).
        """
        values = iter(self.params)
        parts = self.text.split("?")
        out = [parts[0]]
        for part in parts[1:]:
            out.append(literal_sql(next(values)))
            out.append(part)
        return "".join(out)


@dataclass
class _ParamCollector:
    """The ``literals`` hook that parameterizes instead of inlining."""

    params: list[SQLValue] = field(default_factory=list)

    def __call__(self, value: SQLValue) -> str:
        self.params.append(value)
        return "?"


# ---------------------------------------------------------------------------
# SJUD tree -> SQL AST
# ---------------------------------------------------------------------------


def core_to_select(
    core: SJUDCore,
    distinct: bool = True,
    tid_column: Optional[str] = None,
) -> ast.SelectCore:
    """Render one core as a SELECT block.

    With ``tid_column``, one ``alias.tid_column`` select item is appended
    per atom (in atom order) -- the *residual-join* form conflict
    detection pushes to SQL backends that mirror the engine's tuple ids
    under that column name.
    """
    items = tuple(
        ast.SelectItem(column.source, column.name) for column in core.outputs
    )
    if tid_column is not None:
        items += tuple(
            ast.SelectItem(
                ast.ColumnRef(atom.alias, tid_column), f"tid_{index}"
            )
            for index, atom in enumerate(core.atoms)
        )
    from_items = tuple(
        ast.TableRef(atom.relation, atom.alias if atom.alias != atom.relation else None)
        for atom in core.atoms
    )
    return ast.SelectCore(items, from_items, core.condition, (), None, distinct)


def tree_to_body(tree: SJUDTree) -> Union[ast.SelectCore, ast.SetOperation]:
    """Render a tree as a SELECT body (set operations preserved)."""
    if isinstance(tree, SJUDCore):
        return core_to_select(tree)
    if isinstance(tree, Union_):
        return ast.SetOperation(
            "union", tree_to_body(tree.left), tree_to_body(tree.right)
        )
    if isinstance(tree, Difference):
        return ast.SetOperation(
            "except", tree_to_body(tree.left), tree_to_body(tree.right)
        )
    raise TypeError(f"cannot render {type(tree).__name__}")


def tree_to_query(tree: SJUDTree) -> ast.Query:
    """Render a tree as a full query AST."""
    return ast.Query(tree_to_body(tree))


def tree_to_sql(tree: SJUDTree) -> str:
    """Render a tree as SQL text with inlined literals (display form)."""
    return format_query(tree_to_query(tree))


# ---------------------------------------------------------------------------
# Parameterized rendering (the pushdown form)
# ---------------------------------------------------------------------------


def render_query(query: ast.Query) -> ParameterizedSQL:
    """Render any query AST with parameterized literals.

    Raises:
        AlgebraError: on an AST node the formatter cannot lower.
    """
    collector = _ParamCollector()
    try:
        text = format_query(query, collector)
    except TypeError as exc:
        raise AlgebraError(f"cannot lower query to SQL: {exc}") from exc
    return ParameterizedSQL(text, tuple(collector.params))


def render_tree(tree: SJUDTree) -> ParameterizedSQL:
    """Render an SJUD tree with parameterized literals."""
    return render_query(tree_to_query(tree))


def render_core_tids(core: SJUDCore, tid_column: str) -> ParameterizedSQL:
    """Render a core's residual join: outputs plus one tid per atom.

    This is the detection-pushdown form: a denial constraint's body
    (atoms + condition, no outputs) renders to
    ``SELECT DISTINCT a0.<tid>, a1.<tid> FROM ... WHERE ...`` whose rows
    are exactly the hyperedges of the conflict hypergraph.
    """
    query = ast.Query(core_to_select(core, tid_column=tid_column))
    return render_query(query)


# ---------------------------------------------------------------------------
# Quoting helpers (the only sanctioned SQL-from-strings assembly)
# ---------------------------------------------------------------------------


def quote_identifier(name: str) -> str:
    """Quote an identifier for SQL text (re-export for backends)."""
    return format_identifier(name)


def create_table_sql(table: str, columns: Sequence[tuple[str, str]]) -> str:
    """``CREATE TABLE`` text for a backend mirror, identifiers quoted.

    ``columns`` pairs a column name with the backend's type name; type
    names are emitted verbatim (they come from the backend's own type
    map, never from user input).
    """
    body = ", ".join(
        f"{format_identifier(name)} {type_name}" for name, type_name in columns
    )
    return f"CREATE TABLE {format_identifier(table)} ({body})"


def drop_table_sql(table: str) -> str:
    """``DROP TABLE IF EXISTS`` text for a backend mirror."""
    return f"DROP TABLE IF EXISTS {format_identifier(table)}"


def create_index_sql(
    index: str, table: str, columns: Sequence[str]
) -> str:
    """``CREATE INDEX`` text for a backend mirror."""
    cols = ", ".join(format_identifier(column) for column in columns)
    return (
        f"CREATE INDEX {format_identifier(index)}"
        f" ON {format_identifier(table)} ({cols})"
    )


def insert_sql(
    table: str, arity: int, columns: Optional[Sequence[str]] = None
) -> str:
    """Parameterized ``INSERT`` text for a backend mirror (one row).

    With ``columns``, the insert names its target columns explicitly
    (how the SQLite backend addresses ``rowid`` to pin native tids).

    Raises:
        AlgebraError: on a column list whose length disagrees with
            ``arity``.
    """
    if columns is not None and len(columns) != arity:
        raise AlgebraError(
            f"insert into {table!r}: {len(columns)} columns named"
            f" but arity is {arity}"
        )
    placeholders = ", ".join("?" for _ in range(arity))
    named = ""
    if columns is not None:
        named = (
            " (" + ", ".join(format_identifier(c) for c in columns) + ")"
        )
    return (
        f"INSERT INTO {format_identifier(table)}{named}"
        f" VALUES ({placeholders})"
    )
