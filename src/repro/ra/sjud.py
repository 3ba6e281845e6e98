"""The SJUD query class: Hippo's supported relational-algebra fragment.

Hippo (EDBT 2004) computes consistent answers to queries built from
**S**\\ election, cartesian product / **J**\\ oin, **U**\\ nion and
**D**\\ ifference, plus the projections that *"don't introduce existential
quantifiers in the corresponding relational calculus query"* (footnote 4 of
the paper).  This module defines the normalized representation of that
class and the conversion from SQL:

* an :class:`SJUDCore` is a conjunctive block ``π(σ(R1 × ... × Rk))``:
  a list of relation *atoms*, one conjunctive/boolean *condition*, and a
  list of *output columns* (attribute references or constants);
* an :class:`SJUDTree` combines cores with union and difference.

The projection restriction is enforced by :func:`reconstruction_map`: a
core is admissible iff the value of **every attribute of every atom** is
determined by the output tuple -- either because the attribute is itself
an output column, or because the condition's top-level equality conjuncts
equate it to an output column or to a constant.  When that map exists, a
candidate answer determines a *unique* witness tuple per atom, which is
exactly what the Prover's grounding step needs; when it does not, the
query is existential and consistent answering is co-NP-hard, so we refuse
it with an explanation (as Hippo does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol, Sequence, Union

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog

from repro.errors import AlgebraError, UnsupportedQueryError
from repro.sql import ast


class SchemaProvider(Protocol):
    """Anything that can report the column names of a relation."""

    def relation_columns(self, name: str) -> tuple[str, ...]:
        """Column names of relation ``name`` (raises on unknown names)."""


class CatalogSchemaProvider:
    """Adapter from an engine :class:`~repro.engine.catalog.Catalog`."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    def relation_columns(self, name: str) -> tuple[str, ...]:
        return self._catalog.table(name).schema.column_names


@dataclass(frozen=True)
class Atom:
    """One relation occurrence in a core (a tuple variable).

    Attributes:
        alias: the tuple-variable name, unique within the core.
        relation: the base-relation name.
    """

    alias: str
    relation: str


@dataclass(frozen=True)
class OutputColumn:
    """One output column: a name plus its source (attribute or constant)."""

    name: str
    source: Union[ast.ColumnRef, ast.Literal]


@dataclass(frozen=True)
class SJUDCore:
    """A conjunctive SJ block with restricted projection."""

    atoms: tuple[Atom, ...]
    condition: Optional[ast.Expression]
    outputs: tuple[OutputColumn, ...]

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.outputs)


@dataclass(frozen=True)
class Union_:
    """Union of two SJUD trees (set semantics)."""

    left: "SJUDTree"
    right: "SJUDTree"


@dataclass(frozen=True)
class Difference:
    """Difference of two SJUD trees (set semantics)."""

    left: "SJUDTree"
    right: "SJUDTree"


SJUDTree = Union[SJUDCore, Union_, Difference]

#: How one attribute of an atom is reconstructed from a candidate answer:
#: either a slot of the output tuple or a constant.
Source = tuple[str, object]  # ("slot", index) | ("const", value)


def cores_of(tree: SJUDTree) -> list[SJUDCore]:
    """All cores of a tree, left-to-right."""
    if isinstance(tree, SJUDCore):
        return [tree]
    return cores_of(tree.left) + cores_of(tree.right)


def output_names_of(tree: SJUDTree) -> tuple[str, ...]:
    """Output column names (taken from the leftmost core, as SQL does)."""
    if isinstance(tree, SJUDCore):
        return tree.output_names
    return output_names_of(tree.left)


def output_arity_of(tree: SJUDTree) -> int:
    """Number of output columns."""
    return len(output_names_of(tree))


# ---------------------------------------------------------------------------
# Projection restriction: the reconstruction map
# ---------------------------------------------------------------------------


class _UnionFind:
    """Union-find over hashable items (attribute names and constants)."""

    def __init__(self) -> None:
        self._parent: dict[object, object] = {}

    def find(self, item: object) -> object:
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: object, b: object) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_a] = root_b


def _qualified(ref: ast.ColumnRef) -> str:
    """Canonical lower-cased ``alias.column`` key for a resolved reference."""
    return f"{ref.table.lower()}.{ref.name.lower()}"


def reconstruction_map(
    core: SJUDCore, schema: SchemaProvider
) -> dict[str, list[Source]]:
    """Per-atom reconstruction of base tuples from a candidate answer.

    Returns a map ``alias -> [source per column]`` where each source is
    ``("slot", output_index)`` or ``("const", value)``.

    Raises:
        UnsupportedQueryError: when some attribute is not determined by
            the output -- i.e. the projection introduces an existential
            quantifier, which is outside Hippo's query class.
    """
    classes = _UnionFind()

    # Equality conjuncts of the condition merge attribute classes.
    for conjunct in ast.split_conjuncts(core.condition):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            left, right = conjunct.left, conjunct.right
            if isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef):
                classes.union(_qualified(left), _qualified(right))
            elif isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
                classes.union(_qualified(left), ("const", right.value))
            elif isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
                classes.union(_qualified(right), ("const", left.value))

    # Output columns pin their class to an output slot (first one wins);
    # constant outputs pin a constant.
    slot_of_class: dict = {}
    const_of_class: dict = {}
    for index, column in enumerate(core.outputs):
        if isinstance(column.source, ast.ColumnRef):
            root = classes.find(_qualified(column.source))
            slot_of_class.setdefault(root, index)
        else:
            # Constant outputs determine nothing about atom attributes.
            pass
    # Collect constants present in equality classes.
    for item in list(classes._parent):
        if isinstance(item, tuple) and item and item[0] == "const":
            const_of_class[classes.find(item)] = item[1]

    result: dict[str, list[Source]] = {}
    for atom in core.atoms:
        columns = schema.relation_columns(atom.relation)
        sources: list[Source] = []
        for column in columns:
            key = f"{atom.alias.lower()}.{column.lower()}"
            root = classes.find(key)
            if root in const_of_class:
                sources.append(("const", const_of_class[root]))
            elif root in slot_of_class:
                sources.append(("slot", slot_of_class[root]))
            else:
                raise UnsupportedQueryError(
                    f"projection drops attribute {atom.alias}.{column} without"
                    " determining it: the query is existential (outside the"
                    " SJUD class Hippo supports; consistent answering for such"
                    " projections is co-NP-data-complete)"
                )
        result[atom.alias.lower()] = sources
    return result


def validate_tree(tree: SJUDTree, schema: SchemaProvider) -> None:
    """Validate arities and projection restrictions across a whole tree.

    Raises:
        AlgebraError: on union-incompatible branches.
        UnsupportedQueryError: on an existential projection.
    """
    if isinstance(tree, SJUDCore):
        reconstruction_map(tree, schema)
        return
    if output_arity_of(tree.left) != output_arity_of(tree.right):
        op = "UNION" if isinstance(tree, Union_) else "EXCEPT"
        raise AlgebraError(
            f"{op} branches have different arities"
            f" ({output_arity_of(tree.left)} vs {output_arity_of(tree.right)})"
        )
    validate_tree(tree.left, schema)
    validate_tree(tree.right, schema)


# ---------------------------------------------------------------------------
# SQL -> SJUD conversion
# ---------------------------------------------------------------------------


def from_sql_query(query: ast.Query, schema: SchemaProvider) -> SJUDTree:
    """Convert a parsed SQL query into a validated SJUD tree.

    ORDER BY is ignored here (consistent answers form a set; the caller may
    re-apply ordering to the final answers).  LIMIT / OFFSET are rejected.

    Raises:
        UnsupportedQueryError: for constructs outside Hippo's class.
    """
    if query.limit is not None or query.offset is not None:
        raise UnsupportedQueryError(
            "LIMIT/OFFSET are not meaningful for consistent query answers"
        )
    tree = from_sql_body(query.body, schema)
    validate_tree(tree, schema)
    return tree


def from_sql_body(
    body: Union[ast.SelectCore, ast.SetOperation], schema: SchemaProvider
) -> SJUDTree:
    """Convert a SELECT body (without final validation)."""
    if isinstance(body, ast.SetOperation):
        left = from_sql_body(body.left, schema)
        right = from_sql_body(body.right, schema)
        if body.op == "union":
            return Union_(left, right)
        if body.op == "except":
            if body.all:
                raise UnsupportedQueryError(
                    "EXCEPT ALL has bag semantics; consistent answers are sets"
                )
            return Difference(left, right)
        if body.op == "intersect":
            # A INTERSECT B  ==  A - (A - B) in set semantics.
            if body.all:
                raise UnsupportedQueryError(
                    "INTERSECT ALL has bag semantics; consistent answers are sets"
                )
            return Difference(left, Difference(left, right))
        raise UnsupportedQueryError(f"unsupported set operation {body.op!r}")
    return _core_from_select(body, schema)


def _core_from_select(core: ast.SelectCore, schema: SchemaProvider) -> SJUDCore:
    if core.group_by or core.having:
        raise UnsupportedQueryError(
            "GROUP BY / HAVING (aggregation) is outside Hippo's SJUD class;"
            " see repro.aggregates for range-consistent aggregate answers"
        )
    if not core.from_items:
        raise UnsupportedQueryError("queries must read from at least one relation")

    atoms: list[Atom] = []
    join_conjuncts: list[ast.Expression] = []

    def add_from_item(item: ast.FromItem) -> None:
        if isinstance(item, ast.TableRef):
            schema.relation_columns(item.name)  # existence check
            binding = item.binding
            if any(atom.alias.lower() == binding.lower() for atom in atoms):
                raise AlgebraError(f"duplicate table alias {binding!r}")
            atoms.append(Atom(binding, item.name))
            return
        if isinstance(item, ast.Join):
            if item.kind == "left":
                raise UnsupportedQueryError(
                    "LEFT OUTER JOIN is outside Hippo's SJUD class"
                )
            add_from_item(item.left)
            add_from_item(item.right)
            if item.on is not None:
                join_conjuncts.extend(ast.split_conjuncts(item.on))
            return
        if isinstance(item, ast.DerivedTable):
            raise UnsupportedQueryError(
                "derived tables (subqueries in FROM) are outside Hippo's class"
            )
        raise UnsupportedQueryError(f"unsupported FROM item {type(item).__name__}")

    for item in core.from_items:
        add_from_item(item)

    condition_parts = join_conjuncts + ast.split_conjuncts(core.where)
    condition = ast.conjunction(condition_parts)
    if condition is not None:
        _check_condition(condition)
        condition = _resolve_refs(condition, atoms, schema)

    outputs: list[OutputColumn] = []
    for item in core.items:
        if isinstance(item, ast.Star):
            targets = (
                [a for a in atoms if a.alias.lower() == item.table.lower()]
                if item.table
                else list(atoms)
            )
            if not targets:
                raise AlgebraError(f"unknown alias in {item.table}.*")
            for atom in targets:
                for column in schema.relation_columns(atom.relation):
                    outputs.append(
                        OutputColumn(column, ast.ColumnRef(atom.alias, column))
                    )
            continue
        expr = item.expr
        if isinstance(expr, ast.ColumnRef):
            resolved = _resolve_one_ref(expr, atoms, schema)
            outputs.append(OutputColumn(item.alias or expr.name, resolved))
        elif isinstance(expr, ast.Literal):
            outputs.append(OutputColumn(item.alias or "const", expr))
        else:
            raise UnsupportedQueryError(
                f"select item {type(expr).__name__} is not a plain column or"
                " constant; computed columns are outside Hippo's class"
            )
    return SJUDCore(tuple(atoms), condition, tuple(outputs))


def _check_condition(condition: ast.Expression) -> None:
    """Reject condition constructs outside the quantifier-free fragment."""
    from repro.engine.planner import _walk_expressions  # shared AST walker

    for node in _walk_expressions(condition):
        if isinstance(node, (ast.Exists, ast.InSubquery)):
            raise UnsupportedQueryError(
                "subqueries in WHERE are outside Hippo's SJUD class"
            )
        if isinstance(node, ast.FunctionCall):
            raise UnsupportedQueryError(
                "function calls in WHERE are outside Hippo's class"
                " (conditions must be quantifier-free comparisons)"
            )


def _resolve_one_ref(
    ref: ast.ColumnRef, atoms: Sequence[Atom], schema: SchemaProvider
) -> ast.ColumnRef:
    """Qualify a column reference with its (unique) owning atom alias."""
    candidates = []
    for atom in atoms:
        columns = [c.lower() for c in schema.relation_columns(atom.relation)]
        if ref.name.lower() in columns:
            if ref.table is None or ref.table.lower() == atom.alias.lower():
                candidates.append(atom)
    if ref.table is not None and not candidates:
        raise AlgebraError(f"unknown column reference {ref}")
    if len(candidates) == 0:
        raise AlgebraError(f"unknown column {ref.name!r}")
    if len(candidates) > 1:
        raise AlgebraError(f"ambiguous column reference {ref}")
    return ast.ColumnRef(candidates[0].alias, ref.name)


def _resolve_refs(
    expr: ast.Expression, atoms: Sequence[Atom], schema: SchemaProvider
) -> ast.Expression:
    """Qualify every column reference in a condition."""
    from dataclasses import fields, replace

    if isinstance(expr, ast.ColumnRef):
        return _resolve_one_ref(expr, atoms, schema)
    updates = {}
    for field_info in fields(expr):  # type: ignore[arg-type]
        value = getattr(expr, field_info.name)
        if isinstance(value, ast.Expression):
            updates[field_info.name] = _resolve_refs(value, atoms, schema)
        elif (
            isinstance(value, tuple)
            and value
            and isinstance(value[0], ast.Expression)
        ):
            updates[field_info.name] = tuple(
                _resolve_refs(item, atoms, schema) for item in value
            )
        elif isinstance(value, tuple) and value and isinstance(value[0], tuple):
            updates[field_info.name] = tuple(
                tuple(_resolve_refs(sub, atoms, schema) for sub in item)
                for item in value
            )
    return replace(expr, **updates) if updates else expr
