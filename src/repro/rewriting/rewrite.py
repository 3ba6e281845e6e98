"""The query-rewriting baseline (Arenas, Bertossi & Chomicki, PODS 1999).

The first practical CQA mechanism rewrites the input query ``Q`` into a
query ``Q'`` whose ordinary evaluation returns the consistent answers.
Each positive literal ``R(x)`` acquires a *residue* per constraint: for a
binary denial constraint ``NOT (R(t1) AND S(t2) AND phi)`` the literal
becomes

    R(x) AND NOT EXISTS (SELECT * FROM S t2 WHERE phi[t1 := x])

i.e. "x is in R and cannot be removed by a conflict partner".

The paper's demonstration (part 2 and part 3) positions Hippo against this
method on both axes reproduced here:

* **scope** -- rewriting handles S/SJ/SJD queries under *binary* universal
  constraints; it cannot express unions of candidate repairs members, and
  non-binary denial constraints have no first-order residue of this shape.
  Out-of-scope inputs raise :class:`~repro.errors.RewritingError`.
* **speed** -- the rewritten query drags correlated NOT EXISTS subqueries
  through the RDBMS for *every* tuple, conflicting or not, while Hippo
  consults the in-memory hypergraph only for envelope candidates.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.base import Backend

from repro.constraints.denial import DenialConstraint, to_denial_constraints
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.core.hippo import AnswerSet
from repro.engine.database import Database
from repro.engine.types import sort_key
from repro.errors import BackendError, RewritingError, UnsupportedQueryError
from repro.ra.sjud import (
    Atom,
    CatalogSchemaProvider,
    Difference,
    SchemaProvider,
    SJUDCore,
    SJUDTree,
    Union_,
    cores_of,
    from_sql_query,
)
from repro.ra.to_sql import core_to_select
from repro.sql import ast
from repro.sql.formatter import format_query
from repro.sql.parser import parse_query

QueryLike = Union[str, ast.Query, SJUDTree]


def _substitute_aliases(
    expr: ast.Expression, mapping: dict[str, str]
) -> ast.Expression:
    """Rename the table qualifiers of column references."""
    if isinstance(expr, ast.ColumnRef):
        if expr.table is not None and expr.table.lower() in mapping:
            return ast.ColumnRef(mapping[expr.table.lower()], expr.name)
        return expr
    updates = {}
    for field_info in fields(expr):  # type: ignore[arg-type]
        value = getattr(expr, field_info.name)
        if isinstance(value, ast.Expression):
            updates[field_info.name] = _substitute_aliases(value, mapping)
        elif (
            isinstance(value, tuple)
            and value
            and isinstance(value[0], ast.Expression)
        ):
            updates[field_info.name] = tuple(
                _substitute_aliases(item, mapping) for item in value
            )
        elif isinstance(value, tuple) and value and isinstance(value[0], tuple):
            updates[field_info.name] = tuple(
                tuple(_substitute_aliases(sub, mapping) for sub in item)
                for item in value
            )
    return replace(expr, **updates) if updates else expr


@dataclass
class RewritingEngine:
    """Rewrites SJD queries under binary denial constraints.

    Args:
        db: the database the rewritten SQL is executed against.
        constraints: the integrity constraints (FDs, keys, exclusions or
            explicit denial constraints).
    """

    def __init__(self, db: Database, constraints: Iterable[object]) -> None:
        self.db = db
        self.denials: list[DenialConstraint] = to_denial_constraints(constraints)
        self._schema = CatalogSchemaProvider(db.catalog)
        self._fresh = itertools.count()
        # Same contract as HippoEngine: binding a constraint set drops
        # cached statement plans, so classify-then-execute replans.
        db.invalidate_plans()

    # -------------------------------------------------------------- public

    def rewrite(self, query: QueryLike) -> ast.Query:
        """The rewritten query ``Q'`` as a SQL AST.

        Raises:
            RewritingError: when the query or constraints are outside the
                method's scope (unions; non-binary constraints touching the
                query's relations).
        """
        tree = self._as_tree(query)
        return ast.Query(self._rewrite_tree(tree))

    def rewrite_sql(self, query: QueryLike) -> str:
        """The rewritten query as SQL text (for display and logging)."""
        return format_query(self.rewrite(query))

    def consistent_answers(
        self, query: QueryLike, backend: Optional["Backend"] = None
    ) -> AnswerSet:
        """Evaluate the rewritten query on the RDBMS.

        Returns an :class:`~repro.core.hippo.AnswerSet` so benchmarks can
        treat all approaches uniformly.

        Args:
            backend: an execution backend to push the rewritten SQL to
                (see :mod:`repro.backends`) -- the rewriting method's
                "any RDBMS can evaluate Q'" claim made literal.  A
                backend that declines the query falls back to the
                database's own executor, counting one
                ``backend_fallbacks``; None always uses that executor.
        """
        started = time.perf_counter()
        rewritten = self.rewrite(query)
        pushed: Optional[tuple[Sequence[str], list[tuple]]] = None
        # The database's attached backend is offered the statement (and
        # counts its fallback) by execute_statement itself.
        if backend is not None and backend is not self.db.backend:
            try:
                pushed = backend.execute_query(rewritten)
            except BackendError:
                self.db.stats.backend_fallbacks += 1
        if pushed is None:
            result = self.db.execute_statement(ast.SelectStatement(rewritten))
            pushed = result.columns, result.rows
        columns, result_rows = pushed
        rows = sorted(
            set(result_rows), key=lambda row: tuple(sort_key(v) for v in row)
        )
        elapsed = time.perf_counter() - started
        return AnswerSet(
            list(columns),
            rows,
            {"total_seconds": elapsed, "rewritten_sql": format_query(rewritten)},
        )

    # ------------------------------------------------------------ internals

    def _as_tree(self, query: QueryLike) -> SJUDTree:
        if isinstance(query, str):
            query = parse_query(query)
        if isinstance(query, ast.Query):
            return from_sql_query(query, self._schema)
        return query

    def _rewrite_tree(self, tree: SJUDTree) -> Union[ast.SelectCore, ast.SetOperation]:
        if isinstance(tree, Union_):
            raise RewritingError(
                "query rewriting cannot express unions: consistent answers"
                " to UNION queries carry indefinite disjunctive information"
                " (this is Hippo's demonstrated advantage)"
            )
        if isinstance(tree, Difference):
            left = self._rewrite_tree(tree.left)
            right = self._possibly_true(tree.right)
            return ast.SetOperation("except", left, right)
        return self._rewrite_core(tree)

    def _rewrite_core(self, core: SJUDCore) -> ast.SelectCore:
        base = core_to_select(core)
        residues: list[ast.Expression] = []
        seen: set[str] = set()
        for atom in core.atoms:
            for residue in self._residues_for(atom):
                key = format_query(
                    ast.Query(ast.SelectCore((ast.SelectItem(residue, None),), ()))
                )
                if key not in seen:
                    seen.add(key)
                    residues.append(residue)
        where = ast.conjunction(
            ([base.where] if base.where is not None else []) + residues
        )
        return replace(base, where=where)

    def _residues_for(self, atom: Atom) -> list[ast.Expression]:
        """All residues for one positive literal."""
        residues: list[ast.Expression] = []
        relation = atom.relation.lower()
        for constraint in self.denials:
            positions = [
                index
                for index, c_atom in enumerate(constraint.atoms)
                if c_atom.relation.lower() == relation
            ]
            if not positions:
                continue
            if constraint.arity == 1:
                # Unary denial: the residue is the negated condition.
                if constraint.condition is not None:
                    mapping = {constraint.atoms[0].alias.lower(): atom.alias}
                    residues.append(
                        ast.UnaryOp(
                            "NOT",
                            _substitute_aliases(constraint.condition, mapping),
                        )
                    )
                else:
                    raise RewritingError(
                        f"constraint {constraint.name} forbids every"
                        f" {relation} tuple; the rewritten query is empty"
                    )
                continue
            if not constraint.is_binary:
                raise RewritingError(
                    f"constraint {constraint.name} relates"
                    f" {constraint.arity} tuples; query rewriting supports"
                    " only binary universal constraints (Hippo does not"
                    " have this restriction)"
                )
            for position in positions:
                other = constraint.atoms[1 - position]
                this = constraint.atoms[position]
                fresh_alias = f"rw{next(self._fresh)}"
                mapping = {
                    this.alias.lower(): atom.alias,
                    other.alias.lower(): fresh_alias,
                }
                condition = (
                    _substitute_aliases(constraint.condition, mapping)
                    if constraint.condition is not None
                    else None
                )
                subquery = ast.Query(
                    ast.SelectCore(
                        (ast.Star(None),),
                        (ast.TableRef(other.relation, fresh_alias),),
                        condition,
                    )
                )
                residues.append(ast.Exists(subquery, negated=True))
        return residues

    def _possibly_true(self, tree: SJUDTree) -> ast.SelectCore:
        """The negative side of a difference: tuples true in *some* repair.

        Exact for single-atom cores (every database tuple survives in some
        repair when no constraint produces singleton violations); larger
        negative sides are outside the classical rewriting's scope.
        """
        if not isinstance(tree, SJUDCore):
            raise RewritingError(
                "rewriting supports difference only with a simple"
                " single-block right-hand side"
            )
        if len(tree.atoms) != 1:
            raise RewritingError(
                "rewriting supports difference only when the right-hand"
                " side has a single relation atom (its 'possibly true'"
                " semantics is not first-order expressible otherwise)"
            )
        return core_to_select(tree)


# ---------------------------------------------------------------------------
# Static classification: which CQA path applies?
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryClassification:
    """The statically determined CQA path for one (query, constraints) pair.

    Attributes:
        path: ``"first-order-rewriting"`` when the PODS'99 rewriting
            answers the query exactly; ``"conflict-hypergraph"`` when
            Hippo's pipeline / repair enumeration is needed; or
            ``"unsupported"`` when the query is outside the SJUD class
            both paths require (existential projections are co-NP-hard).
        rewritable: whether the rewriting path applies.
        shape: the top-level query shape: ``core``, ``union`` or
            ``difference``.
        query_relations: the lower-cased base relations the query reads.
        reasons: why rewriting is out of scope (empty when it applies).
        denial_constraints: number of denial-form constraints considered.
        foreign_keys: number of foreign-key constraints (these alone
            force the hypergraph path).
    """

    path: str
    rewritable: bool
    shape: str
    query_relations: tuple[str, ...]
    reasons: tuple[str, ...]
    denial_constraints: int
    foreign_keys: int

    def describe(self) -> str:
        """A human-readable report (the CLI's ``.classify`` output)."""
        lines = [
            f"path: {self.path}",
            f"shape: {self.shape}",
            f"relations: {', '.join(self.query_relations) or '(none)'}",
            f"constraints: {self.denial_constraints} denial-form,"
            f" {self.foreign_keys} foreign-key",
        ]
        if self.rewritable:
            lines.append(
                "first-order rewriting applies: the rewritten query can be"
                " evaluated by any RDBMS with no repair machinery"
            )
        else:
            lines.append("first-order rewriting does not apply:")
            lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


def _tree_nodes(tree: SJUDTree) -> Iterator[SJUDTree]:
    yield tree
    if isinstance(tree, (Union_, Difference)):
        yield from _tree_nodes(tree.left)
        yield from _tree_nodes(tree.right)


def classify(
    query: QueryLike,
    constraints: Iterable[object],
    schema: Optional[object] = None,
) -> QueryClassification:
    """Statically decide which CQA path answers ``query`` -- no data access.

    This is the rewriting scope test of :class:`RewritingEngine` turned
    into a pure function of the query and constraint *shapes*: unions,
    wide difference right-hand sides, non-binary denial constraints and
    foreign keys each force the conflict-hypergraph path; everything else
    is answerable by the PODS'99 first-order rewriting.  (It is also the
    stepping stone to a dichotomy-aware router: the same inspection point
    can grow finer tractability tests without touching the engines.)

    Args:
        query: SQL text, a parsed query AST, or an SJUD tree.
        constraints: the integrity constraints (any mix of FDs, keys,
            exclusions, denial constraints and foreign keys).
        schema: needed to resolve SQL input -- a
            :class:`~repro.ra.sjud.SchemaProvider` or anything with a
            ``catalog`` attribute (e.g. a Database).  SJUD-tree input
            needs no schema.

    Raises:
        RewritingError: when SQL input is given without a schema.
    """
    provider: Optional[SchemaProvider]
    catalog = getattr(schema, "catalog", None)
    if catalog is not None:
        provider = CatalogSchemaProvider(catalog)
    else:
        provider = schema  # type: ignore[assignment]
    foreign_keys = [
        c for c in constraints if isinstance(c, ForeignKeyConstraint)
    ]
    denials = to_denial_constraints(
        c for c in constraints if not isinstance(c, ForeignKeyConstraint)
    )
    if isinstance(query, str):
        query = parse_query(query)
    if isinstance(query, ast.Query):
        if provider is None:
            raise RewritingError(
                "classifying SQL text needs a schema: pass schema= a"
                " Database or SchemaProvider (SJUD trees need none)"
            )
        try:
            tree = from_sql_query(query, provider)
        except UnsupportedQueryError as exc:
            return QueryClassification(
                path="unsupported",
                rewritable=False,
                shape="unknown",
                query_relations=(),
                reasons=(
                    f"outside the SJUD class both paths require: {exc}",
                ),
                denial_constraints=len(denials),
                foreign_keys=len(foreign_keys),
            )
    else:
        tree = query
    relations = frozenset(
        atom.relation.lower()
        for core in cores_of(tree)
        for atom in core.atoms
    )
    nodes = list(_tree_nodes(tree))
    if isinstance(tree, SJUDCore):
        shape = "core"
    elif isinstance(tree, Union_):
        shape = "union"
    else:
        shape = "difference"

    reasons: list[str] = []
    if any(isinstance(node, Union_) for node in nodes):
        reasons.append(
            "the query contains a union: consistent answers to unions"
            " carry disjunctive information that no rewritten first-order"
            " query expresses (Hippo's demonstrated advantage)"
        )
    for node in nodes:
        if isinstance(node, Difference) and not (
            isinstance(node.right, SJUDCore) and len(node.right.atoms) == 1
        ):
            reasons.append(
                "a difference's right-hand side is not a single-atom"
                " core, so its 'possibly true' semantics is not"
                " first-order expressible"
            )
            break
    if foreign_keys:
        spans = ", ".join(
            sorted(
                f"{fk.referencing.lower()}->{fk.referenced.lower()}"
                for fk in foreign_keys
            )
        )
        reasons.append(
            f"foreign-key constraints ({spans}) have no binary denial"
            " form; their repairs delete referencing chains only the"
            " hypergraph path models"
        )
    for constraint in denials:
        if not relations & {a.relation.lower() for a in constraint.atoms}:
            continue  # cannot produce a residue for this query
        if constraint.arity == 1 and constraint.condition is None:
            reasons.append(
                f"constraint {constraint.name} forbids every"
                f" {constraint.atoms[0].relation} tuple, so the rewriting"
                " degenerates to the empty query"
            )
        elif not constraint.is_binary and constraint.arity != 1:
            reasons.append(
                f"constraint {constraint.name} relates {constraint.arity}"
                " tuples; rewriting supports only binary universal"
                " constraints"
            )

    rewritable = not reasons
    return QueryClassification(
        path="first-order-rewriting" if rewritable else "conflict-hypergraph",
        rewritable=rewritable,
        shape=shape,
        query_relations=tuple(sorted(relations)),
        reasons=tuple(reasons),
        denial_constraints=len(denials),
        foreign_keys=len(foreign_keys),
    )
