"""Compilation of SJUD trees into engine plans, with tid provenance.

Hippo hands the envelope query to the RDBMS for evaluation; here the
equivalent is handing a core to the engine's own planner.  Each atom
becomes a tid-carrying scan, and :meth:`repro.engine.planner.Planner.join_sources`
places the core's conjuncts exactly as it places a SQL ``WHERE``
clause's, so the envelope, raw answers, conflict detection and the
rewriting baseline all run on one join planner.  Each compiled core's
rows carry one trailing *tid column per atom*, which is the provenance
the extended-envelope optimization uses to answer membership checks
without further queries.

Every scan can also be *restricted* to a tid set: evaluating a query over
a repair, over the conflict-free core of the database (``Q-down``), or over
the full instance (``Q-up``) all go through the same code path.

Unrestricted scans (``restrict`` returning None, the ``Q-up`` /
envelope-evaluation case) execute over the table's cached column-major
batch (:meth:`repro.engine.storage.Table.columnar`), including the
trailing tid column: repeated envelope evaluations over an unchanged
table reuse the materialized ``row + (tid,)`` batch instead of
re-walking the row dict, and the per-row ``rows_scanned`` bump collapses
into one per batch.  Restricted scans keep the row-at-a-time path.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.engine import plan as physical
from repro.engine.database import Database
from repro.engine.planner import Planner
from repro.errors import AlgebraError
from repro.sql import ast
from repro.ra.sjud import Difference, SJUDCore, SJUDTree, Union_

#: Maps a relation name to the tids allowed in a scan (None = all rows).
Restriction = Callable[[str], Optional[frozenset[int]]]


def unrestricted(_relation: str) -> Optional[frozenset[int]]:
    """The identity restriction: scan everything."""
    return None


def compile_core(
    core: SJUDCore,
    db: Database,
    restrict: Restriction = unrestricted,
) -> physical.PlanNode:
    """Compile one core into a plan.

    Output rows are ``output values + one tid per atom`` (atom order).
    The atoms are joined in order by the engine planner: equality
    conjuncts between two atoms become hash joins, everything else a
    filter at the earliest possible position.

    Raises:
        AlgebraError: when a conjunct references a column no atom has.
    """
    planner = Planner(db.catalog, db.stats)
    sources = [
        planner.table_source(
            atom.relation,
            atom.alias,
            include_tid=True,
            keep_tids=restrict(atom.relation),
        )
        for atom in core.atoms
    ]
    joined, unused = planner.join_sources(
        sources, ast.split_conjuncts(core.condition)
    )
    if unused:
        raise AlgebraError(
            f"condition references unknown columns: {unused[0]!r}"
        )
    evaluators = planner.compile_expressions(
        joined,
        [column.source for column in core.outputs]
        + [ast.ColumnRef(atom.alias, "#tid") for atom in core.atoms],
    )
    return physical.Project(joined.node, evaluators)


def evaluate_core(
    core: SJUDCore,
    db: Database,
    restrict: Restriction = unrestricted,
) -> dict[tuple, tuple[tuple[str, int], ...]]:
    """Evaluate a core, returning ``answer -> witness provenance``.

    Provenance is a tuple of ``(relation, tid)`` pairs, one per atom, of
    the *first* witness found for that answer value (set semantics keeps
    one witness; the Prover only needs facts known to be in the database).
    """
    node = compile_core(core, db, restrict)
    arity = len(core.outputs)
    results: dict[tuple, tuple[tuple[str, int], ...]] = {}
    relations = [atom.relation.lower() for atom in core.atoms]
    for row in node.rows(()):
        value = row[:arity]
        if value not in results:
            tids = row[arity:]
            results[value] = tuple(zip(relations, tids))
    return results


def evaluate_tree(
    tree: SJUDTree,
    db: Database,
    restrict: Restriction = unrestricted,
) -> frozenset[tuple]:
    """Evaluate a full SJUD tree to a set of rows (set semantics)."""
    if isinstance(tree, SJUDCore):
        return frozenset(evaluate_core(tree, db, restrict).keys())
    if isinstance(tree, Union_):
        return evaluate_tree(tree.left, db, restrict) | evaluate_tree(
            tree.right, db, restrict
        )
    if isinstance(tree, Difference):
        return evaluate_tree(tree.left, db, restrict) - evaluate_tree(
            tree.right, db, restrict
        )
    raise AlgebraError(f"cannot evaluate {type(tree).__name__}")
