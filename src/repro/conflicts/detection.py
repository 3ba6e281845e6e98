"""Conflict Detection: populating the conflict hypergraph.

The paper's data flow (Figure 1) runs Conflict Detection once, before any
query is processed: for every denial constraint, the tuples jointly
violating it are found and stored as hyperedges.  A denial constraint's
body is structurally an SJ query over its atoms, so detection compiles
each constraint through the same plan machinery as ordinary queries
(self-joins become hash joins on the equality conjuncts -- e.g. an FD's
``t1.X = t2.X`` -- which keeps detection near-linear when conflicts are
sparse).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.base import Backend

from repro.constraints.denial import DenialConstraint, to_denial_constraints
from repro.constraints.foreign_key import ForeignKeyConstraint, topological_fk_order
from repro.conflicts.hypergraph import (
    ConflictHypergraph,
    Vertex,
    minimal_edges,
    vertex,
)
from repro.engine.database import Database
from repro.errors import BackendError, ConstraintError
from repro.ra.compile import compile_core
from repro.ra.sjud import Atom, SJUDCore


@dataclass
class DetectionReport:
    """What Conflict Detection did (surfaced in benchmarks / examples).

    Attributes:
        hypergraph: the resulting conflict hypergraph.
        per_constraint: constraint name -> number of violations *stored*
            for it (after minimization).
        seconds: wall-clock detection time.
        subsumed: constraint name -> violations found for it that are
            **not** stored under its name, because minimization absorbed
            them into a smaller edge or into an identical edge of another
            constraint.  Without this, a constraint whose every violation
            was absorbed silently reports 0 and benchmarks misread
            minimization as "no violations".
        mode: ``"full"`` (complete re-detection) or ``"incremental"``
            (delta maintenance applied to the existing hypergraph).
        deltas: number of change-log entries applied (incremental mode).
        edges_added / edges_retracted: hyperedge churn of the last
            incremental application.
        raw_edges / raw_labels: the pre-minimization violation stream,
            kept only when detection is asked to (``keep_raw``) so the
            incremental maintainer can bootstrap its shadow store.
    """

    hypergraph: ConflictHypergraph
    per_constraint: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    subsumed: dict[str, int] = field(default_factory=dict)
    mode: str = "full"
    deltas: int = 0
    edges_added: int = 0
    edges_retracted: int = 0
    raw_edges: list[frozenset[Vertex]] | None = None
    raw_labels: list[str] | None = None

    @property
    def subsumed_total(self) -> int:
        """Total violations absorbed by minimization."""
        return sum(self.subsumed.values())


def violations_of(
    db: Database,
    constraint: DenialConstraint,
    backend: Optional["Backend"] = None,
) -> list[frozenset[Vertex]]:
    """All violation sets of one denial constraint (not yet minimized).

    The constraint body is structurally an SJ query; with a ``backend``
    its residual join is pushed down there (falling back to native
    evaluation, counted in ``db.stats.backend_fallbacks``, if the
    backend declines), otherwise it is compiled through the native plan
    machinery as always.
    """
    core = SJUDCore(
        atoms=tuple(Atom(a.alias, a.relation) for a in constraint.atoms),
        condition=constraint.condition,
        outputs=(),
    )
    relations = [a.relation.lower() for a in constraint.atoms]
    rows: Iterable[tuple]
    if backend is not None:
        try:
            rows = backend.residual_join(core)
        except BackendError:
            db.stats.backend_fallbacks += 1
            rows = compile_core(core, db).rows(())
    else:
        rows = compile_core(core, db).rows(())
    results: list[frozenset[Vertex]] = []
    seen: set[frozenset[Vertex]] = set()
    for row in rows:
        edge = frozenset(
            vertex(relation, tid) for relation, tid in zip(relations, row)
        )
        if edge not in seen:
            seen.add(edge)
            results.append(edge)
    return results


def detect_conflicts(
    db: Database,
    constraints: Iterable[object],
    keep_raw: bool = False,
    extra_referenced: Iterable[str] = (),
    backend: Optional["Backend"] = None,
) -> DetectionReport:
    """Run Conflict Detection for a set of constraints.

    ``constraints`` may mix denial constraints, FDs, keys, exclusion
    constraints (anything :func:`to_denial_constraints` accepts) and
    *restricted* foreign keys (see
    :mod:`repro.constraints.foreign_key`), whose dangling tuples become
    singleton hyperedges.

    Args:
        keep_raw: also return the pre-minimization violation stream on
            the report (used to bootstrap incremental maintenance).
        extra_referenced: relations referenced by foreign keys *outside*
            ``constraints`` that the restricted-class check must still
            protect.  A shard worker evaluating only its own constraint
            slice passes the global FK-referenced set here, so a denial
            conflict on a relation some *other* shard's FK references
            raises exactly like monolithic detection would.
        backend: an execution backend to push each denial constraint's
            residual join to (see :mod:`repro.backends`); the FK
            dangling pass always runs natively, and a backend that
            declines a join falls back to native evaluation.

    Raises:
        ConstraintError: when a foreign key falls outside the restricted
            class (cyclic references, or a referenced relation involved
            in choice conflicts).
    """
    started = time.perf_counter()
    foreign_keys = [c for c in constraints if isinstance(c, ForeignKeyConstraint)]
    denials = to_denial_constraints(
        c for c in constraints if not isinstance(c, ForeignKeyConstraint)
    )
    referenced = {fk.referenced.lower() for fk in foreign_keys} | {
        relation.lower() for relation in extra_referenced
    }
    edges: list[frozenset[Vertex]] = []
    labels: list[str] = []
    per_constraint: dict[str, int] = {}
    for constraint in denials:
        found = violations_of(db, constraint, backend=backend)
        per_constraint[constraint.name] = len(found)
        edges.extend(found)
        labels.extend([constraint.name] * len(found))
    if referenced:
        for edge in edges:
            ensure_edge_in_restricted_class(edge, referenced)
    if foreign_keys:
        fk_edges, fk_labels, fk_counts = _foreign_key_violations(
            db, foreign_keys, edges
        )
        edges.extend(fk_edges)
        labels.extend(fk_labels)
        per_constraint.update(fk_counts)
    kept, kept_labels = minimal_edges(edges, labels)
    hypergraph = ConflictHypergraph(kept, kept_labels)
    # Re-count after minimization so the report reflects stored edges;
    # the difference per constraint is what minimization absorbed.
    found = dict(per_constraint)
    stored: dict[str, int] = {}
    for label in hypergraph.edge_labels:
        stored[label] = stored.get(label, 0) + 1
    subsumed: dict[str, int] = {}
    for name in per_constraint:
        per_constraint[name] = stored.get(name, 0)
        subsumed[name] = found[name] - per_constraint[name]
    elapsed = time.perf_counter() - started
    return DetectionReport(
        hypergraph,
        per_constraint,
        elapsed,
        subsumed=subsumed,
        raw_edges=edges if keep_raw else None,
        raw_labels=labels if keep_raw else None,
    )


def ensure_edge_in_restricted_class(
    edge: frozenset[Vertex], referenced: frozenset[str] | set[str]
) -> None:
    """Reject a multi-tuple conflict touching an FK-referenced relation.

    A referenced relation may only lose tuples deterministically --
    through singleton denial edges or upstream FK dangling -- never
    through a choice conflict (an edge of size >= 2).  Shared by full
    detection and incremental maintenance so both reject identically.

    Raises:
        ConstraintError: when the edge violates the restriction.
    """
    if len(edge) < 2:
        return
    for v in edge:
        if v.relation in referenced:
            raise ConstraintError(
                f"relation {v.relation!r} is referenced by a foreign key"
                " but participates in a multi-tuple conflict: outside"
                " the restricted foreign-key class (repairing such"
                " databases by deletions is not hypergraph-expressible)"
            )


def dangling_child_tids(
    db: Database, fk: ForeignKeyConstraint, deleted: dict[str, set[int]]
) -> list[int]:
    """Tids of ``fk.referencing`` rows whose key dangles, given ``deleted``.

    ``deleted`` maps relation -> certainly-deleted tids (singleton denial
    edges plus upstream danglings); the returned tids are appended to it,
    so chained FKs processed in topological order cascade.  This is the
    single implementation of the dangling semantics (MATCH SIMPLE NULLs,
    surviving-key set) used by full detection and incremental
    maintenance alike.
    """
    child = db.catalog.table(fk.referencing)
    parent = db.catalog.table(fk.referenced)
    child_indexes = [child.schema.index_of(c) for c in fk.columns]
    parent_indexes = [parent.schema.index_of(c) for c in fk.ref_columns]
    parent_deleted = deleted.get(fk.referenced.lower(), set())
    surviving_keys = {
        tuple(row[i] for i in parent_indexes)
        for tid, row in parent.items()
        if tid not in parent_deleted
    }
    child_key = fk.referencing.lower()
    dangling: list[int] = []
    for tid, row in child.items():
        key = tuple(row[i] for i in child_indexes)
        if not fk.match_nulls and any(part is None for part in key):
            continue  # MATCH SIMPLE: NULL keys reference nothing
        if key in surviving_keys:
            continue
        dangling.append(tid)
        deleted.setdefault(child_key, set()).add(tid)
    return dangling


def _foreign_key_violations(
    db: Database,
    foreign_keys: list[ForeignKeyConstraint],
    denial_edges: list[frozenset[Vertex]],
) -> tuple[list[frozenset[Vertex]], list[str], dict[str, int]]:
    """Dangling tuples of restricted foreign keys, as singleton edges.

    The caller has already verified the denial edges stay inside the
    restricted class (:func:`ensure_edge_in_restricted_class`).
    """
    # Deterministic deletions seen so far: singleton denial edges.
    deleted: dict[str, set[int]] = {}
    for edge in denial_edges:
        if len(edge) == 1:
            (v,) = edge
            deleted.setdefault(v.relation, set()).add(v.tid)

    edges: list[frozenset[Vertex]] = []
    labels: list[str] = []
    counts: dict[str, int] = {}
    for fk in topological_fk_order(foreign_keys):
        label = str(fk)
        child_key = fk.referencing.lower()
        dangling = dangling_child_tids(db, fk, deleted)
        counts[label] = len(dangling)
        for tid in dangling:
            edges.append(frozenset({vertex(child_key, tid)}))
            labels.append(label)
    return edges, labels, counts
