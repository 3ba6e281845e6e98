"""Incremental maintenance of the conflict hypergraph.

The paper's Figure-1 data flow runs Conflict Detection **once**: the
constraints and the database feed the detector, the detector feeds the
conflict hypergraph, and every query afterwards (Enveloping, Evaluation,
Prover) reads the hypergraph from main memory.  That picture is static --
any INSERT/DELETE/UPDATE invalidated the hypergraph wholesale and forced
full re-detection over every constraint and every tuple.

This module keeps Figure 1 alive under update traffic by treating the
change log as a third input arrow into Conflict Detection:

::

    IC ──────────────┐
    DB ── deltas ──> Incremental Detection ──> Conflict Hypergraph
                      (bind one atom per     (edited in place; the
                       constraint to each     rest of the pipeline is
                       changed tuple)         unchanged)

For a batch of deltas the maintainer:

1. **retracts** every hyperedge incident to a changed tuple (a deleted
   vertex can no longer witness a violation; an updated tuple's old
   edges are stale);
2. **re-derives** violations for inserted/updated tuples by binding one
   atom of each denial constraint to the delta tuple and evaluating the
   residual self-join through hash-index lookups on the equality
   conjuncts (the same join keys full detection hashes on);
3. **re-derives** the dangling chains of restricted foreign keys for the
   reference-graph components a delta (or a changed singleton denial
   edge) touches.

Denial violations are *local*: whether a set of tuples violates a
constraint depends only on those tuples, so edges between unchanged
tuples never need revisiting -- per-update cost is O(delta x matching
tuples) instead of O(database x constraints).  Foreign keys are the one
non-local constraint class (a parent insertion *cures* danglings), which
is why their components are re-derived rather than patched.

Minimization is maintained exactly: the maintainer keeps a *shadow
store* of every current raw violation (with the set of constraints
supporting it) and the hypergraph holds the minimal ones.  When an FK
edge is cured, previously-subsumed supersets resurface; when a smaller
violation appears, stored supersets are demoted back to the shadow.
The shadow is indexed by constraint label, and per-constraint
stored/found counters are maintained through every mutation path --
surfacing statistics costs O(constraints), not O(current violations).

Deltas arrive as change-feed records
(:class:`~repro.engine.feed.FeedRecord`, the one row-change type) through
:meth:`IncrementalDetector.apply_records`, the detector's only apply
entry point -- the in-process engine, replicas and shard workers all
hand it their poll batches unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.constraints.denial import DenialConstraint, to_denial_constraints
from repro.constraints.foreign_key import (
    ForeignKeyConstraint,
    topological_fk_order,
)
from repro.conflicts.detection import (
    DetectionReport,
    dangling_child_tids,
    ensure_edge_in_restricted_class,
)
from repro.conflicts.hypergraph import ConflictHypergraph, Vertex, vertex
from repro.engine.feed import OP_INSERT, RECORD_CHANGE, FeedRecord
from repro.engine.database import Database
from repro.engine.expressions import ExpressionCompiler, Scope
from repro.engine.storage import Table
from repro.sql import ast


@dataclass
class DeltaStats:
    """What one incremental application did (surfaced on the report)."""

    deltas: int = 0
    vertices: int = 0
    retracted: int = 0
    added: int = 0
    subsumed: int = 0
    resurrected: int = 0
    fk_components: int = 0
    seconds: float = 0.0
    per_constraint: dict[str, int] = field(default_factory=dict)
    per_constraint_subsumed: dict[str, int] = field(default_factory=dict)


class _DenialMatcher:
    """Evaluates one denial constraint's body around a bound tuple.

    Compiled once per constraint: the body's condition becomes a
    predicate over the concatenated atom rows, and its equality
    conjuncts between different atoms become join *links*.  To find the
    violations a new tuple participates in, the matcher binds one atom
    to that tuple and walks the remaining atoms, fetching candidates
    through hash-index lookups on the linked columns -- falling back to
    a scan only for atoms the condition leaves unlinked.

    The binding order depends only on *which* atoms are bound, never on
    their values, so it is planned **statically** here: one ordered
    step list per possible bound atom, each step naming the atom to
    extend with and the index columns that feed it.  The indexes those
    plans need are created eagerly at detector attach time
    (:meth:`ensure_indexes`) instead of lazily on the first delta, so
    the first post-bulk-load statement no longer absorbs an O(N) index
    build -- and, because they are ordinary storage hash indexes, the
    query planner's index-scan selection
    (``repro.engine.planner.Planner._try_index_scan``) picks the same
    indexes up for free.
    """

    def __init__(self, db: Database, constraint: DenialConstraint) -> None:
        self.constraint = constraint
        self.relations = [a.relation.lower() for a in constraint.atoms]
        self.tables: list[Table] = [
            db.catalog.table(a.relation) for a in constraint.atoms
        ]
        alias_to_atom = {
            a.alias.lower(): index for index, a in enumerate(constraint.atoms)
        }
        entries: list[tuple[Optional[str], str]] = []
        for atom, table in zip(constraint.atoms, self.tables):
            for column in table.schema.column_names:
                entries.append((atom.alias.lower(), column.lower()))
        self._predicate = None
        if constraint.condition is not None:
            self._predicate = ExpressionCompiler(
                Scope(entries)
            ).compile_predicate(constraint.condition)
        # Equality links: (atom_a, pos_a, atom_b, pos_b) for conjuncts of
        # the form ``a.col = b.col`` across two different atoms.
        self._links: list[tuple[int, int, int, int]] = []
        for conjunct in ast.split_conjuncts(constraint.condition):
            if not (
                isinstance(conjunct, ast.BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ast.ColumnRef)
                and isinstance(conjunct.right, ast.ColumnRef)
                and conjunct.left.table is not None
                and conjunct.right.table is not None
            ):
                continue
            left_atom = alias_to_atom.get(conjunct.left.table.lower())
            right_atom = alias_to_atom.get(conjunct.right.table.lower())
            if left_atom is None or right_atom is None or left_atom == right_atom:
                continue
            self._links.append(
                (
                    left_atom,
                    self.tables[left_atom].schema.index_of(conjunct.left.name),
                    right_atom,
                    self.tables[right_atom].schema.index_of(conjunct.right.name),
                )
            )
        # Static binding plans: for each possible bound atom, the order
        # in which the remaining atoms are extended and the key columns
        # (with their value sources) each extension reads.
        self._plans: list[list[tuple[int, Optional[dict[int, tuple[int, int]]]]]] = [
            self._plan(bound) for bound in range(len(self.tables))
        ]

    def _plan(
        self, bound_index: int
    ) -> list[tuple[int, Optional[dict[int, tuple[int, int]]]]]:
        """Greedy extension order starting from one bound atom.

        Each step is ``(atom, keys)`` where ``keys`` maps a column
        position on ``atom`` to the ``(source atom, source position)``
        whose value constrains it -- or None when the atom is unlinked
        from everything bound so far (scan fallback).  Mirrors the
        most-links-first choice the dynamic walk used to make per
        candidate, which depended only on the bound *set*, never on
        values.
        """
        bound = [atom == bound_index for atom in range(len(self.tables))]
        steps: list[tuple[int, Optional[dict[int, tuple[int, int]]]]] = []
        for _ in range(len(self.tables) - 1):
            best_atom, best_keys = -1, None
            for atom in range(len(self.tables)):
                if bound[atom]:
                    continue
                keys: dict[int, tuple[int, int]] = {}
                for atom_a, pos_a, atom_b, pos_b in self._links:
                    if atom_a == atom and bound[atom_b]:
                        keys.setdefault(pos_a, (atom_b, pos_b))
                    elif atom_b == atom and bound[atom_a]:
                        keys.setdefault(pos_b, (atom_a, pos_a))
                if best_atom < 0 or len(keys) > len(best_keys or {}):
                    best_atom, best_keys = atom, (keys or None)
            bound[best_atom] = True
            steps.append((best_atom, best_keys))
        return steps

    def index_plans(self) -> list[tuple[Table, tuple[int, ...]]]:
        """Every ``(table, column positions)`` index the plans can use."""
        plans: list[tuple[Table, tuple[int, ...]]] = []
        for steps in self._plans:
            for atom, keys in steps:
                if keys:
                    plans.append((self.tables[atom], tuple(sorted(keys))))
        return plans

    def ensure_indexes(self) -> None:
        """Create every index the binding plans will look up.

        Called at detector attach time, so index builds ride the (already
        O(N)) bootstrap instead of ambushing the first delta.
        """
        for table, positions in self.index_plans():
            if not table.has_index(positions):
                table.create_index(positions)

    def atom_positions(self, relation: str) -> list[int]:
        """Atom indexes whose relation matches (a delta can bind any)."""
        return [
            index for index, rel in enumerate(self.relations) if rel == relation
        ]

    def new_edges(
        self, bound_index: int, tid: int, row: tuple
    ) -> Iterator[frozenset[Vertex]]:
        """Violation sets containing ``(tid, row)`` at atom ``bound_index``."""
        assignment: list[Optional[tuple[int, tuple]]] = [None] * len(self.tables)
        assignment[bound_index] = (tid, row)
        yield from self._extend(assignment, self._plans[bound_index], 0)

    def _extend(
        self, assignment: list, plan: list, depth: int
    ) -> Iterator[frozenset[Vertex]]:
        if depth == len(plan):
            if self._predicate is not None:
                env_row = tuple(
                    value
                    for _tid, bound_row in assignment  # type: ignore[misc]
                    for value in bound_row
                )
                if not self._predicate((env_row,)):
                    return
            yield frozenset(
                vertex(relation, tid)
                for relation, (tid, _row) in zip(self.relations, assignment)
            )
            return
        atom, keys = plan[depth]
        table = self.tables[atom]
        if keys is None:
            candidates: Iterable[tuple[int, tuple]] = table.items()
        else:
            positions = tuple(sorted(keys))
            values = tuple(
                assignment[keys[position][0]][1][keys[position][1]]
                for position in positions
            )
            if any(value is None for value in values):
                return  # '=' with NULL matches nothing
            if not table.has_index(positions):
                table.create_index(positions)  # safety net; planned eagerly
            candidates = (
                (candidate_tid, table.get(candidate_tid))
                for candidate_tid in table.index_lookup(positions, values)
            )
        for candidate in candidates:
            assignment[atom] = candidate
            yield from self._extend(assignment, plan, depth + 1)
            assignment[atom] = None


class IncrementalDetector:
    """Maintains a conflict hypergraph under a stream of row deltas.

    Bootstrap from a full :func:`~repro.conflicts.detection.detect_conflicts`
    run (with ``keep_raw=True``), then feed batches of change-feed
    records through :meth:`apply_records`.  The
    maintained :attr:`graph` is always equal to what full re-detection
    would produce on the current database state (the equivalence suite
    asserts exactly that).

    Raises (from :meth:`apply_records`):
        ConstraintError: when a delta pushes the database outside the
            restricted foreign-key class -- exactly when full
            re-detection on the new state would raise.
    """

    def __init__(
        self,
        db: Database,
        constraints: Iterable[object],
        extra_referenced: Iterable[str] = (),
    ) -> None:
        self.db = db
        constraint_list = list(constraints)
        self.foreign_keys = [
            c for c in constraint_list if isinstance(c, ForeignKeyConstraint)
        ]
        self.denials = to_denial_constraints(
            c for c in constraint_list if not isinstance(c, ForeignKeyConstraint)
        )
        self.fk_labels = frozenset(str(fk) for fk in self.foreign_keys)
        # ``extra_referenced``: FK-referenced relations owned by other
        # shard workers -- the restricted-class check must reject a
        # choice conflict on them exactly like the monolith does.
        self.referenced = frozenset(
            fk.referenced.lower() for fk in self.foreign_keys
        ) | frozenset(relation.lower() for relation in extra_referenced)
        self.constraint_names = [d.name for d in self.denials] + [
            str(fk) for fk in self.foreign_keys
        ]
        # relation -> denial constraints mentioning it (constraint order).
        self._by_relation: dict[str, list[DenialConstraint]] = {}
        for denial in self.denials:
            for relation in dict.fromkeys(
                a.relation.lower() for a in denial.atoms
            ):
                self._by_relation.setdefault(relation, []).append(denial)
        # Matchers (and the hash indexes their binding plans read) are
        # planned eagerly from the constraint set at attach time: the
        # detector is only ever constructed next to an O(N) full
        # detection, so the index builds ride the bootstrap instead of
        # ambushing the first post-bulk-load delta.  The indexes are
        # ordinary storage indexes, so the query planner's index-scan
        # selection shares them.
        self._matchers: dict[str, _DenialMatcher] = {}
        for denial in self.denials:
            matcher = _DenialMatcher(db, denial)
            matcher.ensure_indexes()
            self._matchers[denial.name] = matcher
        self._build_fk_components()
        # Shadow store: every *current* raw violation, minimal or not.
        # edge -> (primary label, set of supporting constraint labels).
        self._shadow: dict[frozenset[Vertex], tuple[str, set[str]]] = {}
        self._shadow_incidence: dict[Vertex, set[frozenset[Vertex]]] = {}
        # Label index over the shadow: constraint -> the edges it
        # supports (insertion-ordered).  ``len`` of an entry is the
        # constraint's *found* count, so per-constraint counters fall out
        # of the index instead of an O(current violations) recount.
        self._shadow_by_label: dict[str, dict[frozenset[Vertex], None]] = {}
        # Stored (post-minimization) edge count per primary label,
        # maintained through _graph_add/_graph_remove.
        self._stored: dict[str, int] = {}
        self.graph: Optional[ConflictHypergraph] = None

    # ----------------------------------------------------------- bootstrap

    def bootstrap(self, report: DetectionReport) -> None:
        """Adopt a full-detection result as the maintained state.

        ``report`` must carry the raw violation stream
        (``detect_conflicts(..., keep_raw=True)``).
        """
        if report.raw_edges is None or report.raw_labels is None:
            raise ValueError("bootstrap needs a report with keep_raw=True")
        self.graph = report.hypergraph
        self._shadow.clear()
        self._shadow_incidence.clear()
        self._shadow_by_label.clear()
        for edge, label in zip(report.raw_edges, report.raw_labels):
            entry = self._shadow.get(edge)
            if entry is None:
                self._shadow[edge] = (label, {label})
                for v in edge:
                    self._shadow_incidence.setdefault(v, set()).add(edge)
            else:
                entry[1].add(label)
            self._shadow_by_label.setdefault(label, {})[edge] = None
        self._stored = {name: 0 for name in self.constraint_names}
        for label in self.graph.edge_labels:
            self._stored[label] = self._stored.get(label, 0) + 1

    # --------------------------------------------------------------- apply

    def apply_records(self, records: Sequence[FeedRecord]) -> DeltaStats:
        """Fold a batch of change-feed records into the hypergraph.

        Records come straight from
        :meth:`~repro.engine.feed.FeedConsumer.poll`.  The caller is
        responsible for schema records (DDL means full re-detection,
        not delta maintenance) -- they are rejected here.

        Raises:
            ValueError: when a non-change record is in the batch.
        """
        assert self.graph is not None, "bootstrap before apply"
        started = time.perf_counter()
        stats = DeltaStats(deltas=len(records))

        # Net effect per tuple: only the last change matters (an UPDATE
        # arrives as delete + insert under the same tid, so its final
        # state is the inserted row; tids are never reused).
        last: dict[Vertex, FeedRecord] = {}
        for record in records:
            if record.kind != RECORD_CHANGE:
                raise ValueError(
                    f"cannot apply {record.kind!r} record incrementally"
                )
            # Feed topics are lower-cased at publish time (storage lowers
            # schema names), and this is the per-delta hot path.
            # hippolint: disable-next-line=HL005 -- topic already lower-case
            last[Vertex(record.topic, record.tid)] = record
        stats.vertices = len(last)

        # 1) Retract everything incident to a changed tuple.  This keeps
        # the shadow invariant without any resurrection logic: a shadow
        # superset of a retracted edge shares the changed vertex, so it
        # is retracted too.
        for v in last:
            for edge in list(self._shadow_incidence.get(v, ())):
                self._shadow_remove(edge)
                if self._graph_remove(edge):
                    stats.retracted += 1

        # 2) Re-derive denial violations around inserted/updated tuples.
        for v, record in last.items():
            if record.op != OP_INSERT:
                continue
            for constraint in self._by_relation.get(v.relation, ()):
                matcher = self._matcher(constraint)
                for bound_index in matcher.atom_positions(v.relation):
                    for edge in matcher.new_edges(
                        bound_index, v.tid, record.row
                    ):
                        self._check_restricted(edge)
                        outcome = self._add_raw(edge, constraint.name)
                        if outcome == "added":
                            stats.added += 1
                        elif outcome == "subsumed":
                            stats.subsumed += 1

        # 3) Re-derive the dangling chains of affected FK components.
        # Singleton denial edges feed the chains, but a singleton can
        # only appear or vanish together with its (changed) vertex, so
        # the touched relations already cover every trigger.
        touched = {v.relation for v in last}
        affected = sorted(
            {
                self._component_of[relation]
                for relation in touched
                if relation in self._component_of
            }
        )
        stats.fk_components = len(affected)
        for component in affected:
            self._rederive_component(component, stats)

        self._counters(stats)
        stats.seconds = time.perf_counter() - started
        return stats

    # ------------------------------------------------------------ plumbing

    def _matcher(self, constraint: DenialConstraint) -> _DenialMatcher:
        matcher = self._matchers.get(constraint.name)
        if matcher is None:
            matcher = _DenialMatcher(self.db, constraint)
            self._matchers[constraint.name] = matcher
        return matcher

    def _check_restricted(self, edge: frozenset[Vertex]) -> None:
        """The same restricted-FK class check full detection performs."""
        if self.referenced:
            ensure_edge_in_restricted_class(edge, self.referenced)

    def _graph_add(self, edge: frozenset[Vertex], label: str) -> bool:
        """``graph.add_edge`` maintaining the per-label stored counters."""
        assert self.graph is not None
        if self.graph.add_edge(edge, label):
            self._stored[label] = self._stored.get(label, 0) + 1
            return True
        return False

    def _graph_remove(self, edge: frozenset[Vertex]) -> bool:
        """``graph.remove_edge`` maintaining the per-label stored counters."""
        assert self.graph is not None
        if not self.graph.contains_edge(edge):
            return False
        self._stored[self.graph.label_of(edge)] -= 1
        self.graph.remove_edge(edge)
        return True

    def _graph_relabel(self, edge: frozenset[Vertex], label: str) -> None:
        """Swap a stored edge's primary label, keeping counters exact."""
        if self._graph_remove(edge):
            self._graph_add(edge, label)

    def _shadow_remove(self, edge: frozenset[Vertex]) -> tuple[str, set[str]]:
        entry = self._shadow.pop(edge)
        for v in edge:
            owners = self._shadow_incidence.get(v)
            if owners is not None:
                owners.discard(edge)
                if not owners:
                    del self._shadow_incidence[v]
        for label in entry[1]:
            supported = self._shadow_by_label.get(label)
            if supported is not None:
                supported.pop(edge, None)
        return entry

    def _add_raw(self, edge: frozenset[Vertex], label: str) -> str:
        """Record a raw violation; maintain the minimal stored view.

        Returns ``"added"`` (now stored), ``"subsumed"`` (a smaller
        stored edge absorbs it), ``"duplicate"`` (another constraint
        already derived it) or ``"known"`` (nothing new).
        """
        assert self.graph is not None
        entry = self._shadow.get(edge)
        if entry is not None:
            primary, supports = entry
            if label in supports:
                return "known"
            supports.add(label)
            self._shadow_by_label.setdefault(label, {})[edge] = None
            # Full detection derives denial edges before FK danglings, so
            # a denial support always outranks an FK primary.
            if primary in self.fk_labels and label not in self.fk_labels:
                self._shadow[edge] = (label, supports)
                self._graph_relabel(edge, label)
            return "duplicate"
        self._shadow[edge] = (label, {label})
        for v in edge:
            self._shadow_incidence.setdefault(v, set()).add(edge)
        self._shadow_by_label.setdefault(label, {})[edge] = None
        if self.graph.subset_edges(edge):
            return "subsumed"
        for superset in self.graph.superset_edges(edge):
            # Demoted back to the shadow; resurfaces if ``edge`` is cured.
            self._graph_remove(superset)
        self._graph_add(edge, label)
        return "added"

    def _retract_support(
        self, edge: frozenset[Vertex], labels: frozenset[str], stats: DeltaStats
    ) -> None:
        """Withdraw some constraints' support for an edge (FK re-derivation)."""
        assert self.graph is not None
        primary, supports = self._shadow[edge]
        withdrawn = supports & labels
        supports -= labels
        for label in withdrawn:
            supported = self._shadow_by_label.get(label)
            if supported is not None:
                supported.pop(edge, None)
        if supports:
            if primary in labels:
                # Keep a deterministic primary: the first remaining
                # supporter in constraint order (matches full detection).
                for name in self.constraint_names:
                    if name in supports:
                        self._shadow[edge] = (name, supports)
                        self._graph_relabel(edge, name)
                        break
            return
        self._shadow_remove(edge)
        if self._graph_remove(edge):
            stats.retracted += 1
            stats.resurrected += self._resurrect(edge)

    def _resurrect(self, removed: frozenset[Vertex]) -> int:
        """Promote shadow supersets of a cured edge back into the view.

        Only needed when an edge disappears while its vertices survive
        (an FK dangling cured by a parent insertion): supersets it was
        subsuming may now be minimal.
        """
        assert self.graph is not None
        probe = next(iter(removed))
        candidates = sorted(
            (
                edge
                for edge in self._shadow_incidence.get(probe, ())
                if removed < edge
            ),
            key=len,
        )
        count = 0
        for edge in candidates:
            if self.graph.contains_edge(edge):
                continue
            if self.graph.subset_edges(edge):
                continue  # still subsumed by another stored edge
            self._graph_add(edge, self._shadow[edge][0])
            count += 1
        return count

    # ------------------------------------------------------- foreign keys

    def _build_fk_components(self) -> None:
        """Weakly-connected components of the FK reference graph."""
        self._fk_order = topological_fk_order(self.foreign_keys)
        parent: dict[str, str] = {}

        def find(relation: str) -> str:
            root = relation
            while parent.setdefault(root, root) != root:
                root = parent[root]
            parent[relation] = root
            return root

        for fk in self.foreign_keys:
            left = find(fk.referencing.lower())
            right = find(fk.referenced.lower())
            if left != right:
                parent[left] = right
        roots = sorted({find(relation) for relation in parent})
        component_ids = {root: index for index, root in enumerate(roots)}
        self._component_of = {
            relation: component_ids[find(relation)] for relation in parent
        }
        self._component_fks: dict[int, list[ForeignKeyConstraint]] = {}
        self._component_labels: dict[int, frozenset[str]] = {}
        for fk in self._fk_order:  # keep topological order per component
            component = self._component_of[fk.referencing.lower()]
            self._component_fks.setdefault(component, []).append(fk)
        for component, fks in self._component_fks.items():
            self._component_labels[component] = frozenset(
                str(fk) for fk in fks
            )

    def _rederive_component(self, component: int, stats: DeltaStats) -> None:
        """Retract and recompute one FK component's dangling chain."""
        assert self.graph is not None
        labels = self._component_labels[component]
        # The label index makes the stale set direct: only edges some
        # component FK actually supports, not a scan of the whole shadow.
        stale: dict[frozenset[Vertex], None] = {}
        for fk in self._component_fks[component]:
            for edge in self._shadow_by_label.get(str(fk), {}):
                stale.setdefault(edge, None)
        for edge in list(stale):
            self._retract_support(edge, labels, stats)

        # Deterministic deletions feeding the chain: singleton denial
        # edges (any relation; the chain only reads its own parents).
        deleted: dict[str, set[int]] = {}
        for edge, label in zip(self.graph.edges, self.graph.edge_labels):
            if len(edge) == 1 and label not in self.fk_labels:
                (v,) = edge
                deleted.setdefault(v.relation, set()).add(v.tid)

        for fk in self._component_fks[component]:
            label = str(fk)
            child_key = fk.referencing.lower()
            for tid in dangling_child_tids(self.db, fk, deleted):
                outcome = self._add_raw(
                    frozenset({vertex(child_key, tid)}), label
                )
                if outcome == "added":
                    stats.added += 1
                elif outcome == "subsumed":
                    stats.subsumed += 1

    # ------------------------------------------------------------ counters

    def _counters(self, stats: DeltaStats) -> None:
        """Surface the maintained per-constraint counters on the stats.

        ``stored`` is kept exact by :meth:`_graph_add` /
        :meth:`_graph_remove`; ``found`` is the size of each label's
        shadow index entry -- so this is O(constraints) per apply, not
        O(current violations) as the recounting pass it replaced was.
        """
        stats.per_constraint = {
            name: self._stored.get(name, 0) for name in self.constraint_names
        }
        stats.per_constraint_subsumed = {
            name: len(self._shadow_by_label.get(name, {}))
            - self._stored.get(name, 0)
            for name in self.constraint_names
        }
