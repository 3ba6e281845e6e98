"""Unit tests for incremental conflict-hypergraph maintenance.

The equivalence property suite (``tests/property``) checks the global
invariant -- incremental == full re-detection after arbitrary update
sequences; the tests here pin down the moving parts one by one: the
change log, hypergraph edge add/remove, edge retraction, FK cascade
re-derivation, subsumption bookkeeping and the engine-level fallbacks.
"""

from __future__ import annotations

import pytest

from repro import Database, HippoEngine
from repro.conflicts import ConflictHypergraph, Vertex, detect_conflicts, vertex
from repro.conflicts.incremental import IncrementalDetector
from repro.constraints import (
    ConstraintAtom,
    DenialConstraint,
    ExclusionConstraint,
    FunctionalDependency,
)
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.errors import ConstraintError
from repro.sql.parser import parse_expression


def assert_equivalent(engine: HippoEngine, db: Database, constraints) -> None:
    """The maintained hypergraph equals full re-detection, field by field."""
    full = detect_conflicts(db, constraints)
    maintained = engine.hypergraph
    assert maintained.as_dict() == full.hypergraph.as_dict()
    assert engine.detection.per_constraint == full.per_constraint
    assert engine.detection.subsumed == full.subsumed
    # Adjacency agrees vertex by vertex.
    assert set(maintained.conflicting_vertices()) == set(
        full.hypergraph.conflicting_vertices()
    )
    for v in full.hypergraph.conflicting_vertices():
        assert set(maintained.edges_of(v)) == set(full.hypergraph.edges_of(v))
        assert maintained.degree(v) == full.hypergraph.degree(v)


class TestChangeLog:
    """The database's change feed as its in-process consumers see it."""

    @staticmethod
    def r_table() -> Database:
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER)")
        return db

    def test_nothing_buffered_without_cursor(self):
        db = self.r_table()
        end = db.changes.end
        db.execute("INSERT INTO r VALUES (1)")
        assert db.changes.end == end

    def test_cursor_sees_changes_once(self):
        db = self.r_table()
        consumer = db.changes.feed.consumer()
        tid = db.insert_rows("r", [(1,)])[0]
        assert consumer.pending == 1
        records, lost = consumer.poll()
        consumer.commit()
        assert not lost and [r.tid for r in records] == [tid]
        assert consumer.poll() == ([], False)

    def test_two_cursors_compact_at_slowest(self):
        db = self.r_table()
        feed = db.changes.feed
        fast, slow = feed.consumer(), feed.consumer()
        tid = db.insert_rows("r", [(1,)])[0]
        fast.poll()
        fast.commit()
        assert slow.pending == 1
        records, lost = slow.poll()
        assert [r.tid for r in records] == [tid] and not lost
        slow.commit()
        assert feed.resident_records() == 0  # compacted once both passed

    def test_overflow_marks_cursor_lost(self):
        db = self.r_table()
        db.changes.feed.max_retained = 2
        consumer = db.changes.feed.consumer()
        db.insert_rows("r", [(tid,) for tid in range(4)])
        assert consumer.lost
        records, lost = consumer.poll()
        assert lost and records == []
        assert not consumer.lost  # repositioned at the end

    def test_update_emits_delete_then_insert(self):
        db = self.r_table()
        consumer = db.changes.feed.consumer()
        tid = db.insert_rows("r", [(1,)])[0]
        db.execute("UPDATE r SET a = 2")
        ops = [(r.op, r.tid, r.row) for r in consumer.poll()[0]]
        assert ops == [
            ("insert", tid, (1,)),
            ("delete", tid, (1,)),
            ("insert", tid, (2,)),
        ]

    def test_collected_engine_releases_its_cursor(self):
        import gc

        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        engine = HippoEngine(db, [fd])
        del engine  # dropped without detach()
        gc.collect()
        db.execute("INSERT INTO r VALUES (1, 2)")
        assert db.changes.end == 0  # nobody listening, nothing buffered

    def test_ddl_bumps_schema_version(self):
        db = Database()
        before = db.changes.schema_version
        db.execute("CREATE TABLE r (a INTEGER)")
        db.execute("DROP TABLE r")
        assert db.changes.schema_version == before + 2


class TestMutableHypergraph:
    def edge(self, *tids: int) -> frozenset[Vertex]:
        return frozenset(vertex("r", tid) for tid in tids)

    def test_add_and_remove_keep_adjacency(self):
        graph = ConflictHypergraph()
        assert graph.add_edge(self.edge(1, 2), "c1")
        assert graph.add_edge(self.edge(2, 3), "c2")
        assert not graph.add_edge(self.edge(1, 2), "dup")
        assert graph.degree(vertex("r", 2)) == 2
        assert graph.label_of(self.edge(2, 3)) == "c2"
        assert graph.remove_edge(self.edge(1, 2))
        assert not graph.remove_edge(self.edge(1, 2))
        assert not graph.is_conflicting(vertex("r", 1))
        assert graph.edges_of(vertex("r", 2)) == [self.edge(2, 3)]
        assert graph.edge_labels == ["c2"]

    def test_swap_remove_remaps_positions(self):
        graph = ConflictHypergraph()
        for tids, label in [((1, 2), "a"), ((3, 4), "b"), ((4, 5), "c")]:
            graph.add_edge(self.edge(*tids), label)
        graph.remove_edge(self.edge(1, 2))  # last edge swaps into slot 0
        assert graph.as_dict() == {
            self.edge(3, 4): "b",
            self.edge(4, 5): "c",
        }
        assert graph.label_of(self.edge(4, 5)) == "c"
        assert graph.remove_edge(self.edge(4, 5))
        assert graph.as_dict() == {self.edge(3, 4): "b"}

    def test_subset_and_superset_queries(self):
        graph = ConflictHypergraph()
        graph.add_edge(self.edge(1), "s")
        graph.add_edge(self.edge(2, 3), "p")
        assert graph.subset_edges(self.edge(1, 2, 3)) == [
            self.edge(1)
        ] or set(graph.subset_edges(self.edge(1, 2, 3))) == {
            self.edge(1),
            self.edge(2, 3),
        }
        assert graph.superset_edges(self.edge(2)) == [self.edge(2, 3)]
        assert graph.superset_edges(self.edge(2, 3)) == []


class TestIncrementalDenials:
    def fd_engine(self):
        db = Database()
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("INSERT INTO emp VALUES ('ann', 10), ('ann', 20), ('bob', 5)")
        fd = FunctionalDependency("emp", ["name"], ["salary"])
        return db, HippoEngine(db, [fd]), [fd]

    def test_insert_derives_new_edges(self):
        db, engine, constraints = self.fd_engine()
        db.execute("INSERT INTO emp VALUES ('bob', 6), ('bob', 7)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.detection.edges_added == 3  # (5,6), (5,7), (6,7)
        assert_equivalent(engine, db, constraints)

    def test_delete_retracts_incident_edges(self):
        db, engine, constraints = self.fd_engine()
        db.execute("DELETE FROM emp WHERE salary = 20")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.detection.edges_retracted == 1
        assert len(engine.hypergraph) == 0
        assert_equivalent(engine, db, constraints)

    def test_update_retracts_and_rederives(self):
        db, engine, constraints = self.fd_engine()
        db.execute("UPDATE emp SET name = 'bob' WHERE salary = 20")
        engine.refresh()
        # ann's pair dissolves; ('bob', 20) now conflicts with ('bob', 5).
        assert engine.detection.mode == "incremental"
        assert_equivalent(engine, db, constraints)
        assert len(engine.hypergraph) == 1

    def test_noop_refresh_keeps_report(self):
        db, engine, constraints = self.fd_engine()
        engine.refresh()
        assert engine.detection.mode == "full"
        db.execute("DELETE FROM emp WHERE salary = 999")
        engine.refresh()
        assert engine.detection.mode == "full"  # nothing was pending
        assert_equivalent(engine, db, constraints)

    def test_queries_sync_automatically(self):
        db, engine, _ = self.fd_engine()
        db.execute("DELETE FROM emp WHERE salary = 20")
        answers = engine.consistent_answers("SELECT * FROM emp")
        assert ("ann", 10) in answers.rows  # recovered without refresh()
        assert engine.detection.mode == "incremental"

    def test_full_refresh_escape_hatch(self):
        db, engine, constraints = self.fd_engine()
        db.execute("INSERT INTO emp VALUES ('bob', 6)")
        engine.refresh(full=True)
        assert engine.detection.mode == "full"
        assert_equivalent(engine, db, constraints)

    def test_overflow_falls_back_to_full(self):
        db, engine, constraints = self.fd_engine()
        db.changes.feed.max_retained = 3
        for salary in range(100, 110):
            db.execute(f"INSERT INTO emp VALUES ('x{salary}', {salary})")
        engine.refresh()
        assert engine.detection.mode == "full"
        assert_equivalent(engine, db, constraints)

    def test_constraint_change_falls_back_to_full(self):
        db, engine, _ = self.fd_engine()
        fd2 = FunctionalDependency("emp", ["salary"], ["name"])
        engine.constraints.append(fd2)
        db.execute("INSERT INTO emp VALUES ('carol', 5)")
        engine.refresh()
        assert engine.detection.mode == "full"
        assert_equivalent(engine, db, engine.constraints)

    def test_ddl_falls_back_to_full(self):
        db, engine, constraints = self.fd_engine()
        db.execute("CREATE TABLE other (a INTEGER)")
        db.execute("INSERT INTO emp VALUES ('bob', 6)")
        engine.refresh()
        assert engine.detection.mode == "full"
        assert_equivalent(engine, db, constraints)

    def test_exclusion_constraint_incremental(self):
        db = Database()
        db.execute("CREATE TABLE staff (ssn INTEGER)")
        db.execute("CREATE TABLE contractor (ssn INTEGER)")
        db.execute("INSERT INTO staff VALUES (1), (2)")
        db.execute("INSERT INTO contractor VALUES (3)")
        excl = ExclusionConstraint("staff", "contractor", [("ssn", "ssn")])
        engine = HippoEngine(db, [excl])
        assert len(engine.hypergraph) == 0
        db.execute("INSERT INTO contractor VALUES (2)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.detection.edges_added == 1
        assert_equivalent(engine, db, [excl])

    def test_unlinked_condition_scan_fallback(self):
        # No equality conjunct links the atoms: the matcher must fall
        # back to scanning the second relation.
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER)")
        db.execute("INSERT INTO r VALUES (1), (5)")
        denial = DenialConstraint(
            "lt",
            (ConstraintAtom("t1", "r"), ConstraintAtom("t2", "r")),
            parse_expression("t1.a + 10 < t2.a"),
        )
        engine = HippoEngine(db, [denial])
        db.execute("INSERT INTO r VALUES (20)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert_equivalent(engine, db, [denial])
        assert len(engine.hypergraph) == 2  # (1,20), (5,20)


class TestSubsumption:
    def test_singleton_absorbs_pair_and_reports_subsumed(self):
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        negative = DenialConstraint(
            "neg", (ConstraintAtom("t", "r"),), parse_expression("t.b < 0")
        )
        engine = HippoEngine(db, [fd, negative])
        assert engine.detection.subsumed == {"fd:r:a->b": 0, "neg": 0}
        # A negative row conflicts with (1, 7) via the FD *and* is a
        # singleton violation on its own: the pair is minimized away.
        db.execute("INSERT INTO r VALUES (1, -1)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert_equivalent(engine, db, [fd, negative])
        assert engine.detection.subsumed["fd:r:a->b"] == 2
        assert engine.detection.subsumed_total == 2

    def test_full_detection_reports_subsumed(self):
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, -1)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        negative = DenialConstraint(
            "neg", (ConstraintAtom("t", "r"),), parse_expression("t.b < 0")
        )
        report = detect_conflicts(db, [fd, negative])
        # The FD pair {(1,7),(1,-1)} is absorbed by the singleton.
        assert report.per_constraint == {"fd:r:a->b": 0, "neg": 1}
        assert report.subsumed == {"fd:r:a->b": 1, "neg": 0}


class TestForeignKeyCascades:
    def chain(self):
        """parent <- child <- grandchild with a unary denial on parent."""
        db = Database()
        db.execute("CREATE TABLE parent (id INTEGER, ok INTEGER)")
        db.execute("CREATE TABLE child (id INTEGER, pid INTEGER)")
        db.execute("CREATE TABLE gc (id INTEGER, cid INTEGER)")
        db.execute("INSERT INTO parent VALUES (1, 1), (2, 1)")
        db.execute("INSERT INTO child VALUES (10, 1), (11, 2)")
        db.execute("INSERT INTO gc VALUES (100, 10), (101, 11)")
        constraints = [
            DenialConstraint(
                "bad-parent",
                (ConstraintAtom("t", "parent"),),
                parse_expression("t.ok = 0"),
            ),
            ForeignKeyConstraint("child", ["pid"], "parent", ["id"]),
            ForeignKeyConstraint("gc", ["cid"], "child", ["id"]),
        ]
        return db, HippoEngine(db, constraints), constraints

    def test_parent_delete_cascades(self):
        db, engine, constraints = self.chain()
        db.execute("DELETE FROM parent WHERE id = 1")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert_equivalent(engine, db, constraints)
        dangling = {next(iter(e)) for e in engine.hypergraph.edges}
        assert dangling == {vertex("child", 0), vertex("gc", 0)}

    def test_parent_insert_cures_chain(self):
        db, engine, constraints = self.chain()
        db.execute("DELETE FROM parent WHERE id = 1")
        engine.refresh()
        db.execute("INSERT INTO parent VALUES (1, 1)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert len(engine.hypergraph) == 0
        assert_equivalent(engine, db, constraints)

    def test_denial_singleton_feeds_chain(self):
        db, engine, constraints = self.chain()
        # Marking a parent bad deletes it in every repair, so its child
        # (and the grandchild) dangle -- without any FK-relation delta.
        db.execute("UPDATE parent SET ok = 0 WHERE id = 2")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert_equivalent(engine, db, constraints)
        assert len(engine.hypergraph) == 3  # bad parent + child + gc

    def test_resurrection_after_fk_cure(self):
        # An FD pair subsumed by an FK dangling singleton must resurface
        # when the dangling is cured by a parent insertion.
        db = Database()
        db.execute("CREATE TABLE p (id INTEGER)")
        db.execute("CREATE TABLE c (id INTEGER, pid INTEGER, v INTEGER)")
        db.execute("INSERT INTO p VALUES (1)")
        db.execute("INSERT INTO c VALUES (5, 2, 7), (5, 1, 8)")
        constraints = [
            FunctionalDependency("c", ["id"], ["v"]),
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]
        engine = HippoEngine(db, constraints)
        assert [len(e) for e in engine.hypergraph.edges] == [1]
        assert engine.detection.subsumed["fd:c:id->v"] == 1
        db.execute("INSERT INTO p VALUES (2)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert [len(e) for e in engine.hypergraph.edges] == [2]
        assert_equivalent(engine, db, constraints)

    def test_restricted_class_violation_raises(self):
        db, engine, constraints = self.chain()
        engine.constraints.append(
            FunctionalDependency("parent", ["id"], ["ok"])
        )
        db.execute("INSERT INTO parent VALUES (1, 0)")
        with pytest.raises(ConstraintError, match="restricted"):
            engine.refresh()

    def test_failed_apply_recovers_with_full_detection(self):
        db, _stale_engine, constraints = self.chain()
        constraints = constraints + [
            FunctionalDependency("parent", ["id"], ["ok"])
        ]
        engine = HippoEngine(db, constraints)
        # Push a referenced relation into a choice conflict: the apply
        # fails mid-batch...
        db.execute("INSERT INTO parent VALUES (1, 0)")
        with pytest.raises(ConstraintError):
            engine.refresh()
        # ...and after the offending row is removed, the engine falls
        # back to full detection and is exact again.
        db.execute("DELETE FROM parent WHERE ok = 0 AND id = 1")
        engine.refresh()
        assert engine.detection.mode == "full"
        assert_equivalent(engine, db, constraints)

    def test_failed_full_detection_keeps_failing_not_stale(self):
        from repro.errors import CatalogError

        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        engine = HippoEngine(db, [fd])
        db.execute("DROP TABLE r")
        with pytest.raises(CatalogError):
            engine.refresh()
        # The failure must not be swallowed on retry (stale hypergraph
        # silently served) -- every refresh keeps raising until fixed.
        with pytest.raises(CatalogError):
            engine.refresh()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (2, 1)")
        engine.refresh()
        assert engine.detection.mode == "full"
        assert len(engine.hypergraph) == 0

    def test_detached_engine_is_static_but_refreshable(self):
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        engine = HippoEngine(db, [fd])
        engine.detach()
        db.execute("DELETE FROM r WHERE b = 8")
        answers = engine.consistent_answers("SELECT * FROM r")
        assert answers.rows == []  # stale on purpose: no auto-sync
        engine.refresh()
        assert engine.detection.mode == "full"
        assert len(engine.hypergraph) == 0

    def test_incremental_restricted_check_matches_full(self):
        db = Database()
        db.execute("CREATE TABLE p (id INTEGER, v INTEGER)")
        db.execute("CREATE TABLE c (id INTEGER, pid INTEGER)")
        db.execute("INSERT INTO p VALUES (1, 5)")
        db.execute("INSERT INTO c VALUES (10, 1)")
        constraints = [
            FunctionalDependency("p", ["id"], ["v"]),
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]
        engine = HippoEngine(db, constraints)
        # A second p row with the same key creates a *choice* conflict on
        # a referenced relation: outside the restricted class, and the
        # incremental path must say so exactly like full detection.
        db.execute("INSERT INTO p VALUES (1, 6)")
        with pytest.raises(ConstraintError, match="referenced by a foreign key"):
            engine.refresh()
        with pytest.raises(ConstraintError, match="referenced by a foreign key"):
            detect_conflicts(db, constraints)


class TestDetectorInternals:
    def test_bootstrap_requires_raw(self):
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER)")
        detector = IncrementalDetector(db, [])
        report = detect_conflicts(db, [])
        with pytest.raises(ValueError, match="keep_raw"):
            detector.bootstrap(report)

    def test_matcher_indexes_are_planned_eagerly_at_attach(self):
        # The first post-bulk-load delta must not absorb an O(N) index
        # build: attaching the engine (whose detector plans matcher
        # indexes from the constraint set) creates them up front.
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8)")
        fd = FunctionalDependency("r", ["a"], ["b"])
        table = db.table("r")
        assert not table.has_index((0,))
        engine = HippoEngine(db, [fd])
        assert table.has_index((0,))  # planned at attach, before any delta
        created = table.indexed_column_sets()
        db.execute("INSERT INTO r VALUES (2, 1)")
        engine.refresh()
        # The delta reused the planned index; nothing new was built.
        assert table.indexed_column_sets() == created

    def test_first_delta_builds_no_index(self, monkeypatch):
        from repro.engine.storage import Table

        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8)")
        engine = HippoEngine(db, [FunctionalDependency("r", ["a"], ["b"])])

        def forbid(self, positions):
            raise AssertionError(
                f"index {tuple(positions)} built lazily on a delta"
            )

        monkeypatch.setattr(Table, "create_index", forbid)
        db.execute("INSERT INTO r VALUES (2, 1)")
        engine.refresh()  # must not need any new index

    def test_planned_matcher_indexes_are_shared_with_the_planner(self):
        # Matcher indexes are ordinary storage hash indexes, so the
        # query planner's index-scan selection picks them up for free.
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8), (2, 9)")
        HippoEngine(db, [FunctionalDependency("r", ["a"], ["b"])])
        assert "IndexScan" in db.explain("SELECT * FROM r WHERE a = 1")


class TestMaintainedCounters:
    """Per-constraint counters are maintained, not recounted (and the
    shadow's label index stays consistent with them)."""

    def build(self):
        db = Database()
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO r VALUES (1, 7), (1, 8)")
        constraints = [
            FunctionalDependency("r", ["a"], ["b"]),
            DenialConstraint(
                "neg", (ConstraintAtom("t", "r"),), parse_expression("t.b < 0")
            ),
        ]
        return db, HippoEngine(db, constraints), constraints

    def assert_counters_exact(self, engine, db, constraints):
        """Maintained counters == a brute-force recount == full detection."""
        detector = engine._incremental
        recount_stored: dict[str, int] = {}
        for label in detector.graph.edge_labels:
            recount_stored[label] = recount_stored.get(label, 0) + 1
        for name in detector.constraint_names:
            assert detector._stored.get(name, 0) == recount_stored.get(name, 0)
            by_label = len(detector._shadow_by_label.get(name, {}))
            recount_found = sum(
                1
                for _edge, (_primary, supports) in detector._shadow.items()
                if name in supports
            )
            assert by_label == recount_found
        full = detect_conflicts(db, constraints)
        assert engine.detection.per_constraint == full.per_constraint
        assert engine.detection.subsumed == full.subsumed

    def test_counts_pinned_through_add_subsume_resurrect(self):
        db, engine, constraints = self.build()
        assert engine.detection.per_constraint == {"fd:r:a->b": 1, "neg": 0}

        # A negative row: singleton absorbs both FD pairs it joins.
        db.execute("INSERT INTO r VALUES (1, -1)")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.detection.per_constraint == {"fd:r:a->b": 1, "neg": 1}
        assert engine.detection.subsumed == {"fd:r:a->b": 2, "neg": 0}
        self.assert_counters_exact(engine, db, constraints)

        # Curing the singleton resurrects the subsumed pairs.
        db.execute("UPDATE r SET b = 9 WHERE b = -1")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.detection.per_constraint == {"fd:r:a->b": 3, "neg": 0}
        assert engine.detection.subsumed == {"fd:r:a->b": 0, "neg": 0}
        self.assert_counters_exact(engine, db, constraints)

        # Deletions retract stored edges and their counter entries.
        db.execute("DELETE FROM r WHERE b = 8")
        db.execute("DELETE FROM r WHERE b = 9")
        engine.refresh()
        assert engine.detection.mode == "incremental"
        assert engine.detection.per_constraint == {"fd:r:a->b": 0, "neg": 0}
        self.assert_counters_exact(engine, db, constraints)

    def test_counters_exact_under_fk_rederivation(self):
        db = Database()
        db.execute("CREATE TABLE p (id INTEGER)")
        db.execute("CREATE TABLE c (id INTEGER, pid INTEGER, v INTEGER)")
        db.execute("INSERT INTO p VALUES (1)")
        db.execute("INSERT INTO c VALUES (5, 2, 7), (5, 1, 8)")
        constraints = [
            FunctionalDependency("c", ["id"], ["v"]),
            ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        ]
        engine = HippoEngine(db, constraints)
        db.execute("INSERT INTO p VALUES (2)")  # cure -> resurrection
        engine.refresh()
        assert engine.detection.mode == "incremental"
        self.assert_counters_exact(engine, db, constraints)
        db.execute("DELETE FROM p WHERE id = 1")  # new dangling chain
        engine.refresh()
        assert engine.detection.mode == "incremental"
        self.assert_counters_exact(engine, db, constraints)
