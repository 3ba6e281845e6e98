"""Columnar batch execution: equivalence with the row-at-a-time paths.

The column-major snapshot (:class:`ColumnStore`) sits *behind* the table
API: every consumer must see exactly the answers the row paths produce,
the cached batch must be dropped on any mutation, and the batched change
application (`Table.apply_changes` / `apply_feed_records`) must leave
state identical to per-record replay -- including on failure.
"""

from __future__ import annotations

import pytest

from repro.engine.columnar import ColumnStore
from repro.engine.database import (
    Database,
    apply_feed_record,
    apply_feed_records,
)
from repro.engine.feed import ChangeFeed
from repro.errors import ExecutionError, TypeError_


def fresh_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
    db.execute(
        "INSERT INTO emp VALUES ('ann', 10), ('bob', 5), ('ann', 20)"
    )
    return db


class TestColumnStore:
    ITEMS = [(1, ("a", 10)), (3, ("b", 20)), (7, ("a", 30))]

    def test_rows_and_tids_preserve_order(self):
        store = ColumnStore(self.ITEMS, arity=2)
        assert store.tids == (1, 3, 7)
        assert store.rows == [("a", 10), ("b", 20), ("a", 30)]
        assert len(store) == 3

    def test_column_extraction_is_lazy_and_cached(self):
        store = ColumnStore(self.ITEMS, arity=2)
        first = store.column(0)
        assert first == ["a", "b", "a"]
        assert store.column(0) is first
        assert store.column(1) == [10, 20, 30]

    def test_tid_rows_suffix_the_tid(self):
        store = ColumnStore(self.ITEMS, arity=2)
        batch = store.tid_rows()
        assert batch == [("a", 10, 1), ("b", 20, 3), ("a", 30, 7)]
        assert store.tid_rows() is batch

    def test_select_equals_single_column(self):
        store = ColumnStore(self.ITEMS, arity=2)
        assert store.select_equals((0,), ("a",)) == [("a", 10), ("a", 30)]
        assert store.select_equals((0,), ("z",)) == []

    def test_select_equals_multi_column(self):
        store = ColumnStore(self.ITEMS, arity=2)
        assert store.select_equals((0, 1), ("a", 30)) == [("a", 30)]

    def test_select_equals_null_matches_nothing(self):
        # SQL equality with NULL is never true -- same as IndexScan.
        store = ColumnStore(self.ITEMS, arity=2)
        assert store.select_equals((0,), (None,)) == []

    def test_empty_store(self):
        store = ColumnStore([], arity=2)
        assert store.rows == []
        assert store.tid_rows() == []
        assert store.select_equals((0,), ("a",)) == []


class TestTableColumnarCache:
    def test_cached_until_mutation(self):
        db = fresh_db()
        table = db.table("emp")
        store = table.columnar()
        assert table.columnar() is store

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda t: t.insert(("cyd", 7)),
            lambda t: t.restore(99, ("cyd", 7)),
            lambda t: t.delete(next(iter(t.tids()))),
            lambda t: t.update(next(iter(t.tids())), ("cyd", 7)),
            lambda t: t.apply_changes([(99, ("cyd", 7), "insert")]),
        ],
    )
    def test_every_mutation_drops_the_cache(self, mutate):
        db = fresh_db()
        table = db.table("emp")
        stale = table.columnar()
        mutate(table)
        fresh = table.columnar()
        assert fresh is not stale
        assert sorted(fresh.tids) == sorted(table.tids())


class TestScanEquivalence:
    def test_unrestricted_scan_answers_match(self):
        db = fresh_db()
        result = db.execute("SELECT name, salary FROM emp ORDER BY salary")
        assert result.rows == [("bob", 5), ("ann", 10), ("ann", 20)]

    def test_rows_scanned_counts_the_whole_batch(self):
        db = fresh_db()
        db.stats.reset()
        db.execute("SELECT name FROM emp")
        assert db.stats.rows_scanned == 3

    def test_scan_after_mutation_sees_fresh_batch(self):
        db = fresh_db()
        db.execute("SELECT name FROM emp")
        db.execute("DELETE FROM emp WHERE salary = 20")
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 2


class TestColumnEqScan:
    def test_planner_uses_columnar_equality_without_an_index(self):
        db = fresh_db()
        plan = db.explain("SELECT salary FROM emp WHERE name = 'ann'")
        assert "ColumnEqScan" in plan
        assert "IndexScan" not in plan

    def test_index_beats_the_columnar_fallback(self):
        db = fresh_db()
        db.execute("CREATE INDEX idx_name ON emp (name)")
        plan = db.explain("SELECT salary FROM emp WHERE name = 'ann'")
        assert "IndexScan" in plan
        assert "ColumnEqScan" not in plan

    def test_answers_match_the_filter_path(self):
        db = fresh_db()
        fallback = db.execute(
            "SELECT salary FROM emp WHERE name = 'ann' ORDER BY salary"
        )
        db.execute("CREATE INDEX idx_name ON emp (name)")
        indexed = db.execute(
            "SELECT salary FROM emp WHERE name = 'ann' ORDER BY salary"
        )
        assert fallback.rows == indexed.rows == [(10,), (20,)]

    def test_multi_column_equality(self):
        db = fresh_db()
        result = db.execute(
            "SELECT name FROM emp WHERE name = 'ann' AND salary = 20"
        )
        assert result.rows == [("ann",)]

    def test_incomparable_types_still_raise(self):
        # Python `==` would silently return nothing for TEXT vs INTEGER;
        # the engine's comparison semantics raise instead, so the
        # planner must keep incomparable conjuncts on the filter path.
        db = fresh_db()
        with pytest.raises(TypeError_):
            db.execute("SELECT name FROM emp WHERE name = 5")

    def test_null_literal_matches_nothing(self):
        db = fresh_db()
        db.execute("INSERT INTO emp (salary) VALUES (1)")
        assert db.execute("SELECT salary FROM emp WHERE name = NULL").rows == []


class TestApplyChanges:
    def changes(self):
        return [
            (1, ("ann", 10), "insert"),
            (2, ("bob", 5), "insert"),
            (1, None, "delete"),
            (3, ("cyd", 7), "insert"),
        ]

    def build(self, batched: bool) -> Database:
        db = Database()
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        table = db.table("emp")
        if batched:
            table.apply_changes(self.changes())
        else:
            for tid, row, op in self.changes():
                if op == "insert":
                    table.restore(tid, row)
                else:
                    table.delete(tid)
        return db

    def test_batched_equals_per_record(self):
        batched = self.build(batched=True)
        sequential = self.build(batched=False)
        assert (
            batched.execute("SELECT * FROM emp ORDER BY salary").rows
            == sequential.execute("SELECT * FROM emp ORDER BY salary").rows
        )
        assert sorted(batched.table("emp").tids()) == sorted(
            sequential.table("emp").tids()
        )

    def test_next_tid_continues_past_restored_tids(self):
        db = self.build(batched=True)
        new_tid = db.table("emp").insert(("dee", 1))
        assert new_tid > 3

    def test_failure_leaves_the_per_record_prefix_applied(self):
        db = Database()
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        table = db.table("emp")
        bad = [
            (1, ("ann", 10), "insert"),
            (1, ("dup", 1), "insert"),  # tid collision fails here
            (2, ("bob", 5), "insert"),
        ]
        with pytest.raises(ExecutionError):
            table.apply_changes(bad)
        # State identical to per-record replay stopping at the failure.
        assert table.lookup(("ann", 10)) == frozenset({1})
        assert table.lookup(("bob", 5)) == frozenset()
        assert table.insert(("dee", 1)) > 1

    def test_indexes_maintained_through_batched_apply(self):
        db = Database()
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute("CREATE INDEX idx_name ON emp (name)")
        db.table("emp").apply_changes(self.changes())
        assert db.execute(
            "SELECT salary FROM emp WHERE name = 'cyd'"
        ).rows == [(7,)]


class TestFeedReplayEquivalence:
    def feed_records(self, tmp_path, name):
        directory = tmp_path / name
        db = Database(durable=str(directory))
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        db.execute("CREATE TABLE u (x INTEGER)")
        for i in range(20):
            db.execute(f"INSERT INTO t VALUES ({i}, 'v{i % 3}')")
            if i % 4 == 0:
                db.execute(f"INSERT INTO u VALUES ({i})")
        db.execute("DELETE FROM t WHERE a < 5")
        db.execute("UPDATE t SET b = 'z' WHERE a = 7")
        db.changes.feed.flush()
        feed = ChangeFeed(str(directory))
        records = list(feed.iter_records())
        feed.close()
        db.changes.feed.close()
        return records

    def test_batched_replay_equals_per_record_replay(self, tmp_path):
        records = self.feed_records(tmp_path, "src")
        one = Database()
        with one.changes.feed.suspended():
            for record in records:
                apply_feed_record(one, record)
        many = Database()
        with many.changes.feed.suspended():
            apply_feed_records(many, records)
        for table in ("t", "u"):
            left = sorted(
                (tid, row) for tid, row in one.table(table).items()
            )
            right = sorted(
                (tid, row) for tid, row in many.table(table).items()
            )
            assert left == right

    def test_durable_reopen_uses_batched_replay(self, tmp_path):
        self.feed_records(tmp_path, "db")
        reopened = Database(durable=str(tmp_path / "db"))
        assert reopened.restore_mode == "replay"
        assert (
            reopened.execute("SELECT COUNT(*) FROM t").scalar() == 15
        )
        assert reopened.execute(
            "SELECT b FROM t WHERE a = 7"
        ).rows == [("z",)]
        reopened.changes.feed.close()


class TestReplicaBatchApply:
    def test_batch_and_per_record_replicas_agree(self, tmp_path):
        from repro.conflicts import ReplicaHypergraph, detect_conflicts
        from repro.constraints import FunctionalDependency

        directory = str(tmp_path / "db")
        db = Database(durable=directory)
        db.execute("CREATE TABLE emp (name TEXT, salary INTEGER)")
        db.execute(
            "INSERT INTO emp VALUES ('ann', 10), ('ann', 20), ('bob', 5)"
        )
        db.changes.feed.flush()
        fd = FunctionalDependency("emp", ["name"], ["salary"])

        feed_a = ChangeFeed(directory)
        batched = ReplicaHypergraph(feed_a, [fd], group="batched")
        feed_b = ChangeFeed(directory)

        def per_record_graph() -> dict:
            # The reference: the replica's committed prefix replayed
            # record by record on a second reader instance.
            feed_b.refresh()
            plain = Database()
            with plain.changes.feed.suspended():
                for record in feed_b.iter_records(upto=batched.committed):
                    apply_feed_record(plain, record)
            assert sorted(plain.table("emp").items()) == sorted(
                batched.db.table("emp").items()
            )
            return detect_conflicts(plain, [fd]).hypergraph.as_dict()

        batched.sync()
        assert batched.graph.as_dict() == per_record_graph()
        db.execute("INSERT INTO emp VALUES ('bob', 6)")
        db.changes.feed.flush()
        batched.sync()
        assert batched.graph.as_dict() == per_record_graph()
        assert len(batched.graph.as_dict()) == 2
        feed_a.close()
        feed_b.close()
        db.changes.feed.close()
