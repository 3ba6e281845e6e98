"""Unit tests for the execution-backend layer.

Covers the registry, capability flags, attach/close lifecycle, the
versioned mirror sync, read-side type coercion, tid pinning, and the
Database routing seam (pushdown, fallback accounting, backend-keyed
plan cache).  Cross-backend answer equality on randomized workloads
lives in :mod:`test_differential`.
"""

import pytest

from repro.backends import (
    BACKENDS,
    NativeBackend,
    SQLiteBackend,
    available_backends,
    create_backend,
    duckdb_available,
)
from repro.backends.duckdb import DuckDBBackend
from repro.constraints import FunctionalDependency
from repro.core.hippo import HippoEngine
from repro.errors import BackendError
from repro.ra import (
    Atom,
    CatalogSchemaProvider,
    SJUDCore,
    from_sql_query,
    tree_to_query,
)
from repro.rewriting import RewritingEngine
from repro.sql import ast
from repro.sql.parser import parse_query


def tree_of(db, text):
    return from_sql_query(parse_query(text), CatalogSchemaProvider(db.catalog))


@pytest.fixture
def sqlite_backend(two_table_db):
    backend = SQLiteBackend()
    backend.attach(two_table_db)
    yield backend
    backend.close()


@pytest.fixture
def native_backend(two_table_db):
    backend = NativeBackend()
    backend.attach(two_table_db)
    return backend


class TestRegistry:
    def test_known_names(self):
        assert set(BACKENDS) == {"native", "sqlite", "duckdb"}

    def test_create_by_name(self, db):
        backend = create_backend("sqlite", db)
        assert isinstance(backend, SQLiteBackend)
        assert backend.db is db

    def test_create_is_case_insensitive(self):
        assert isinstance(create_backend("Native"), NativeBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(BackendError, match="unknown backend"):
            create_backend("postgres")

    def test_available_backends(self):
        names = available_backends()
        assert names[:2] == ["native", "sqlite"]
        assert ("duckdb" in names) == duckdb_available()

    def test_duckdb_gating(self):
        if duckdb_available():
            assert isinstance(create_backend("duckdb"), DuckDBBackend)
        else:
            with pytest.raises(BackendError, match="not installed"):
                create_backend("duckdb")


class TestProtocol:
    def test_capability_flags(self):
        native = NativeBackend().capabilities
        assert not native.pushes_sql and not native.requires_sync
        sqlite = SQLiteBackend().capabilities
        assert sqlite.pushes_sql and sqlite.requires_sync

    def test_unattached_db_raises(self):
        with pytest.raises(BackendError, match="not attached"):
            NativeBackend().db

    def test_close_releases_database(self, two_table_db):
        backend = SQLiteBackend()
        backend.attach(two_table_db)
        backend.close()
        with pytest.raises(BackendError, match="not attached"):
            backend.db

    def test_reattach_after_close(self, two_table_db):
        backend = SQLiteBackend()
        backend.attach(two_table_db)
        assert backend.execute_tree(tree_of(two_table_db, "SELECT * FROM r"))
        backend.close()
        backend.attach(two_table_db)
        assert backend.execute_tree(tree_of(two_table_db, "SELECT * FROM r"))


class TestAnswerEquality:
    QUERIES = [
        "SELECT * FROM r WHERE a >= 2 AND b < 6",
        "SELECT x.a, x.b, y.b FROM r x, s y WHERE x.a = y.a",
        "SELECT * FROM r WHERE a IN (1, 4) UNION SELECT * FROM s",
        "SELECT * FROM r EXCEPT SELECT * FROM s WHERE a BETWEEN 2 AND 4",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_execute_tree_matches_native(
        self, two_table_db, sqlite_backend, native_backend, text
    ):
        tree = tree_of(two_table_db, text)
        assert sqlite_backend.execute_tree(tree) == native_backend.execute_tree(
            tree
        )

    @pytest.mark.parametrize("text", QUERIES)
    def test_execute_query_matches_native(
        self, two_table_db, sqlite_backend, native_backend, text
    ):
        query = tree_to_query(tree_of(two_table_db, text))
        columns, rows = sqlite_backend.execute_query(query)
        native_columns, native_rows = native_backend.execute_query(query)
        assert columns == native_columns
        assert set(rows) == set(native_rows)

    def test_residual_join_matches_native(
        self, two_table_db, sqlite_backend, native_backend
    ):
        condition = ast.BinaryOp(
            "AND",
            ast.BinaryOp("=", ast.ColumnRef("t0", "a"), ast.ColumnRef("t1", "a")),
            ast.BinaryOp("<>", ast.ColumnRef("t0", "b"), ast.ColumnRef("t1", "b")),
        )
        core = SJUDCore((Atom("t0", "r"), Atom("t1", "r")), condition, ())
        native_edges = native_backend.residual_join(core)
        assert native_edges  # r has the key-violating pairs (1,1)/(1,2)
        assert set(sqlite_backend.residual_join(core)) == set(native_edges)

    def test_boolean_round_trip(self, db):
        db.execute("CREATE TABLE t (a INTEGER, ok BOOLEAN)")
        db.execute("INSERT INTO t VALUES (1, TRUE), (2, FALSE), (3, TRUE)")
        backend = SQLiteBackend()
        backend.attach(db)
        tree = tree_of(db, "SELECT * FROM t WHERE ok = TRUE")
        native = NativeBackend()
        native.attach(db)
        answers = backend.execute_tree(tree)
        assert answers == native.execute_tree(tree)
        assert all(isinstance(row[1], bool) for row in answers)
        backend.close()


class TestMirrorSync:
    def rebuild_count(self, backend, monkeypatch):
        calls = []
        original = backend._rebuild_mirror

        def counting(conn, table):
            calls.append(table.schema.name)
            original(conn, table)

        monkeypatch.setattr(backend, "_rebuild_mirror", counting)
        return calls

    def test_sync_is_lazy(self, two_table_db, sqlite_backend, monkeypatch):
        calls = self.rebuild_count(sqlite_backend, monkeypatch)
        tree = tree_of(two_table_db, "SELECT * FROM r")
        sqlite_backend.execute_tree(tree)
        assert sorted(calls) == ["r", "s"]
        sqlite_backend.execute_tree(tree)
        assert sorted(calls) == ["r", "s"]  # unchanged tables: no rebuild

    def test_mutation_forces_resync(self, two_table_db, sqlite_backend):
        tree = tree_of(two_table_db, "SELECT * FROM r")
        before = sqlite_backend.execute_tree(tree)
        two_table_db.execute("INSERT INTO r VALUES (8, 8)")
        after = sqlite_backend.execute_tree(tree)
        assert after == before | {(8, 8)}

    def test_delete_and_update_resync(self, two_table_db, sqlite_backend):
        tree = tree_of(two_table_db, "SELECT * FROM r")
        two_table_db.execute("DELETE FROM r WHERE a = 1")
        two_table_db.execute("UPDATE r SET b = 0 WHERE a = 2")
        native = NativeBackend()
        native.attach(two_table_db)
        assert sqlite_backend.execute_tree(tree) == native.execute_tree(tree)

    def test_drop_create_resync(self, two_table_db, sqlite_backend):
        tree = tree_of(two_table_db, "SELECT * FROM r")
        sqlite_backend.execute_tree(tree)
        two_table_db.execute("DROP TABLE r")
        two_table_db.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
        two_table_db.execute("INSERT INTO r VALUES (7, 7)")
        assert sqlite_backend.execute_tree(tree_of(two_table_db, "SELECT * FROM r")) == {
            (7, 7)
        }

    def test_dropped_table_mirror_removed(self, two_table_db, sqlite_backend):
        sqlite_backend.sync()
        assert "s" in sqlite_backend._mirrored
        two_table_db.execute("DROP TABLE s")
        sqlite_backend.sync()
        assert "s" not in sqlite_backend._mirrored

    def test_tids_survive_the_crossing(self, two_table_db, sqlite_backend):
        """Mirror rowids are exactly the native tids."""
        sqlite_backend.sync()
        rows = sqlite_backend.connection.execute(
            "SELECT rowid, a, b FROM r ORDER BY rowid"
        ).fetchall()
        native = [
            (tid,) + row
            for tid, row in two_table_db.catalog.table("r").items()
        ]
        assert [tuple(row) for row in rows] == native

    def test_reserved_tid_column_rejected(self, db):
        db.execute("CREATE TABLE w (rowid INTEGER, b INTEGER)")
        backend = SQLiteBackend()
        backend.attach(db)
        with pytest.raises(BackendError, match="reserves"):
            backend.sync()
        backend.close()


class TestDatabaseSeam:
    def test_attach_and_detach(self, two_table_db):
        assert two_table_db.backend is None
        assert two_table_db.backend_id == "native"
        backend = SQLiteBackend()
        two_table_db.attach_backend(backend)
        assert two_table_db.backend is backend
        assert two_table_db.backend_id == "sqlite"
        two_table_db.detach_backend()
        assert two_table_db.backend is None
        assert two_table_db.backend_id == "native"

    def test_selects_route_through_backend(self, two_table_db):
        native = two_table_db.query("SELECT a, b FROM r WHERE a > 1")
        two_table_db.attach_backend(SQLiteBackend())
        before = two_table_db.stats.backend_pushdowns
        pushed = two_table_db.query("SELECT a, b FROM r WHERE a > 1")
        assert two_table_db.stats.backend_pushdowns == before + 1
        assert pushed.columns == native.columns
        assert set(pushed.rows) == set(native.rows)

    def test_native_backend_does_not_push(self, two_table_db):
        two_table_db.attach_backend(NativeBackend())
        two_table_db.query("SELECT a, b FROM r")
        assert two_table_db.stats.backend_pushdowns == 0

    def test_fallback_on_backend_error(self, two_table_db):
        """A value outside SQLite's integer range falls back natively,
        and every entry point counts exactly one fallback for it."""
        huge = 2**70
        two_table_db.attach_backend(SQLiteBackend())
        result = two_table_db.query(f"SELECT a, b FROM r WHERE a <> {huge}")
        assert two_table_db.stats.backend_fallbacks == 1
        assert len(result.rows) == 5

        stats = two_table_db.stats
        two_table_db.execute(f"INSERT INTO r VALUES ({huge}, 1)")
        key = FunctionalDependency("r", ("a",), ("b",))
        hippo = HippoEngine(two_table_db, [key], backend=two_table_db.backend)
        assert stats.backend_fallbacks == 2  # conflict detection
        assert len(hippo.raw_answers("SELECT * FROM r").rows) == 6
        assert stats.backend_fallbacks == 3
        # Re-entering the database's executor must not count it twice.
        rewriting = RewritingEngine(two_table_db, [key])
        answers = rewriting.consistent_answers(
            "SELECT * FROM r", backend=two_table_db.backend
        )
        assert (huge, 1) in answers.rows
        assert stats.backend_fallbacks == 4

    def test_dml_stays_native(self, two_table_db):
        two_table_db.attach_backend(SQLiteBackend())
        two_table_db.execute("INSERT INTO r VALUES (6, 6)")
        assert (6, 6) in set(two_table_db.query("SELECT a, b FROM r").rows)

    def test_plan_cache_keys_are_backend_scoped(self, two_table_db):
        sql = "SELECT a, b FROM r WHERE b = 4"
        two_table_db.query(sql)  # cached under the native backend id
        two_table_db.attach_backend(SQLiteBackend())
        before = two_table_db.stats.backend_pushdowns
        two_table_db.query(sql)
        # a native-keyed cache hit would have skipped the pushdown
        assert two_table_db.stats.backend_pushdowns == before + 1
