"""End-to-end SQL query tests against the engine (planner + executor)."""

import pytest

from repro.engine import Database
from repro.errors import PlanError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE emp (name TEXT, dept TEXT, salary INTEGER)")
    database.execute(
        "INSERT INTO emp VALUES"
        " ('ann','cs',10), ('bob','ee',20), ('carol','cs',15),"
        " ('dave','ee',18), ('erin','cs',11)"
    )
    database.execute("CREATE TABLE dept (name TEXT, budget INTEGER)")
    database.execute("INSERT INTO dept VALUES ('cs', 100), ('ee', 200), ('me', 50)")
    return database


class TestSelection:
    def test_where(self, db):
        rows = db.query("SELECT name FROM emp WHERE salary > 14").rows
        assert sorted(rows) == [("bob",), ("carol",), ("dave",)]

    def test_select_expression(self, db):
        rows = db.query("SELECT name, salary * 2 FROM emp WHERE name = 'ann'").rows
        assert rows == [("ann", 20)]

    def test_column_aliases_in_output(self, db):
        result = db.query("SELECT name AS who, salary pay FROM emp WHERE salary = 10")
        assert result.columns == ["who", "pay"]

    def test_select_without_from(self, db):
        assert db.query("SELECT 1 + 1, 'x'").rows == [(2, "x")]

    def test_distinct(self, db):
        rows = db.query("SELECT DISTINCT dept FROM emp").rows
        assert sorted(rows) == [("cs",), ("ee",)]

    def test_star(self, db):
        assert len(db.query("SELECT * FROM emp").rows[0]) == 3

    def test_qualified_star(self, db):
        rows = db.query(
            "SELECT d.* FROM emp e, dept d WHERE e.dept = d.name AND e.name = 'bob'"
        ).rows
        assert rows == [("ee", 200)]


class TestJoins:
    def test_implicit_join(self, db):
        rows = db.query(
            "SELECT e.name, d.budget FROM emp e, dept d WHERE e.dept = d.name"
            " AND e.salary > 15"
        ).rows
        assert sorted(rows) == [("bob", 200), ("dave", 200)]

    def test_explicit_join(self, db):
        rows = db.query(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name"
            " WHERE d.budget > 150"
        ).rows
        assert sorted(rows) == [("bob",), ("dave",)]

    def test_left_join_pads_nulls(self, db):
        rows = db.query(
            "SELECT d.name, e.name FROM dept d LEFT JOIN emp e ON e.dept = d.name"
            " WHERE d.name = 'me'"
        ).rows
        assert rows == [("me", None)]

    def test_cross_join_count(self, db):
        rows = db.query("SELECT * FROM emp CROSS JOIN dept").rows
        assert len(rows) == 15

    def test_self_join(self, db):
        rows = db.query(
            "SELECT a.name, b.name FROM emp a, emp b"
            " WHERE a.dept = b.dept AND a.name < b.name"
        ).rows
        assert ("ann", "carol") in rows and ("bob", "dave") in rows

    def test_hash_join_used_for_equi_join(self, db):
        plan_text = db.explain(
            "SELECT * FROM emp e, dept d WHERE e.dept = d.name"
        )
        assert "HashJoin" in plan_text
        # Whatever its FROM position, a source takes its own conjuncts
        # before it is joined.
        for from_list in ("emp e, dept d", "dept d, emp e"):
            plan_text = db.explain(
                f"SELECT e.name FROM {from_list}"
                " WHERE e.dept = d.name AND d.budget > 150"
            )
            assert "HashJoin" in plan_text
            assert "    Filter\n      Scan(dept)" in plan_text

    def test_non_equi_join_uses_nested_loop(self, db):
        plan_text = db.explain(
            "SELECT * FROM emp e, dept d WHERE e.salary < d.budget"
        )
        assert "NestedLoopJoin" in plan_text

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE loc (dept TEXT, city TEXT)")
        db.execute("INSERT INTO loc VALUES ('cs','buffalo'), ('ee','cracow')")
        rows = db.query(
            "SELECT e.name, l.city FROM emp e, dept d, loc l"
            " WHERE e.dept = d.name AND d.name = l.dept AND e.salary >= 18"
        ).rows
        assert sorted(rows) == [("bob", "cracow"), ("dave", "cracow")]


class TestSetOperations:
    def test_union_removes_duplicates(self, db):
        rows = db.query(
            "SELECT dept FROM emp UNION SELECT name FROM dept"
        ).rows
        assert sorted(rows) == [("cs",), ("ee",), ("me",)]

    def test_union_all_keeps_duplicates(self, db):
        rows = db.query(
            "SELECT dept FROM emp WHERE dept='cs' UNION ALL SELECT 'cs'"
        ).rows
        assert rows == [("cs",)] * 4

    def test_except(self, db):
        rows = db.query("SELECT name FROM dept EXCEPT SELECT dept FROM emp").rows
        assert rows == [("me",)]

    def test_intersect(self, db):
        rows = db.query("SELECT name FROM dept INTERSECT SELECT dept FROM emp").rows
        assert sorted(rows) == [("cs",), ("ee",)]

    def test_arity_mismatch_rejected(self, db):
        with pytest.raises(PlanError):
            db.query("SELECT name, dept FROM emp UNION SELECT name FROM dept")


class TestOrderLimit:
    def test_order_by_column(self, db):
        rows = db.query("SELECT name, salary FROM emp ORDER BY salary DESC").rows
        assert rows[0] == ("bob", 20) and rows[-1] == ("ann", 10)

    def test_order_by_position(self, db):
        rows = db.query("SELECT name, salary FROM emp ORDER BY 2").rows
        assert rows[0] == ("ann", 10)

    def test_order_by_position_out_of_range(self, db):
        with pytest.raises(PlanError):
            db.query("SELECT name FROM emp ORDER BY 3")

    def test_limit_offset(self, db):
        rows = db.query("SELECT name FROM emp ORDER BY name LIMIT 2 OFFSET 1").rows
        assert rows == [("bob",), ("carol",)]

    def test_order_by_alias(self, db):
        rows = db.query("SELECT salary AS pay FROM emp ORDER BY pay LIMIT 1").rows
        assert rows == [(10,)]


class TestDerivedTables:
    def test_derived_table(self, db):
        rows = db.query(
            "SELECT d.who FROM (SELECT name AS who, salary FROM emp"
            " WHERE salary > 14) AS d WHERE d.salary < 20"
        ).rows
        assert sorted(rows) == [("carol",), ("dave",)]

    def test_derived_table_join(self, db):
        rows = db.query(
            "SELECT e.name, t.budget FROM emp e,"
            " (SELECT name, budget FROM dept WHERE budget >= 100) AS t"
            " WHERE e.dept = t.name AND e.salary = 20"
        ).rows
        assert rows == [("bob", 200)]


class TestErrors:
    def test_unknown_column(self, db):
        with pytest.raises(PlanError):
            db.query("SELECT missing FROM emp")

    def test_ambiguous_column(self, db):
        with pytest.raises(PlanError, match="ambiguous"):
            db.query("SELECT name FROM emp, dept")
        with pytest.raises(PlanError, match="ambiguous"):
            db.query("SELECT * FROM emp, dept WHERE name = 'cs'")

    def test_unknown_alias_star(self, db):
        with pytest.raises(PlanError):
            db.query("SELECT zz.* FROM emp")
