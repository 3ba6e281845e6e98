# hippolint-fixture: src/repro/engine/example.py
"""Good: constant SQL may travel through variables; interpolated text
never reaches an executor, and reassignment kills stale taint; SQL
text comes from the to_sql renderers with values bound."""

from repro.ra.to_sql import insert_sql, render_tree


def fetch(conn: object) -> list:
    query = "SELECT a, b FROM r WHERE a = ?"
    rows = conn.execute(query, (1,))
    return list(rows)


def relabel(conn: object, table: str, audit: object) -> None:
    label = f"checking {table}"
    audit.record(label)
    query = label
    query = "SELECT 1"
    conn.execute(query)


def store(db, conn, name, tid, row, tree) -> None:
    conn.execute(insert_sql(name, len(row) + 1), (tid,) + row)
    rendered = render_tree(tree)
    conn.execute(rendered.text, rendered.params)
    db.query("SELECT a FROM r WHERE a = 1")
