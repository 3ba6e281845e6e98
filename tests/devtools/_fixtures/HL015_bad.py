# hippolint-fixture: src/repro/engine/example.py
"""Bad: interpolated SQL reaches execute sinks, directly or through
variables."""


def fetch(conn: object, table: str) -> list:
    query = f"SELECT * FROM {table}"
    rows = conn.execute(query)
    return list(rows)


def purge(conn: object, table: str, keep: int) -> None:
    statement = "DELETE FROM " + table
    statement += " WHERE id > %d" % keep
    conn.execute(statement)


def store(db, conn, name, tid, row) -> None:
    db.execute(f"INSERT INTO {name} VALUES ({tid})")
    db.query("SELECT * FROM " + name)
    conn.execute("DELETE FROM %s" % name)
    conn.executemany("INSERT INTO {} VALUES (?)".format(name), [row])
