"""The SQLite pushdown backend (stdlib :mod:`sqlite3`, always available).

Relations mirror into an in-memory SQLite database with the native tid
pinned into SQLite's ``rowid`` -- mirrors carry exactly the native
columns, inserts name ``rowid`` explicitly, and residual joins select
``alias.rowid`` per atom, so conflict edges come back as native tids
with no extra column in the visible schema.

Dialect alignment with the native engine:

* ``PRAGMA case_sensitive_like = ON`` -- the native engine's ``LIKE``
  is case-sensitive; SQLite's default is not.
* ``BOOLEAN`` columns are stored as ``INTEGER`` and coerced back to
  :class:`bool` on read using the native schema's declared types.
"""

from __future__ import annotations

import sqlite3

from repro.backends.base import BackendCapabilities
from repro.backends.mirror import MirrorBackend
from repro.engine.types import SQLType

_CAPABILITIES = BackendCapabilities(pushes_sql=True, requires_sync=True)

_TYPE_NAMES = {
    SQLType.INTEGER: "INTEGER",
    SQLType.REAL: "REAL",
    SQLType.TEXT: "TEXT",
    SQLType.BOOLEAN: "INTEGER",
}


class SQLiteBackend(MirrorBackend):
    """Push rewritten queries and residual joins to stdlib SQLite."""

    name = "sqlite"
    tid_column = "rowid"
    tid_is_rowid = True

    @property
    def capabilities(self) -> BackendCapabilities:
        """Pushes SQL; mirrors must be synced."""
        return _CAPABILITIES

    def _connect(self) -> sqlite3.Connection:
        """An in-memory database aligned with native semantics."""
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute("PRAGMA case_sensitive_like = ON")
        except BaseException:
            conn.close()
            raise
        return conn

    def _driver_errors(self) -> tuple[type[BaseException], ...]:
        """sqlite3's exception root (plus overflow on huge integers)."""
        return (sqlite3.Error, OverflowError)

    def type_name(self, sql_type: SQLType) -> str:
        """SQLite column types (BOOLEAN stored as INTEGER)."""
        return _TYPE_NAMES[sql_type]
