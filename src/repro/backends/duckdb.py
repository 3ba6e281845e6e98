"""The DuckDB pushdown backend (optional ``backends`` extra).

DuckDB is vectorized and columnar -- the "fast as the hardware allows"
axis of the roadmap's multi-backend item.  The module imports lazily:
:func:`duckdb_available` reports whether the driver is installed, and
constructing :class:`DuckDBBackend` without it raises
:class:`~repro.errors.BackendError`.  The differential suite *skips*
(never silently passes) its DuckDB cases when the driver is absent.

DuckDB's ``rowid`` pseudo-column cannot be assigned on insert, so
mirrors carry native tids in an explicit leading ``_tid`` column
instead; everything else is the shared mirror machinery.
"""

from __future__ import annotations

import importlib
from typing import Any, Optional

from repro.backends.base import BackendCapabilities
from repro.backends.mirror import MirrorBackend
from repro.engine.types import SQLType
from repro.errors import BackendError

_CAPABILITIES = BackendCapabilities(pushes_sql=True, requires_sync=True)

_TYPE_NAMES = {
    SQLType.INTEGER: "BIGINT",
    SQLType.REAL: "DOUBLE",
    SQLType.TEXT: "VARCHAR",
    SQLType.BOOLEAN: "BOOLEAN",
}


def _load_duckdb() -> Optional[Any]:
    try:
        return importlib.import_module("duckdb")
    except ImportError:
        return None


def duckdb_available() -> bool:
    """Whether the optional ``duckdb`` driver is importable."""
    return _load_duckdb() is not None


class DuckDBBackend(MirrorBackend):
    """Push rewritten queries and residual joins to DuckDB.

    Raises:
        BackendError: on construction when ``duckdb`` is not installed
            (install the ``backends`` extra).
    """

    name = "duckdb"
    tid_column = "_tid"
    tid_is_rowid = False

    def __init__(self) -> None:
        module = _load_duckdb()
        if module is None:
            raise BackendError(
                "the duckdb driver is not installed; install the"
                " 'backends' extra (pip install repro[backends])"
            )
        self._duckdb = module
        super().__init__()

    @property
    def capabilities(self) -> BackendCapabilities:
        """Pushes SQL; mirrors must be synced."""
        return _CAPABILITIES

    def _connect(self) -> Any:
        """An in-memory DuckDB database."""
        return self._duckdb.connect(":memory:")

    def _driver_errors(self) -> tuple[type[BaseException], ...]:
        """DuckDB's exception root."""
        return (self._duckdb.Error,)

    def type_name(self, sql_type: SQLType) -> str:
        """DuckDB column types (widened integers, native booleans)."""
        return _TYPE_NAMES[sql_type]
