"""Execution statistics.

The paper's optimizations are *about* avoiding work on the RDBMS side
(membership queries, envelope re-evaluation), so the engine counts the
operations the Hippo layer cares about.  Benchmarks report these counters
alongside wall-clock time, the way the demonstration compares approaches.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class ExecutionStats:
    """Mutable counters shared by a :class:`~repro.engine.database.Database`.

    Attributes:
        rows_scanned: rows produced by base-table scans.
        point_lookups: exact-row membership lookups (the Prover's
            "membership queries" in the paper's base system).
        statements: SQL statements executed.
        subquery_evaluations: correlated-subquery executions.
        subquery_cache_hits: correlated-subquery results served from cache.
        plan_cache_hits: statements served from the statement→plan cache.
        plan_cache_misses: statements that had to be parsed and planned.
        plan_cache_invalidations: cached plans discarded because the
            catalog epoch moved past them (DDL, index or constraint
            changes).
        backend_pushdowns: statements a pushdown backend executed
            (routed SELECTs, pushed rewritten queries and residual
            joins alike).
        backend_fallbacks: SELECTs a pushdown backend declined
            (:class:`~repro.errors.BackendError`) that fell back to
            native execution.
    """

    rows_scanned: int = 0
    point_lookups: int = 0
    statements: int = 0
    subquery_evaluations: int = 0
    subquery_cache_hits: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_invalidations: int = 0
    backend_pushdowns: int = 0
    backend_fallbacks: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        for counter in fields(self):
            setattr(self, counter.name, 0)

    def snapshot(self) -> dict[str, int]:
        """Copy the counters into a plain dict (for reports), in
        declaration order."""
        return {counter.name: getattr(self, counter.name) for counter in fields(self)}
