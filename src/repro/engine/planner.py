"""Translation of query ASTs into physical plans.

The planner performs the classic minimal set of rewrites a real system
needs to make the Hippo experiments meaningful:

* WHERE clauses are split into conjuncts;
* every conjunct is placed at the earliest point where all of its
  columns are available: a source takes the conjuncts it can evaluate
  alone (as an index or columnar access path when one fits, else as a
  filter directly above its scan), and each join takes the ones that
  need both of its sides;
* equality conjuncts linking the two sides of a join become hash-join
  keys (the paper's conflict-detection self-joins and the envelope
  queries rely on this to run in linear time, exactly as PostgreSQL
  would execute them);
* correlated EXISTS / IN subqueries are compiled into subplans with a memo
  cache keyed on the captured outer values, which stands in for the index
  scans an RDBMS would use when executing the rewriting baseline's
  ``NOT EXISTS`` residues.

:meth:`Planner.join_sources` is the one place conjuncts are placed.
SQL SELECTs, DML ``WHERE`` clauses and Hippo's SJUD cores
(:func:`repro.ra.compile.compile_core`) all go through it, so the
envelope, raw answers, conflict detection and the rewriting baseline
run on the same join planner.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.engine import functions, plan
from repro.engine.catalog import Catalog
from repro.engine.expressions import (
    Env,
    Evaluator,
    ExpressionCompiler,
    Scope,
)
from repro.engine.stats import ExecutionStats
from repro.engine.types import SQLType, SQLValue, infer_type
from repro.errors import PlanError
from repro.sql import ast

_SENTINEL = object()

_NUMERIC = frozenset({SQLType.INTEGER, SQLType.REAL})


def _eq_types_compatible(column_type: SQLType, value: SQLValue) -> bool:
    """Whether ``column = literal`` is well-typed under SQL comparison rules.

    Mirrors :func:`repro.engine.types.compare_values`: identical types or
    numeric-with-numeric compare fine; everything else raises there, so
    the index and vectorized equality paths must decline and leave the
    conjunct to the compiled predicate (which surfaces the error).  A
    NULL literal is fine -- ``= NULL`` matches nothing on every path.
    """
    if value is None:
        return True
    value_type = infer_type(value)
    if value_type is column_type:
        return True
    return value_type in _NUMERIC and column_type in _NUMERIC


class _AbortDecorrelation(Exception):
    """Internal: the subquery shape cannot be decorrelated."""


def _flatten_from(from_items: Sequence[ast.FromItem]) -> tuple[ast.FromItem, ...]:
    """Flatten explicit inner joins into plain comma sources."""
    flat: list[ast.FromItem] = []

    def visit(item: ast.FromItem) -> None:
        if isinstance(item, ast.Join):
            visit(item.left)
            visit(item.right)
        else:
            flat.append(item)

    for item in from_items:
        visit(item)
    return tuple(flat)


@dataclass
class PlannedQuery:
    """A compiled query: physical plan + output column names."""

    plan: plan.PlanNode
    columns: list[str]


def normalize_statement(sql: str) -> str:
    """The statement-cache key form of a SQL text.

    Only the *outside* of the statement is normalized (surrounding
    whitespace, a trailing ``;``): anything heavier -- collapsing inner
    whitespace, case folding -- could merge statements that differ inside
    string literals, silently sharing a plan between distinct queries.
    """
    return sql.strip().rstrip(";").rstrip()


class PlanCache:
    """A keyed statement→plan cache with epoch-based invalidation.

    Maps :func:`normalize_statement` text to the :class:`PlannedQuery`
    compiled for it, stamped with the *catalog epoch* the plan was built
    under -- ``(schema_version, plan_epoch)`` from the database's
    :class:`~repro.engine.changelog.ChangeLog`.  DDL bumps
    ``schema_version``; index creation and constraint attach/drop bump
    ``plan_epoch`` -- either makes every older entry stale.  A lookup
    that finds a stale entry drops it and counts an invalidation, so
    statements never observe a plan from a previous schema.

    Concurrency contract: the cache is bound to one database and shares
    its single-threaded execution discipline; entries are immutable
    (plan, columns) pairs, and the stats sink is the caller's
    :class:`~repro.engine.stats.ExecutionStats`.

    Args:
        stats: counter sink for hit/miss/invalidation counters.
        max_entries: LRU bound; the least recently used entry is evicted
            (not counted as an invalidation) when the cache is full.
        enabled: an off switch (used by benchmarks to measure the
            uncached baseline); a disabled cache misses on every lookup
            and stores nothing.
    """

    def __init__(
        self,
        stats: ExecutionStats,
        max_entries: int = 256,
        enabled: bool = True,
    ) -> None:
        self.stats = stats
        self.max_entries = max_entries
        self.enabled = enabled
        self._entries: dict[str, tuple[tuple[int, int], PlannedQuery]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self,
        sql: str,
        epoch: tuple[int, int],
        backend: str = "native",
    ) -> Optional[PlannedQuery]:
        """The cached plan for ``sql`` at ``epoch``, or None.

        A stale entry (cached under an older epoch) is evicted and
        counted as an invalidation -- the caller replans.  Misses are
        *not* counted here: the database counts one when it actually
        plans a SELECT, so DML/DDL statements passing through the lookup
        do not pollute the miss counter.  Entries are keyed on the
        executing ``backend`` id as well as the statement text, so a
        plan compiled for one executor is never replayed on another.
        """
        if not self.enabled:
            return None
        key = f"{backend}::{normalize_statement(sql)}"
        entry = self._entries.get(key)
        if entry is None:
            return None
        cached_epoch, planned = entry
        if cached_epoch != epoch:
            del self._entries[key]
            self.stats.plan_cache_invalidations += 1
            return None
        # Refresh LRU recency (dicts preserve insertion order).
        del self._entries[key]
        self._entries[key] = entry
        self.stats.plan_cache_hits += 1
        return planned

    def put(
        self,
        sql: str,
        epoch: tuple[int, int],
        planned: PlannedQuery,
        backend: str = "native",
    ) -> None:
        """Store a freshly compiled plan under the current epoch."""
        if not self.enabled:
            return
        key = f"{backend}::{normalize_statement(sql)}"
        self._entries.pop(key, None)
        if len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = (epoch, planned)

    def clear(self) -> None:
        """Drop every entry, counting each as an invalidation."""
        self.stats.plan_cache_invalidations += len(self._entries)
        self._entries.clear()

    def snapshot(self) -> dict[str, int]:
        """Counter snapshot for the CLI ``.stats`` report."""
        return {
            "entries": len(self._entries),
            "hits": self.stats.plan_cache_hits,
            "misses": self.stats.plan_cache_misses,
            "invalidations": self.stats.plan_cache_invalidations,
        }


@dataclass
class Source:
    """A planned join input -- a FROM item or an SJUD atom -- with the
    ``(binding, column)`` entries that make its columns visible and the
    display names ``*`` expands to."""

    node: plan.PlanNode
    entries: list[tuple[Optional[str], str]]
    displays: list[str]


class _Subplan:
    """A compiled, cacheable subquery (implements ``CompiledSubquery``).

    The cache key is the tuple of outer values the subquery actually
    references (its *captures*).  Uncorrelated subqueries therefore run
    exactly once per statement.
    """

    def __init__(
        self,
        node: plan.PlanNode,
        captures: list[tuple[int, int]],
        site_level: int,
        stats: ExecutionStats,
    ) -> None:
        self._node = node
        self._captures = captures
        self._site_level = site_level
        self._stats = stats
        self._exists_cache: dict[tuple, bool] = {}
        self._values_cache: dict[tuple, list] = {}

    def _key(self, env: Env) -> tuple:
        site_level = self._site_level
        return tuple(env[site_level - level][index] for level, index in self._captures)

    def has_rows(self, env: Env) -> bool:
        key = self._key(env)
        cached = self._exists_cache.get(key, _SENTINEL)
        if cached is not _SENTINEL:
            self._stats.subquery_cache_hits += 1
            return cached  # type: ignore[return-value]
        self._stats.subquery_evaluations += 1
        result = next(iter(self._node.rows(env)), _SENTINEL) is not _SENTINEL
        self._exists_cache[key] = result
        return result

    def first_column_values(self, env: Env) -> list:
        key = self._key(env)
        cached = self._values_cache.get(key)
        if cached is not None:
            self._stats.subquery_cache_hits += 1
            return cached
        self._stats.subquery_evaluations += 1
        values = [row[0] for row in self._node.rows(env)]
        self._values_cache[key] = values
        return values


class _DecorrelatedSubplan:
    """A correlated EXISTS / IN subquery executed as a hash semi-join.

    A real RDBMS answers a correlated ``NOT EXISTS`` residue with an index
    scan per outer row; the equivalent here is decorrelation: the equality
    conjuncts binding inner expressions to outer references are stripped
    from the subquery, the remainder is evaluated **once**, its rows are
    hashed on the inner sides of those equalities, and each outer row
    probes the hash table (applying any remaining correlated conjuncts to
    the bucket's rows).  Without this, the rewriting baseline would
    degrade to a quadratic nested loop no real system would exhibit,
    skewing the paper's part-3 comparison in Hippo's favour.
    """

    def __init__(
        self,
        inner_plan: plan.PlanNode,
        n_keys: int,
        outer_keys: list,
        residual_predicate: Optional[Callable[[Env], bool]],
        value_evaluator: Evaluator,
        stats: ExecutionStats,
    ) -> None:
        self._inner_plan = inner_plan
        self._n_keys = n_keys
        self._outer_keys = outer_keys
        self._residual = residual_predicate
        self._value = value_evaluator
        self._stats = stats
        self._index: Optional[dict[tuple, list[tuple]]] = None

    def _buckets(self) -> dict[tuple, list[tuple]]:
        if self._index is None:
            self._stats.subquery_evaluations += 1
            index: dict[tuple, list[tuple]] = {}
            n_keys = self._n_keys
            for row in self._inner_plan.rows(()):
                key = row[:n_keys]
                if any(part is None for part in key):
                    continue  # '=' with NULL never matches
                index.setdefault(key, []).append(row[n_keys:])
            self._index = index
        return self._index

    def _probe(self, env: Env) -> list[tuple]:
        buckets = self._buckets()
        self._stats.subquery_cache_hits += 1
        key = tuple(evaluator(env) for evaluator in self._outer_keys)
        if any(part is None for part in key):
            return []
        return buckets.get(key, [])

    def has_rows(self, env: Env) -> bool:
        residual = self._residual
        for local_row in self._probe(env):
            if residual is None or residual((local_row,) + env):
                return True
        return False

    def first_column_values(self, env: Env) -> list:
        residual = self._residual
        return [
            self._value((local_row,) + env)
            for local_row in self._probe(env)
            if residual is None or residual((local_row,) + env)
        ]


def _walk_expressions(node: ast.Node) -> Iterator[ast.Node]:
    """Yield every descendant node (including ``node``), skipping subqueries."""
    yield node
    for field_info in fields(node):  # type: ignore[arg-type]
        value = getattr(node, field_info.name)
        if isinstance(value, ast.Query):
            continue
        if isinstance(value, ast.Node):
            yield from _walk_expressions(value)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, ast.Node):
                    yield from _walk_expressions(item)
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, ast.Node):
                            yield from _walk_expressions(sub)


def column_refs(expr: ast.Expression) -> list[ast.ColumnRef]:
    """All column references in ``expr``, outside of nested subqueries."""
    return [node for node in _walk_expressions(expr) if isinstance(node, ast.ColumnRef)]


def contains_subquery(expr: ast.Expression) -> bool:
    """Whether ``expr`` contains an EXISTS / IN-subquery node."""
    return any(
        isinstance(node, (ast.Exists, ast.InSubquery))
        for node in _walk_expressions(expr)
    )


def find_aggregate_calls(expr: ast.Expression) -> list[ast.FunctionCall]:
    """Aggregate function calls appearing in ``expr`` (outside subqueries)."""
    return [
        node
        for node in _walk_expressions(expr)
        if isinstance(node, ast.FunctionCall)
        and (node.star or functions.is_aggregate_function(node.name))
    ]


def _resolvable(expr: ast.Expression, entries: list[tuple[Optional[str], str]]) -> bool:
    """Whether every column ref of ``expr`` resolves within ``entries``."""
    probe = Scope(list(entries))
    for ref in column_refs(expr):
        try:
            probe.resolve(ref.table, ref.name)
        except PlanError:
            return False
    return True


def _split_resolvable(
    conjuncts: Sequence[ast.Expression], entries: list[tuple[Optional[str], str]]
) -> tuple[list[ast.Expression], list[ast.Expression]]:
    """``conjuncts`` split into those resolvable within ``entries`` and
    the rest, both in their original order."""
    inside: list[ast.Expression] = []
    outside: list[ast.Expression] = []
    for conjunct in conjuncts:
        (inside if _resolvable(conjunct, entries) else outside).append(conjunct)
    return inside, outside


class Planner:
    """Plans queries against a catalog, producing physical plans."""

    def __init__(self, catalog: Catalog, stats: ExecutionStats) -> None:
        self.catalog = catalog
        self.stats = stats
        # Active capture collectors: (site_level, set of (level, index)).
        self._collectors: list[tuple[int, set[tuple[int, int]]]] = []
        #: Whether the produced plan may be reused by later statements.
        #: Cleared when planning compiles a subplan, whose memo caches
        #: are only valid within the statement that populated them.
        self.cacheable = True

    # --------------------------------------------------------------- public

    def plan_query(
        self, query: ast.Query, outer_scope: Optional[Scope] = None
    ) -> PlannedQuery:
        """Plan a full query (body + ORDER BY + LIMIT)."""
        node, entries, displays = self._plan_body(query.body, outer_scope)
        level = outer_scope.level + 1 if outer_scope is not None else 0
        output_scope = Scope(list(entries), outer_scope, level)
        if query.order_by:
            keys: list[tuple[Evaluator, bool]] = []
            for item in query.order_by:
                if isinstance(item.expr, ast.Literal) and isinstance(
                    item.expr.value, int
                ):
                    position = item.expr.value
                    if not 1 <= position <= node.width:
                        raise PlanError(f"ORDER BY position {position} out of range")
                    index = position - 1
                    keys.append((lambda env, i=index: env[0][i], item.ascending))
                else:
                    compiler = self._compiler(output_scope)
                    keys.append((compiler.compile(item.expr), item.ascending))
            node = plan.Sort(node, keys)
        if query.limit is not None or query.offset is not None:
            node = plan.Limit(node, query.limit, query.offset)
        return PlannedQuery(node, displays)

    def table_source(
        self,
        name: str,
        binding: Optional[str] = None,
        include_tid: bool = False,
        keep_tids: Optional[frozenset[int]] = None,
    ) -> Source:
        """A full scan of table ``name`` as a join input, its columns
        visible under ``binding`` (default: ``name``).

        With ``include_tid`` each row carries its tid last, visible as
        column ``#tid``; ``keep_tids`` restricts the scan to those tids.
        Such scans keep their access path (see :meth:`_try_index_scan`),
        since both are per-row contracts an index lookup does not honour.

        Raises:
            CatalogError: for an unknown table.
        """
        table = self.catalog.table(name)
        binding = (binding or name).lower()
        columns = list(table.schema.column_names) + (["#tid"] if include_tid else [])
        node = plan.Scan(
            table, self.stats, include_tid=include_tid, keep_tids=keep_tids
        )
        return Source(node, [(binding, column.lower()) for column in columns], columns)

    def join_sources(
        self,
        sources: Sequence[Source],
        conjuncts: Sequence[ast.Expression],
        outer_scope: Optional[Scope] = None,
        level: int = 0,
    ) -> tuple[Source, list[ast.Expression]]:
        """Inner-join planned ``sources`` left to right, placing each
        conjunct at the earliest point where its columns are available.

        Each source first takes the conjuncts it can evaluate alone (an
        index or columnar access path when one fits, then a filter).
        Each join then takes the conjuncts that need both of its sides:
        an equality between a column of each side becomes a hash key,
        anything else part of the join's residual predicate.

        ``sources`` are updated in place and must not be empty.
        Returns the joined source and, in their original order, the
        conjuncts no join could evaluate: those referencing columns
        outside ``sources`` (correlated or unknown references).
        """
        pending = list(conjuncts)
        joined: Optional[Source] = None
        for source in sources:
            pending = self._take_local(source, pending, outer_scope, level)
            if joined is None:
                joined = source
                continue
            usable, pending = _split_resolvable(
                pending, joined.entries + source.entries
            )
            joined = self._combine(
                joined, source, usable, "inner", outer_scope, level
            )
        assert joined is not None, "join_sources needs at least one source"
        return joined, pending

    def plan_where(
        self,
        sources: Sequence[Source],
        where: Optional[ast.Expression],
        outer_scope: Optional[Scope] = None,
        level: int = 0,
    ) -> Source:
        """Join ``sources`` and filter them by ``where``: the WHERE path
        of SELECT cores and of DML.

        Every column reference is first resolved against the combined
        scope of ``sources`` (and the enclosing query's), so an unknown
        or ambiguous reference fails before any conjunct is placed.
        Conjuncts without subqueries are placed by :meth:`join_sources`;
        the rest, and any correlated leftovers, filter the joined rows.

        Raises:
            PlanError: for an unknown or ambiguous column reference.
        """
        scope = Scope(
            [entry for source in sources for entry in source.entries],
            outer_scope,
            level,
        )
        conjuncts = ast.split_conjuncts(where)
        for conjunct in conjuncts:
            for ref in column_refs(conjunct):
                scope.resolve(ref.table, ref.name)
        # Subqueries may correlate with anything: they filter last.
        late = [c for c in conjuncts if contains_subquery(c)]
        joinable = [c for c in conjuncts if not contains_subquery(c)]
        joined, leftovers = self.join_sources(sources, joinable, outer_scope, level)
        if leftovers or late:
            joined.node = plan.Filter(
                joined.node, self._predicate(scope, leftovers + late)
            )
        return joined

    def compile_expressions(
        self, source: Source, expressions: Sequence[ast.Expression]
    ) -> list[Evaluator]:
        """Evaluators of ``expressions`` over rows of ``source`` (an
        ``UPDATE``'s SET list, an SJUD core's outputs).

        Raises:
            PlanError: for an unknown or ambiguous column reference.
        """
        compiler = self._compiler(Scope(list(source.entries)))
        return [compiler.compile(expr) for expr in expressions]

    # ----------------------------------------------------------- query body

    def _plan_body(
        self,
        body: Union[ast.SelectCore, ast.SetOperation],
        outer_scope: Optional[Scope],
    ) -> tuple[plan.PlanNode, list[tuple[Optional[str], str]], list[str]]:
        if isinstance(body, ast.SelectCore):
            return self._plan_select_core(body, outer_scope)
        left_node, left_entries, left_displays = self._plan_body(body.left, outer_scope)
        right_node, _right_entries, _right_displays = self._plan_body(
            body.right, outer_scope
        )
        if left_node.width != right_node.width:
            raise PlanError(
                f"{body.op.upper()} requires equal column counts"
                f" ({left_node.width} vs {right_node.width})"
            )
        if body.op == "union":
            node: plan.PlanNode = plan.UnionAll([left_node, right_node])
            if not body.all:
                node = plan.Distinct(node)
        elif body.op == "except":
            node = plan.Except(left_node, right_node, all=body.all)
        elif body.op == "intersect":
            node = plan.Intersect(left_node, right_node, all=body.all)
        else:  # pragma: no cover - parser never emits other ops
            raise PlanError(f"unknown set operation {body.op!r}")
        # Column names come from the left input; bindings are dropped since
        # a set-operation result is not addressable through an alias.
        entries = [(None, column) for _binding, column in left_entries]
        return node, entries, left_displays

    # ---------------------------------------------------------- SELECT core

    def _plan_select_core(
        self, core: ast.SelectCore, outer_scope: Optional[Scope]
    ) -> tuple[plan.PlanNode, list[tuple[Optional[str], str]], list[str]]:
        level = outer_scope.level + 1 if outer_scope is not None else 0
        sources = [
            self._plan_from_item(item, outer_scope, level)
            for item in core.from_items
        ]
        source = self.plan_where(
            sources or [Source(plan.SingleRow(), [], [])],
            core.where,
            outer_scope,
            level,
        )
        from_scope = Scope(list(source.entries), outer_scope, level)
        node = source.node

        select_items = self._expand_stars(core.items, source)

        aggregate_calls: list[ast.FunctionCall] = []
        for item in select_items:
            aggregate_calls.extend(find_aggregate_calls(item.expr))
        if core.having is not None:
            aggregate_calls.extend(find_aggregate_calls(core.having))

        if core.group_by or aggregate_calls:
            node, entries, displays = self._plan_aggregate(
                node, from_scope, core, select_items, aggregate_calls, level
            )
        else:
            compiler = self._compiler(from_scope)
            evaluators = [compiler.compile(item.expr) for item in select_items]
            node = plan.Project(node, evaluators)
            entries, displays = self._output_columns(select_items)

        if core.distinct:
            node = plan.Distinct(node)
        return node, entries, displays

    # ------------------------------------------------------------- FROM list

    def _take_local(
        self,
        source: Source,
        conjuncts: list[ast.Expression],
        outer_scope: Optional[Scope],
        level: int,
    ) -> list[ast.Expression]:
        """Filter ``source`` by the conjuncts it can evaluate alone;
        returns the others."""
        local, rest = _split_resolvable(conjuncts, source.entries)
        local = self._try_index_scan(source, local)
        if local:
            scope = Scope(list(source.entries), outer_scope, level)
            source.node = plan.Filter(source.node, self._predicate(scope, local))
        return rest

    def _predicate(
        self, scope: Scope, conjuncts: list[ast.Expression]
    ) -> Callable[[Env], bool]:
        """The compiled conjunction of ``conjuncts`` over ``scope``."""
        return self._compiler(scope).compile_predicate(
            ast.conjunction(conjuncts)  # type: ignore[arg-type]
        )

    @staticmethod
    def _constant_equality(
        conjunct: ast.Expression,
    ) -> Optional[tuple[ast.ColumnRef, object]]:
        """Match ``col = literal`` (either orientation); None otherwise."""
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
            return left, right.value
        if isinstance(right, ast.ColumnRef) and isinstance(left, ast.Literal):
            return right, left.value
        return None

    def _try_index_scan(
        self, source: Source, local: list[ast.Expression]
    ) -> list[ast.Expression]:
        """Replace a plain scan with a better constant-equality access
        path; returns the conjuncts it did not absorb.

        Preference order: an :class:`~repro.engine.plan.IndexScan` when a
        hash index covers the equality columns, else a vectorized
        :class:`~repro.engine.plan.ColumnEqScan` over the columnar batch
        (same NULL-never-matches semantics, no index required).  Either
        path only absorbs equalities SQL comparison rules accept (a
        Filter rejects TEXT = INTEGER; so must the lookup, leaving such
        a conjunct to the compiled predicate), so an index never changes
        a query's outcome.  Scans carrying tids or a tid restriction
        keep their access path.
        """
        node = source.node
        if (
            not isinstance(node, plan.Scan)
            or node.include_tid
            or node.keep_tids is not None
        ):
            return local
        schema = node.table.schema
        by_position: dict[int, tuple[ast.Expression, object]] = {}
        for conjunct in local:
            match = self._constant_equality(conjunct)
            if match is None or not schema.has_column(match[0].name):
                continue
            position = schema.index_of(match[0].name)
            if _eq_types_compatible(schema.columns[position].sql_type, match[1]):
                by_position.setdefault(position, (conjunct, match[1]))
        if not by_position:
            return local
        covered = [
            positions
            for positions in node.table.indexed_column_sets()
            if all(p in by_position for p in positions)
        ]
        positions = max(covered, key=len) if covered else tuple(sorted(by_position))
        values = [by_position[p][1] for p in positions]
        if covered:
            source.node = plan.IndexScan(node.table, self.stats, positions, values)
        else:
            source.node = plan.ColumnEqScan(node.table, self.stats, positions, values)
        consumed = [by_position[p][0] for p in positions]
        return [c for c in local if not any(c is used for used in consumed)]

    def _plan_from_item(
        self, item: ast.FromItem, outer_scope: Optional[Scope], level: int
    ) -> Source:
        if isinstance(item, ast.TableRef):
            return self.table_source(item.name, item.binding)
        if isinstance(item, ast.DerivedTable):
            planned = self.plan_query(item.query, outer_scope)
            entries = [(item.alias, name.lower()) for name in planned.columns]
            return Source(planned.plan, entries, list(planned.columns))
        if isinstance(item, ast.Join):
            left = self._plan_from_item(item.left, outer_scope, level)
            right = self._plan_from_item(item.right, outer_scope, level)
            conjuncts = ast.split_conjuncts(item.on)
            unresolvable = [
                c for c in conjuncts if not _resolvable(c, left.entries + right.entries)
            ]
            if unresolvable and item.kind != "cross":
                raise PlanError(
                    "JOIN ... ON condition references columns outside the join"
                )
            return self._combine(left, right, conjuncts, item.kind, outer_scope, level)
        raise PlanError(f"cannot plan FROM item {type(item).__name__}")

    def _combine(
        self,
        left: Source,
        right: Source,
        conjuncts: list[ast.Expression],
        kind: str,
        outer_scope: Optional[Scope],
        level: int,
    ) -> Source:
        """Join two sources, picking a hash join when equi-keys exist."""
        entries = left.entries + right.entries
        displays = left.displays + right.displays

        equi_pairs: list[tuple[ast.ColumnRef, ast.ColumnRef]] = []
        residual: list[ast.Expression] = []
        for conjunct in conjuncts:
            pair = self._equi_pair(conjunct, left, right)
            if pair is not None:
                equi_pairs.append(pair)
            else:
                residual.append(conjunct)

        residual_predicate = (
            self._predicate(Scope(list(entries), outer_scope, level), residual)
            if residual
            else None
        )

        if equi_pairs and kind in ("inner", "left"):
            left_scope = Scope(list(left.entries), outer_scope, level)
            right_scope = Scope(list(right.entries), outer_scope, level)
            left_keys = [
                self._compiler(left_scope).compile(lref) for lref, _r in equi_pairs
            ]
            right_keys = [
                self._compiler(right_scope).compile(rref) for _l, rref in equi_pairs
            ]
            node: plan.PlanNode = plan.HashJoin(
                left.node, right.node, left_keys, right_keys, residual_predicate, kind
            )
            return Source(node, entries, displays)

        join_kind = kind if kind != "inner" or residual_predicate else "cross"
        node = plan.NestedLoopJoin(left.node, right.node, residual_predicate, join_kind)
        return Source(node, entries, displays)

    def _equi_pair(
        self, conjunct: ast.Expression, left: Source, right: Source
    ) -> Optional[tuple[ast.ColumnRef, ast.ColumnRef]]:
        """Detect ``left_col = right_col`` conjuncts linking the two sides."""
        if not (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            return None
        lhs, rhs = conjunct.left, conjunct.right
        if _resolvable(lhs, left.entries) and _resolvable(rhs, right.entries):
            if not _resolvable(lhs, right.entries) and not _resolvable(
                rhs, left.entries
            ):
                return (lhs, rhs)
        if _resolvable(rhs, left.entries) and _resolvable(lhs, right.entries):
            if not _resolvable(rhs, right.entries) and not _resolvable(
                lhs, left.entries
            ):
                return (rhs, lhs)
        return None

    # ------------------------------------------------------------ aggregates

    def _plan_aggregate(
        self,
        node: plan.PlanNode,
        from_scope: Scope,
        core: ast.SelectCore,
        select_items: list[ast.SelectItem],
        aggregate_calls: list[ast.FunctionCall],
        level: int,
    ) -> tuple[plan.PlanNode, list[tuple[Optional[str], str]], list[str]]:
        compiler = self._compiler(from_scope)

        group_canon: list[ast.Expression] = []
        group_evaluators: list[Evaluator] = []
        for key_expr in core.group_by:
            group_canon.append(self._canonicalize(key_expr, from_scope))
            group_evaluators.append(compiler.compile(key_expr))

        agg_canon: list[ast.Expression] = []
        agg_specs: list[plan.AggregateSpec] = []
        for call in aggregate_calls:
            canon = self._canonicalize(call, from_scope)
            if canon in agg_canon:
                continue
            agg_canon.append(canon)
            if call.star:
                agg_specs.append(("COUNT", False, None))
            else:
                if len(call.args) != 1:
                    raise PlanError(
                        f"aggregate {call.name} expects exactly one argument"
                    )
                agg_specs.append(
                    (call.name, call.distinct, compiler.compile(call.args[0]))
                )

        node = plan.Aggregate(node, group_evaluators, agg_specs)

        # Scope over the aggregate output: synthetic, unambiguous names.
        post_entries: list[tuple[Optional[str], str]] = []
        for index in range(len(group_canon)):
            post_entries.append((None, f"#key{index}"))
        for index in range(len(agg_canon)):
            post_entries.append((None, f"#agg{index}"))
        post_scope = Scope(post_entries, from_scope.parent, level)
        post_compiler = self._compiler(post_scope)

        rewritten_items = [
            ast.SelectItem(
                self._rewrite_post_aggregate(
                    item.expr, from_scope, group_canon, agg_canon
                ),
                item.alias,
            )
            for item in select_items
        ]
        evaluators = [post_compiler.compile(item.expr) for item in rewritten_items]

        if core.having is not None:
            having_expr = self._rewrite_post_aggregate(
                core.having, from_scope, group_canon, agg_canon
            )
            node = plan.Filter(node, post_compiler.compile_predicate(having_expr))

        node = plan.Project(node, evaluators)
        entries, displays = self._output_columns(select_items)
        return node, entries, displays

    def _canonicalize(self, expr: ast.Expression, scope: Scope) -> ast.Expression:
        """Replace column refs with resolved positions for structural matching."""

        def transform(node: ast.Expression) -> ast.Expression:
            if isinstance(node, ast.ColumnRef):
                depth, index = scope.resolve(node.table, node.name)
                return ast.ColumnRef("#resolved", f"{scope.level - depth}:{index}")
            return self._map_children(node, transform)

        return transform(expr)

    def _rewrite_post_aggregate(
        self,
        expr: ast.Expression,
        from_scope: Scope,
        group_canon: list[ast.Expression],
        agg_canon: list[ast.Expression],
    ) -> ast.Expression:
        """Rewrite an expression to refer to aggregate-output slots."""

        def transform(node: ast.Expression) -> ast.Expression:
            if isinstance(node, (ast.Exists, ast.InSubquery)):
                raise PlanError("subqueries are not supported in grouped SELECT lists")
            canon = self._canonicalize(node, from_scope)
            if canon in group_canon:
                return ast.ColumnRef(None, f"#key{group_canon.index(canon)}")
            if isinstance(node, ast.FunctionCall) and (
                node.star or functions.is_aggregate_function(node.name)
            ):
                if canon in agg_canon:
                    return ast.ColumnRef(None, f"#agg{agg_canon.index(canon)}")
                raise PlanError(  # pragma: no cover
                    f"aggregate {node.name} not collected"
                )
            if isinstance(node, ast.ColumnRef):
                raise PlanError(
                    f"column {node} must appear in GROUP BY or inside an aggregate"
                )
            return self._map_children(node, transform)

        return transform(expr)

    @staticmethod
    def _map_children(
        node: ast.Expression,
        transform: Callable[[ast.Expression], ast.Expression],
    ) -> ast.Expression:
        """Rebuild a dataclass expression node with transformed children."""
        updates = {}
        for field_info in fields(node):  # type: ignore[arg-type]
            value = getattr(node, field_info.name)
            if isinstance(value, ast.Expression):
                updates[field_info.name] = transform(value)
            elif (
                isinstance(value, tuple)
                and value
                and isinstance(value[0], ast.Expression)
            ):
                updates[field_info.name] = tuple(transform(item) for item in value)
            elif (
                isinstance(value, tuple)
                and value
                and isinstance(value[0], tuple)
            ):
                updates[field_info.name] = tuple(
                    tuple(transform(sub) for sub in item) for item in value
                )
        return replace(node, **updates) if updates else node

    # --------------------------------------------------------------- helpers

    def _expand_stars(
        self,
        items: Sequence[Union[ast.SelectItem, ast.Star]],
        source: Source,
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item, ast.SelectItem):
                expanded.append(item)
                continue
            matched = False
            for (binding, column), display in zip(source.entries, source.displays):
                if item.table is None or (
                    binding is not None and binding == item.table.lower()
                ):
                    matched = True
                    expanded.append(
                        ast.SelectItem(ast.ColumnRef(binding, column), display)
                    )
            if not matched:
                raise PlanError(
                    f"* expansion failed: no columns for {item.table or 'FROM'!r}"
                )
        return expanded

    @staticmethod
    def _output_columns(
        select_items: Sequence[ast.SelectItem],
    ) -> tuple[list[tuple[Optional[str], str]], list[str]]:
        entries: list[tuple[Optional[str], str]] = []
        displays: list[str] = []
        for index, item in enumerate(select_items):
            if item.alias:
                name = item.alias
                binding = None
            elif isinstance(item.expr, ast.ColumnRef):
                name = item.expr.name
                binding = item.expr.table
            else:
                name = f"col{index}"
                binding = None
            entries.append((binding, name.lower()))
            displays.append(name)
        return entries, displays

    # ------------------------------------------------------------ subqueries

    def _compiler(self, scope: Scope) -> ExpressionCompiler:
        def capture_hook(depth: int, index: int) -> None:
            level = scope.level - depth
            for site_level, collector in self._collectors:
                if level <= site_level:
                    collector.add((level, index))

        return ExpressionCompiler(scope, self._plan_subquery, capture_hook)

    def _plan_subquery(
        self, query: ast.Query, site_scope: Scope
    ) -> Union[_Subplan, _DecorrelatedSubplan]:
        # Subplans memoize results across the *statement* they belong to
        # (exists/values caches, the decorrelated hash table), so a plan
        # containing one must not be reused by a later statement that may
        # observe different data.  Mark the whole plan non-cacheable.
        self.cacheable = False
        decorrelated = self._try_decorrelate(query, site_scope)
        if decorrelated is not None:
            return decorrelated
        collector: set[tuple[int, int]] = set()
        self._collectors.append((site_scope.level, collector))
        try:
            planned = self.plan_query(query, outer_scope=site_scope)
        finally:
            self._collectors.pop()
        # Propagate captures that also escape enclosing subqueries.
        for level, index in collector:
            for outer_level, outer_collector in self._collectors:
                if level <= outer_level:
                    outer_collector.add((level, index))
        return _Subplan(planned.plan, sorted(collector), site_scope.level, self.stats)

    # -------------------------------------------------- EXISTS decorrelation

    @staticmethod
    def _static_entries(
        from_items: Sequence[ast.FromItem], catalog: Catalog
    ) -> Optional[list[tuple[Optional[str], str]]]:
        """Visible columns of a FROM clause, without planning it."""
        entries: list[tuple[Optional[str], str]] = []

        def visit(item: ast.FromItem) -> bool:
            if isinstance(item, ast.TableRef):
                if not catalog.has_table(item.name):
                    return False
                table = catalog.table(item.name)
                binding = item.binding.lower()
                entries.extend(
                    (binding, column.lower())
                    for column in table.schema.column_names
                )
                return True
            if isinstance(item, ast.Join):
                return visit(item.left) and visit(item.right)
            return False  # derived tables: fall back to the generic path

        for item in from_items:
            if not visit(item):
                return None
        return entries

    def _try_decorrelate(
        self, query: ast.Query, site_scope: Scope
    ) -> Optional[_DecorrelatedSubplan]:
        """Compile a correlated subquery into a hash semi-join, if possible.

        Returns None (and lets the generic memoized path handle the query)
        whenever the shape does not match: set operations, grouping,
        ORDER BY / LIMIT, derived tables, or no equality conjunct linking
        an inner expression to an outer column.
        """
        body = query.body
        if not isinstance(body, ast.SelectCore):
            return None
        if body.group_by or body.having or query.order_by:
            return None
        if query.limit is not None or query.offset is not None:
            return None
        if not body.from_items:
            return None
        entries = self._static_entries(body.from_items, self.catalog)
        if entries is None:
            return None
        probe = Scope(list(entries))

        def resolves_locally(ref: ast.ColumnRef) -> bool:
            try:
                probe.resolve(ref.table, ref.name)
                return True
            except PlanError as exc:
                # A locally-ambiguous reference is still "local": letting
                # the normal compilation path report the ambiguity beats
                # silently capturing an outer column of the same name.
                return "ambiguous" in str(exc)

        def is_local(expr: ast.Expression) -> bool:
            return all(resolves_locally(ref) for ref in column_refs(expr))

        inner_keys: list[ast.Expression] = []
        outer_refs: list[ast.ColumnRef] = []
        residual: list[ast.Expression] = []
        join_conjuncts: list[ast.Expression] = []

        def collect_on(item: ast.FromItem) -> None:
            if isinstance(item, ast.Join):
                collect_on(item.left)
                collect_on(item.right)
                if item.on is not None:
                    if item.kind == "left":
                        raise _AbortDecorrelation
                    join_conjuncts.extend(ast.split_conjuncts(item.on))

        try:
            for item in body.from_items:
                collect_on(item)
        except _AbortDecorrelation:
            return None

        local_residual: list[ast.Expression] = []
        correlated_residual: list[ast.Expression] = []
        for conjunct in ast.split_conjuncts(body.where) + join_conjuncts:
            matched = False
            if (
                isinstance(conjunct, ast.BinaryOp)
                and conjunct.op == "="
                and not contains_subquery(conjunct)
            ):
                for inner, outer in (
                    (conjunct.left, conjunct.right),
                    (conjunct.right, conjunct.left),
                ):
                    if (
                        isinstance(outer, ast.ColumnRef)
                        and not resolves_locally(outer)
                        and is_local(inner)
                    ):
                        inner_keys.append(inner)
                        outer_refs.append(outer)
                        matched = True
                        break
            if matched:
                continue
            if is_local(conjunct) and not contains_subquery(conjunct):
                local_residual.append(conjunct)
            else:
                correlated_residual.append(conjunct)
        if not inner_keys:
            return None

        # The value column (for IN subqueries): the first select item.
        first = body.items[0]
        if isinstance(first, ast.Star):
            binding, column = entries[0]
            value_expr: ast.Expression = ast.ColumnRef(binding, column)
        else:
            value_expr = first.expr

        # Inner rows carry the keys followed by *every* local column, so
        # that correlated residual conjuncts and the value expression can
        # be evaluated per probed row against the local scope layout.
        items = tuple(
            ast.SelectItem(key, f"k{index}") for index, key in enumerate(inner_keys)
        ) + tuple(
            ast.SelectItem(ast.ColumnRef(binding, column), f"c{index}")
            for index, (binding, column) in enumerate(entries)
        )
        # Strip explicit JOIN ... ON conditions: they were folded into the
        # conjunct analysis above, so re-planning uses plain cross sources
        # plus the local residual WHERE.
        flat_sources = _flatten_from(body.from_items)
        modified = ast.Query(
            ast.SelectCore(items, flat_sources, ast.conjunction(local_residual))
        )
        local_scope = Scope(list(entries), site_scope, site_scope.level + 1)
        try:
            planned = self.plan_query(modified, outer_scope=None)
            site_compiler = self._compiler(site_scope)
            outer_keys = [site_compiler.compile(ref) for ref in outer_refs]
            local_compiler = self._compiler(local_scope)
            residual_predicate = (
                local_compiler.compile_predicate(
                    ast.conjunction(correlated_residual)  # type: ignore[arg-type]
                )
                if correlated_residual
                else None
            )
            value_evaluator = local_compiler.compile(value_expr)
        except PlanError:
            return None  # oddly-shaped subquery: the generic path handles it
        return _DecorrelatedSubplan(
            planned.plan,
            len(inner_keys),
            outer_keys,
            residual_predicate,
            value_evaluator,
            self.stats,
        )
