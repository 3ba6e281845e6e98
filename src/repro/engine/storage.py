"""Heap storage for tables.

Every stored row is identified by a *tuple id* (tid), a small integer that
is stable for the lifetime of the row.  Tids are the vertices of the
conflict hypergraph, so the whole CQA stack depends on them:  conflict
detection emits sets of tids, the Prover reasons about tids, and membership
checks translate value tuples back to tids through the value index kept
here.

The value index (value tuple -> set of tids) also serves the engine's point
membership lookups, which is how the paper's base system answers the
Prover's membership checks "by simply executing the appropriate membership
queries on the database".

Every mutation is published straight to the database's change feed as
``(relation, tid, row, op)`` -- the fields of the one row-change record,
:class:`~repro.engine.feed.FeedRecord`, that every consumer polls.
Replay (:meth:`Table.restore`, :meth:`Table.apply_changes`) publishes
nothing: it re-applies history, it does not make new history.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from repro.engine.changelog import ChangeLog
from repro.engine.columnar import ColumnStore
from repro.engine.feed import OP_DELETE, OP_INSERT
from repro.engine.schema import TableSchema
from repro.engine.types import SQLValue
from repro.errors import ExecutionError

Row = Tuple[SQLValue, ...]


class Table:
    """A stored table: schema + rows addressable by tid.

    Duplicate rows are permitted in storage (SQL bag semantics); they get
    distinct tids.  The CQA layer treats facts at the value level and
    handles duplicates explicitly (see ``repro.core.facts``).

    When a :class:`~repro.engine.changelog.ChangeLog` is attached, every
    mutation is published to its feed (an UPDATE as delete + insert
    under the same tid), which is what keeps the conflict hypergraph
    incrementally maintainable.
    """

    def __init__(
        self, schema: TableSchema, changelog: Optional[ChangeLog] = None
    ) -> None:
        self.schema = schema
        self._rows: Dict[int, Row] = {}
        self._by_value: Dict[Row, Set[int]] = {}
        # Secondary hash indexes: column positions -> (key values -> tids).
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple, Set[int]]] = {}
        self._next_tid = 0
        self._changelog = changelog
        self._key = schema.name.lower()
        # Column-major snapshot for batch scans; dropped on any mutation.
        self._columnar: Optional[ColumnStore] = None
        # Monotone mutation counter; backends compare it against the
        # version they last mirrored to decide whether to re-sync.
        self.version = 0

    # -------------------------------------------------------------- indexes

    def create_index(self, positions: Sequence[int]) -> None:
        """Create (or keep) a hash index over the given column positions."""
        key = tuple(positions)
        if not key or any(not 0 <= p < self.schema.arity for p in key):
            raise ExecutionError(
                f"bad index column positions {key} for table"
                f" {self.schema.name!r}"
            )
        if key in self._indexes:
            return
        index: Dict[Tuple, Set[int]] = {}
        for tid, row in self._rows.items():
            index.setdefault(tuple(row[p] for p in key), set()).add(tid)
        self._indexes[key] = index
        # A new access path can change which plan the planner would pick;
        # force cached statement plans to be rebuilt.
        if self._changelog is not None:
            self._changelog.invalidate_plans()

    def has_index(self, positions: Sequence[int]) -> bool:
        """Whether an index over exactly these positions exists."""
        return tuple(positions) in self._indexes

    def indexed_column_sets(self) -> list[Tuple[int, ...]]:
        """The position tuples of all secondary indexes."""
        return list(self._indexes.keys())

    def index_lookup(
        self, positions: Sequence[int], values: Sequence[SQLValue]
    ) -> frozenset[int]:
        """Tids matching ``values`` on an existing index.

        Raises:
            ExecutionError: when no such index exists.
        """
        index = self._indexes.get(tuple(positions))
        if index is None:
            raise ExecutionError(
                f"table {self.schema.name!r} has no index on {tuple(positions)}"
            )
        return frozenset(index.get(tuple(values), frozenset()))

    def _index_add(self, tid: int, row: Row) -> None:
        for positions, index in self._indexes.items():
            index.setdefault(tuple(row[p] for p in positions), set()).add(tid)

    def _index_remove(self, tid: int, row: Row) -> None:
        for positions, index in self._indexes.items():
            key = tuple(row[p] for p in positions)
            owners = index.get(key)
            if owners is not None:
                owners.discard(tid)
                if not owners:
                    del index[key]

    # ------------------------------------------------------------------ DML

    def insert(self, values: Sequence[SQLValue]) -> int:
        """Insert a row (validated against the schema); returns its tid."""
        row = self.schema.coerce_row(values)
        tid = self._next_tid
        self._next_tid += 1
        self._rows[tid] = row
        self._by_value.setdefault(row, set()).add(tid)
        self._index_add(tid, row)
        self._columnar = None
        self.version += 1
        if self._changelog is not None:
            self._changelog.feed.publish_change(self._key, tid, row, OP_INSERT)
        return tid

    @property
    def next_tid(self) -> int:
        """The tid the next insert will receive.

        Part of a table's durable state: a snapshot that restored only
        the live rows would re-issue the tids of rows that lived and
        died before the cut, diverging from a full-history replay (and
        from every replica that witnessed those rows).
        """
        return self._next_tid

    def reserve_tids(self, next_tid: int) -> None:
        """Raise the allocation cursor to at least ``next_tid``
        (snapshot restore; never lowers it)."""
        self._next_tid = max(self._next_tid, next_tid)

    def restore(self, tid: int, values: Sequence[SQLValue]) -> None:
        """Re-insert a row under an explicit tid (change-feed replay).

        Tids are hypergraph vertices, so a replica rebuilding state from
        the feed must reproduce them exactly.  Nothing is published to
        the change log -- replay is history, not new history.

        Raises:
            ExecutionError: if the tid is already occupied.
        """
        if tid in self._rows:
            raise ExecutionError(
                f"table {self.schema.name!r} already stores tid {tid}"
            )
        row = self.schema.coerce_row(values)
        self._next_tid = max(self._next_tid, tid + 1)
        self._rows[tid] = row
        self._by_value.setdefault(row, set()).add(tid)
        self._index_add(tid, row)
        self._columnar = None
        self.version += 1

    def apply_changes(
        self, changes: Sequence[tuple[int, Optional[Sequence[SQLValue]], str]]
    ) -> None:
        """Replay a batch of feed change records as ``(tid, row, op)``.

        The batched twin of :meth:`restore` + :meth:`delete` for feed
        replay: one call amortizes attribute lookups, the columnar-cache
        invalidation and the publish check across the whole poll batch
        instead of paying them per record.  Exactly like :meth:`restore`,
        nothing is published to the change log -- replay is history.

        Raises:
            ExecutionError: on a tid collision (insert) or a missing tid
                (delete); storage state reflects every change before the
                failing one, matching the record-at-a-time replay.
        """
        rows = self._rows
        by_value = self._by_value
        indexes = self._indexes
        coerce = self.schema.coerce_row
        next_tid = self._next_tid
        self._columnar = None
        self.version += 1
        for tid, values, op in changes:
            if op == OP_INSERT:
                if tid in rows:
                    self._next_tid = next_tid
                    raise ExecutionError(
                        f"table {self.schema.name!r} already stores tid {tid}"
                    )
                row = coerce(values)
                if tid >= next_tid:
                    next_tid = tid + 1
                rows[tid] = row
                by_value.setdefault(row, set()).add(tid)
                if indexes:
                    self._index_add(tid, row)
            else:
                old = rows.pop(tid, None)
                if old is None:
                    self._next_tid = next_tid
                    raise ExecutionError(
                        f"table {self.schema.name!r} has no tuple with tid {tid}"
                    )
                owners = by_value[old]
                owners.discard(tid)
                if not owners:
                    del by_value[old]
                if indexes:
                    self._index_remove(tid, old)
        self._next_tid = next_tid

    def delete(self, tid: int) -> None:
        """Delete a row by tid.

        Raises:
            ExecutionError: if the tid does not exist.
        """
        row = self._rows.pop(tid, None)
        if row is None:
            raise ExecutionError(
                f"table {self.schema.name!r} has no tuple with tid {tid}"
            )
        owners = self._by_value[row]
        owners.discard(tid)
        if not owners:
            del self._by_value[row]
        self._index_remove(tid, row)
        self._columnar = None
        self.version += 1
        if self._changelog is not None:
            self._changelog.feed.publish_change(self._key, tid, row, OP_DELETE)

    def update(self, tid: int, values: Sequence[SQLValue]) -> None:
        """Replace the row stored under ``tid``, keeping the tid stable.

        Raises:
            ExecutionError: if the tid does not exist.
        """
        old_row = self._rows.get(tid)
        if old_row is None:
            raise ExecutionError(
                f"table {self.schema.name!r} has no tuple with tid {tid}"
            )
        new_row = self.schema.coerce_row(values)
        owners = self._by_value[old_row]
        owners.discard(tid)
        if not owners:
            del self._by_value[old_row]
        self._index_remove(tid, old_row)
        self._rows[tid] = new_row
        self._by_value.setdefault(new_row, set()).add(tid)
        self._index_add(tid, new_row)
        self._columnar = None
        self.version += 1
        if self._changelog is not None:
            feed = self._changelog.feed
            feed.publish_change(self._key, tid, old_row, OP_DELETE)
            feed.publish_change(self._key, tid, new_row, OP_INSERT)

    # --------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: Sequence[SQLValue]) -> bool:
        return tuple(row) in self._by_value

    def get(self, tid: int) -> Row:
        """The row stored under ``tid``.

        Raises:
            ExecutionError: if the tid does not exist.
        """
        try:
            return self._rows[tid]
        except KeyError:
            raise ExecutionError(
                f"table {self.schema.name!r} has no tuple with tid {tid}"
            ) from None

    def has_tid(self, tid: int) -> bool:
        """Whether a row with this tid is currently stored."""
        return tid in self._rows

    def tids(self) -> Iterator[int]:
        """All current tids (insertion order)."""
        return iter(self._rows.keys())

    def rows(self) -> Iterator[Row]:
        """All current rows (insertion order)."""
        return iter(self._rows.values())

    def items(self) -> Iterator[tuple[int, Row]]:
        """All ``(tid, row)`` pairs (insertion order)."""
        return iter(self._rows.items())

    def lookup(self, row: Sequence[SQLValue]) -> frozenset[int]:
        """Tids of rows exactly equal to ``row`` (empty set when absent).

        This is the engine-level *membership query* primitive.
        """
        return frozenset(self._by_value.get(tuple(row), frozenset()))

    def has_duplicates(self) -> bool:
        """Whether any row value occurs more than once (bag, not set)."""
        return any(len(owners) > 1 for owners in self._by_value.values())

    def columnar(self) -> ColumnStore:
        """The column-major batch snapshot of the current rows.

        Built lazily and cached; **any** mutation (insert / delete /
        update / replay) drops the cache, so the returned store always
        reflects the table as of this call.  Scan/filter hot loops use
        it to amortize per-row overhead into per-batch operations (see
        :mod:`repro.engine.columnar` for the full contract).
        """
        store = self._columnar
        if store is None:
            store = ColumnStore(list(self._rows.items()), self.schema.arity)
            self._columnar = store
        return store

    def snapshot(self) -> Dict[int, Row]:
        """A shallow copy of the tid -> row mapping (for repair checkers)."""
        return dict(self._rows)

    def restricted_rows(
        self, keep: Optional[frozenset[int]]
    ) -> Iterator[tuple[int, Row]]:
        """``(tid, row)`` pairs restricted to ``keep`` (or all when None).

        Used to evaluate queries over a repair, or over the conflict-free
        core of a table, without copying the data.
        """
        if keep is None:
            yield from self._rows.items()
            return
        for tid, row in self._rows.items():
            if tid in keep:
                yield tid, row
