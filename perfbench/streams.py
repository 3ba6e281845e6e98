"""Seeded inputs and operation streams for the three workloads.

Everything a run feeds the program is generated here from the seed,
before any timing starts: the table rows (through ``repro.workloads``'
generators, run on a scratch database whose rows are then copied out)
and the full list of operations.  The measured program only ever sees
these generated values.

Sizes are part of each workload's definition; :class:`Sizes` carries
them so the benchmark's own tests can run the same code at tiny scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.constraints.fd import FunctionalDependency
from repro.engine.database import Database
from repro.workloads import generate_join_pair, generate_key_conflict_table

#: Queries of one ``cqa-mix`` round, by kind, with their counts.  A
#: round has 25 queries, so the median (12.5 from the bottom of a
#: round) and the 90th percentile (2.5 from the top) are half a query
#: per round away from the edge of any kind, whatever order the kinds'
#: costs are in: no set of kinds holds exactly 12.5 or 2.5 of a round.
#: Percentiles are then read inside one kind's spread of times, not
#: off the largest or smallest sample of one.  Runs always end on a
#: round boundary.
CQA_ROUND = (
    ("point", 10),
    ("range", 5),
    ("select", 5),
    ("join", 2),
    ("union", 2),
    ("difference", 1),
)

#: Query class of each ``cqa-mix`` kind (the paper's classification).
CQA_CLASS = {
    "point": "S",
    "range": "S",
    "select": "S",
    "join": "SJ",
    "union": "SJU",
    "difference": "SJUD",
}

#: Distinct texts per parameterised kind in the ``cqa-mix`` pool.
CQA_POOL = {"point": 32, "range": 8, "select": 8}


@dataclass(frozen=True)
class Sizes:
    """Table sizes and stream lengths of one workload."""

    n: int
    rounds: int
    batch: int = 64
    window: int = 8


#: The sizes that define each workload.
SIZES = {
    "cqa-mix": Sizes(n=4000, rounds=400),
    "dml-churn": Sizes(n=16000, rounds=12000),
    "durable-follow": Sizes(n=8000, rounds=3000),
}


@dataclass(frozen=True)
class TableInput:
    """One generated table: schema, rows in insertion order, key FD."""

    name: str
    columns: tuple
    rows: tuple
    fd: FunctionalDependency


@dataclass(frozen=True)
class Op:
    """One operation of a stream.

    ``kind`` selects what the runner does; the other fields carry the
    statement text and what the benchmark needs to predict its effect.
    """

    kind: str
    sql: str = ""
    table: str = ""
    key: Optional[int] = None
    row: Optional[tuple] = None
    column: int = 0
    value: int = 0
    rows: tuple = ()
    lo: int = 0
    hi: int = 0


@dataclass(frozen=True)
class Inputs:
    """Everything one run of a workload is given."""

    tables: tuple
    ops: tuple
    round_length: int

    @property
    def constraints(self) -> list:
        return [table.fd for table in self.tables]


def _copy_out(db: Database, name: str, fd: FunctionalDependency) -> TableInput:
    table = db.table(name)
    return TableInput(name, table.schema.columns, tuple(table.rows()), fd)


class _LiveKeys:
    """The keys a stream has not deleted yet, with O(1) random choice."""

    def __init__(self, keys) -> None:
        self._keys: list[int] = []
        self._index: dict[int, int] = {}
        for key in keys:
            self.add(key)

    def add(self, key: int) -> None:
        if key not in self._index:
            self._index[key] = len(self._keys)
            self._keys.append(key)

    def remove(self, key: int) -> None:
        index = self._index.pop(key)
        last = self._keys.pop()
        if index < len(self._keys):
            self._keys[index] = last
            self._index[last] = index

    def __contains__(self, key: int) -> bool:
        return key in self._index

    def choice(self, rng: random.Random) -> int:
        return self._keys[rng.randrange(len(self._keys))]


# ------------------------------------------------------------------ cqa-mix


def cqa_mix(seed: int, sizes: Sizes = SIZES["cqa-mix"]) -> Inputs:
    """The paper's demo-3 read mix.

    A join pair ``l``/``r`` (5% conflicts in pairs, one dependent
    column) and a union pair ``u``/``v`` (20% conflicts in triples,
    ``v`` additionally holding a copy of a third of ``u``'s rows).
    """
    n = sizes.n
    scratch = Database()
    left, right = generate_join_pair(scratch, "l", "r", n, 0.05, seed=seed)
    u = generate_key_conflict_table(
        scratch, "u", n, 0.20, seed=seed + 2, cluster_size=3
    )
    v = generate_key_conflict_table(
        scratch, "v", n, 0.20, seed=seed + 3, cluster_size=3
    )
    rng = random.Random(seed * 7919 + 1)
    u_rows = list(scratch.table("u").rows())
    scratch.insert_rows("v", rng.sample(u_rows, len(u_rows) // 3))
    tables = tuple(
        _copy_out(scratch, name, fd)
        for name, fd in (("l", left.fd), ("r", right.fd), ("u", u.fd), ("v", v.fd))
    )

    l_keys = [row[0] for row in tables[0].rows]
    u_keys = [row[0] for row in tables[2].rows]
    points = []
    for index in range(CQA_POOL["point"]):
        name, keys = ("l", l_keys) if index % 2 == 0 else ("u", u_keys)
        points.append(f"SELECT * FROM {name} WHERE a = {rng.choice(keys)}")
    pool = {
        "point": points,
        # l.b0 ranges over the join domain [0, n): about a tenth of l.
        "range": [
            f"SELECT * FROM l WHERE b0 < {rng.randint(n // 20, 3 * n // 20)}"
            for _ in range(CQA_POOL["range"])
        ],
        # u.b0 ranges over [0, 1e6): about a tenth of u.
        "select": [
            f"SELECT * FROM u WHERE b0 < {rng.randint(50_000, 150_000)}"
            for _ in range(CQA_POOL["select"])
        ],
        "join": ["SELECT l.a, l.b0, r.b0 FROM l l, r r WHERE l.b0 = r.a"],
        "union": ["SELECT a, b0 FROM u UNION SELECT a, b0 FROM v"],
        "difference": ["SELECT a, b0 FROM u EXCEPT SELECT a, b0 FROM v"],
    }
    served = {kind: 0 for kind in pool}
    ops: list[Op] = []
    for _ in range(sizes.rounds):
        kinds = [kind for kind, count in CQA_ROUND for _ in range(count)]
        rng.shuffle(kinds)
        for kind in kinds:
            texts = pool[kind]
            ops.append(Op(kind, sql=texts[served[kind] % len(texts)]))
            served[kind] += 1
    round_length = sum(count for _, count in CQA_ROUND)
    return Inputs(tables, tuple(ops), round_length)


# ---------------------------------------------------------------- dml-churn


def _point_read(table: str, key: int) -> Op:
    return Op("read", f"SELECT * FROM {table} WHERE a = {key}", table, key)


def _single_row_write(
    kind: str,
    table: str,
    arity: int,
    live: _LiveKeys,
    rng: random.Random,
    fresh: list[int],
) -> Op:
    """One single-row write by key; updates ``live`` to its effect."""
    if kind == "insert":
        if rng.random() < 0.5:
            key = live.choice(rng)  # a second row for a live key: a conflict
        else:
            key = fresh[0]
            fresh[0] += 1
            live.add(key)
        row = (key, *(rng.randrange(1_000_000) for _ in range(arity - 1)))
        values = ", ".join(str(value) for value in row)
        return Op(kind, f"INSERT INTO {table} VALUES ({values})", table, key, row)
    key = live.choice(rng)
    if kind == "delete":
        live.remove(key)
        return Op(kind, f"DELETE FROM {table} WHERE a = {key}", table, key)
    column = rng.randrange(1, arity)
    value = rng.randrange(1_000_000)
    return Op(
        "update",
        f"UPDATE {table} SET b{column - 1} = {value} WHERE a = {key}",
        table,
        key,
        column=column,
        value=value,
    )


def dml_churn(seed: int, sizes: Sizes = SIZES["dml-churn"]) -> Inputs:
    """Single-row DML on ``r(a, b0..b3)`` with a consistent read every
    4th op.

    Each round is one INSERT (half of them reusing a live key, which
    creates a conflict), one DELETE and one UPDATE of a dependent
    column, then a point read of a live key.  The order within a round
    is fixed: what a read pays to fold in pending changes depends on
    the writes just before it, and a seeded order would let the seed
    choose the mix of read costs.
    """
    scratch = Database()
    generated = generate_key_conflict_table(
        scratch, "r", sizes.n, 0.05, seed=seed, n_dependent_columns=4
    )
    table = _copy_out(scratch, "r", generated.fd)
    rng = random.Random(seed * 7919 + 2)
    live = _LiveKeys(row[0] for row in table.rows)
    fresh = [10 * sizes.n + 1]
    ops: list[Op] = []
    for _ in range(sizes.rounds):
        for kind in ("insert", "delete", "update"):
            ops.append(_single_row_write(kind, "r", 5, live, rng, fresh))
        ops.append(_point_read("r", live.choice(rng)))
    return Inputs((table,), tuple(ops), 4)


# ----------------------------------------------------------- durable-follow


def durable_follow(seed: int, sizes: Sizes = SIZES["durable-follow"]) -> Inputs:
    """Durable single-row DML and 64-row ingest on a join pair.

    Each round is: a single-row INSERT, a batch op, a single-row DELETE
    or UPDATE (alternating every two rounds), all on ``l`` in even
    rounds and ``r`` in odd ones, then a consistent point read of ``l``.
    Batch ops insert ``batch`` fresh-keyed rows into ``l``; once
    ``window`` batches are live, every other batch op retires the
    oldest one with a key-range DELETE instead, so the table size stays
    level over the run.  As in :func:`dml_churn`, the pattern is fixed
    so the seed does not choose the mix of op costs.
    """
    scratch = Database()
    left, right = generate_join_pair(scratch, "l", "r", sizes.n, 0.05, seed=seed)
    tables = (_copy_out(scratch, "l", left.fd), _copy_out(scratch, "r", right.fd))
    rng = random.Random(seed * 7919 + 3)
    live = {t.name: _LiveKeys(row[0] for row in t.rows) for t in tables}
    fresh = [10 * sizes.n + 1]
    batch_base = 100 * sizes.n
    batches: list[tuple[int, int]] = []  # live ingest key ranges, oldest first
    ops: list[Op] = []
    for index in range(sizes.rounds):
        name = ("l", "r")[index % 2]
        ops.append(_single_row_write("insert", name, 2, live[name], rng, fresh))
        if index % 2 and len(batches) >= sizes.window:
            lo, hi = batches.pop(0)
            for key in range(lo, hi):
                if key in live["l"]:
                    live["l"].remove(key)
            sql = f"DELETE FROM l WHERE a >= {lo} AND a < {hi}"
            ops.append(Op("retire", sql, "l", lo=lo, hi=hi))
        else:
            lo, hi = batch_base, batch_base + sizes.batch
            batch_base = hi
            rows = tuple((key, rng.randrange(sizes.n)) for key in range(lo, hi))
            for key in range(lo, hi):
                live["l"].add(key)
            batches.append((lo, hi))
            ops.append(Op("ingest", table="l", rows=rows, lo=lo, hi=hi))
        kind = ("delete", "update")[index // 2 % 2]
        ops.append(_single_row_write(kind, name, 2, live[name], rng, fresh))
        ops.append(_point_read("l", live["l"].choice(rng)))
    return Inputs(tables, tuple(ops), 4)


#: Input builders by workload name.
BUILDERS = {
    "cqa-mix": cqa_mix,
    "dml-churn": dml_churn,
    "durable-follow": durable_follow,
}
