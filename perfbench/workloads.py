"""The three workloads: set-up, one operation, and output checks.

Each workload is driven by :func:`measure` as a closed loop with one
client: the next operation starts only after the previous one returned.
Every operation goes through :meth:`Meter.run`, which times it and
counts it; the checks that decide whether its output was right run
after it returns, outside the timed region, and a wrong output counts
the operation as failed.
"""

from __future__ import annotations

import itertools
import os
import shutil
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Optional

from repro import Database, HippoEngine
from repro.conflicts.detection import detect_conflicts
from repro.conflicts.shard import ShardCoordinator
from repro.engine.feed import ChangeFeed
from repro.rewriting import RewritingEngine

from clock import Clock, Stopwatch
from spans import Tracer
from streams import CQA_CLASS, Inputs, Op

#: Verify the maintained hypergraph against full re-detection every this
#: many rounds (and once more when the run ends).
CUT_ROUNDS = {"dml-churn": 64, "durable-follow": 64}


class _Failed:
    """What :meth:`Meter.run` returns for an operation that raised."""


FAILED = _Failed()


class Meter:
    """Times operations and counts attempts and failures.

    ``busy`` is the wall time spent inside timed operations; the loop
    stops once it reaches the run length.  :meth:`finish` scales every
    time to the reference speed (see clock.py) into ``samples``, by op
    kind, and their sum ``scaled``; ``ops / scaled`` is the throughput.
    With a tracer, each operation is its own root span.
    """

    def __init__(self, clock: Clock, tracer: Optional[Tracer] = None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.scaled = 0.0
        self._times: list[tuple[str, float, int]] = []
        self._reported = 0

    def run(self, kind: str, fn: Callable, *args: object) -> object:
        position = self.clock.sample()
        self.attempted += 1
        scope = self.tracer.op(kind) if self.tracer else nullcontext()
        with scope:
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception:  # an operation that raises is a failed operation
                self.fail(kind, traceback.format_exc())
                result = FAILED
            elapsed = time.perf_counter() - start
        self._times.append((kind, elapsed, position))
        self.busy += elapsed
        return result

    def finish(self) -> None:
        """Scale the times taken so far (call once, after the last op)."""
        self.clock.sample()
        scales = []
        for kind, elapsed, position in self._times:
            scale = self.clock.around(position)
            self.samples[kind].append(elapsed * scale)
            self.scaled += elapsed * scale
            scales.append(scale)
        if self.tracer is not None:
            self.tracer.scales = scales

    def fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        if self._reported < 5:
            self._reported += 1
            print(f"failed {kind}: {detail}", file=sys.stderr)

    def absorb(self, other: "Meter") -> None:
        """Count another meter's attempts and failures (not its times)."""
        self.attempted += other.attempted
        self.failed += other.failed


class Shadow:
    """The rows the benchmark expects each table to hold, by key.

    It predicts every DML row count and every consistent point read:
    under a key FD, ``SELECT * ... WHERE a = k`` has exactly one
    consistent answer when key ``k`` holds one distinct row, and none
    when it holds several (each is left out of some repair).
    """

    def __init__(self, tables) -> None:
        self.rows: dict[str, dict[int, list[tuple]]] = {}
        for table in tables:
            by_key: dict[int, list[tuple]] = defaultdict(list)
            for row in table.rows:
                by_key[row[0]].append(row)
            self.rows[table.name] = by_key

    def apply(self, op: Op) -> int:
        """Apply ``op``'s effect; returns the rows it changes."""
        rows = self.rows[op.table]
        if op.kind == "insert":
            rows[op.key].append(op.row)
            return 1
        if op.kind == "ingest":
            for row in op.rows:
                rows[row[0]].append(row)
            return len(op.rows)
        if op.kind == "delete":
            return len(rows.pop(op.key, ()))
        if op.kind == "retire":
            return sum(len(rows.pop(key, ())) for key in range(op.lo, op.hi))
        if op.kind == "update":
            old = rows.get(op.key, [])
            rows[op.key] = [
                row[: op.column] + (op.value,) + row[op.column + 1 :] for row in old
            ]
            return len(old)
        raise ValueError(f"not a write: {op.kind}")

    def answer(self, table: str, key: int) -> list[tuple]:
        distinct = set(self.rows[table].get(key, ()))
        return list(distinct) if len(distinct) == 1 else []


def _no_split() -> None:
    pass


def _load(db: Database, inputs: Inputs, split: Callable[[], None] = _no_split) -> None:
    for table in inputs.tables:
        db.create_table(table.name, table.columns, primary_key=["a"])
        db.insert_rows(table.name, table.rows)
        split()


def _same_graph(maintained, db: Database, constraints) -> bool:
    return maintained.as_dict() == detect_conflicts(db, constraints).hypergraph.as_dict()


class Workload:
    """What :func:`measure` and ``run.Pass`` drive.

    ``setup`` builds the state from the inputs (timed as ``setup_s``;
    it calls ``split`` between its steps, see ``clock.Stopwatch``),
    ``step`` runs one op of the stream through :meth:`Meter.run` and
    checks its output, ``verify`` checks a cut, ``snapshot`` keeps the
    state of round ``snapshot_round`` for ``finish``, which takes the
    end-of-run measurements, ``close`` releases the state and
    ``discard`` deletes what it left on disk.
    """

    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups = 11
    #: The round whose state :meth:`snapshot` keeps (None: no snapshot).
    snapshot_round: Optional[int] = None

    def setup(self, inputs: Inputs, out: Path, split: Callable[[], None]) -> dict:
        raise NotImplementedError

    def step(self, state: dict, op: Op, meter: Meter) -> None:
        raise NotImplementedError

    def verify(self, state: dict, meter: Meter) -> None:
        pass

    def snapshot(self, state: dict) -> None:
        pass

    def finish(self, state: dict, meter: Meter) -> dict:
        return {}

    def close(self, state: dict) -> None:
        pass

    def discard(self, state: dict) -> None:
        pass


# ------------------------------------------------------------------ cqa-mix


class CqaMix(Workload):
    """Each query runs as Hippo, raw SQL and (where it applies) rewriting.

    Checks: Hippo equals rewriting on S/SJ/SJUD; Hippo's answers are a
    subset of the raw answers on the monotone classes; and every text
    returns the same answers each time it runs (the data is read-only).
    """

    name = "cqa-mix"

    def setup(self, inputs: Inputs, out: Path, split: Callable[[], None]) -> dict:
        db = Database()
        _load(db, inputs, split)
        hippo = HippoEngine(db, inputs.constraints)
        split()
        return {
            "db": db,
            "hippo": hippo,
            "rewriting": RewritingEngine(db, inputs.constraints),
            "seen": {},
        }

    def step(self, state: dict, op: Op, meter: Meter) -> None:
        query_class = CQA_CLASS[op.kind]
        hippo = meter.run("cqa", state["hippo"].consistent_answers, op.sql)
        raw = meter.run("sql", state["hippo"].raw_answers, op.sql)
        rewritten = FAILED
        if query_class != "SJU":
            rewritten = meter.run(
                "rewrite", state["rewriting"].consistent_answers, op.sql
            )
        if hippo is FAILED or raw is FAILED:
            return
        answers, raw_answers = hippo.as_set(), raw.as_set()
        if rewritten is not FAILED and rewritten.as_set() != answers:
            meter.fail("cqa", f"Hippo and rewriting disagree on {op.sql}")
        if query_class != "SJUD" and not answers <= raw_answers:
            meter.fail("cqa", f"consistent answers not within raw on {op.sql}")
        first = state["seen"].setdefault(op.sql, (answers, raw_answers))
        if first != (answers, raw_answers):
            meter.fail("cqa", f"answers changed between runs of {op.sql}")

    def close(self, state: dict) -> None:
        state["hippo"].detach()


# ---------------------------------------------------------------- dml-churn


class DmlChurn(Workload):
    """Single-row DML by key with a consistent point read every 4th op.

    Checks: every DML row count and every read against :class:`Shadow`;
    at verified cuts, the incrementally maintained hypergraph against
    full re-detection.
    """

    name = "dml-churn"

    def setup(self, inputs: Inputs, out: Path, split: Callable[[], None]) -> dict:
        db = Database()
        _load(db, inputs, split)
        return {
            "db": db,
            "engine": HippoEngine(db, inputs.constraints),
            "constraints": inputs.constraints,
            "shadow": Shadow(inputs.tables),
        }

    def step(self, state: dict, op: Op, meter: Meter) -> None:
        if op.kind == "read":
            answer = meter.run("cqa", state["engine"].consistent_answers, op.sql)
            expected = state["shadow"].answer(op.table, op.key)
            if answer is not FAILED and sorted(answer.rows) != sorted(expected):
                meter.fail("cqa", f"{op.sql}: {answer.rows} != {expected}")
            return
        result = meter.run("write", state["db"].execute, op.sql)
        expected = state["shadow"].apply(op)
        if result is not FAILED and result.rowcount != expected:
            meter.fail("write", f"{op.sql}: {result.rowcount} rows, not {expected}")

    def verify(self, state: dict, meter: Meter) -> None:
        engine = state["engine"]
        engine.refresh()
        if not _same_graph(engine.hypergraph, state["db"], state["constraints"]):
            meter.fail("cut", "maintained hypergraph differs from re-detection")

    def close(self, state: dict) -> None:
        state["engine"].detach()


# ----------------------------------------------------------- durable-follow


class DurableFollow(Workload):
    """A durable writer, acknowledged by ``flush()``, and a sharded follower.

    Every write is followed by a drain of a 2-worker
    :class:`ShardCoordinator` on a second (reader) feed instance over
    the same directory; every 4th op is a consistent point read on the
    writer.  Checks: DML row counts and reads against :class:`Shadow`;
    at verified cuts, the merged shard graph against full re-detection
    of the writer; at the end, a copy of the directory taken after
    round :attr:`snapshot_round` is reopened and checked against the
    writer's rows at that round.  The recovery and on-disk measures
    come from that copy, so they do not depend on where the run's time
    ran out.
    """

    name = "durable-follow"
    #: Fewer: each of its set-ups takes about 1.4 s where the others'
    #: take 0.3-0.8 s (on the machine the baseline was recorded on).
    setups = 5
    snapshot_round = 128

    def __init__(self) -> None:
        self._setups = itertools.count(1)

    def setup(self, inputs: Inputs, out: Path, split: Callable[[], None]) -> dict:
        directory = out / f"feed-{os.getpid()}-{next(self._setups)}"
        for path in (directory, _snapshot_dir(directory)):
            shutil.rmtree(path, ignore_errors=True)
        db = Database(
            durable=str(directory), retention="truncate", checkpoint_records=4096
        )
        state = {"dir": directory, "db": db, "closed": False}
        try:
            _load(db, inputs, split)
            db.changes.feed.flush()
            state["reader"] = ChangeFeed(directory)
            coordinator = ShardCoordinator(
                state["reader"], inputs.constraints, workers=2
            )
            state["coordinator"] = coordinator
            split()
            coordinator.drain()
            split()
            state["engine"] = HippoEngine(db, inputs.constraints)
        except BaseException:
            self.close(state)
            raise
        state["constraints"] = inputs.constraints
        state["shadow"] = Shadow(inputs.tables)
        return state

    @staticmethod
    def _acknowledged_write(state: dict, op: Op) -> int:
        db = state["db"]
        if op.kind == "ingest":
            changed = len(db.insert_rows(op.table, op.rows))
        else:
            changed = db.execute(op.sql).rowcount
        db.changes.feed.flush()
        return changed

    def step(self, state: dict, op: Op, meter: Meter) -> None:
        shadow = state["shadow"]
        if op.kind == "read":
            answer = meter.run("cqa", state["engine"].consistent_answers, op.sql)
            expected = shadow.answer(op.table, op.key)
            if answer is not FAILED and sorted(answer.rows) != sorted(expected):
                meter.fail("cqa", f"{op.sql}: {answer.rows} != {expected}")
            return
        changed = meter.run("write", self._acknowledged_write, state, op)
        expected = shadow.apply(op)
        if changed is not FAILED and changed != expected:
            meter.fail("write", f"{op.kind} {op.sql}: {changed} rows, not {expected}")
        coordinator = state["coordinator"]
        if meter.tracer is not None:
            meter.tracer.notes["lag_records"] += coordinator.lag
            meter.tracer.notes["drains"] += 1
        meter.run("sync", coordinator.drain)

    def verify(self, state: dict, meter: Meter) -> None:
        if not _same_graph(
            state["coordinator"].graph, state["db"], state["constraints"]
        ):
            meter.fail("cut", "merged shard graph differs from re-detection")

    def snapshot(self, state: dict) -> None:
        """Copy the directory (every write so far is flushed) and keep
        what the writer holds at this point."""
        writer = state["db"]
        feed = writer.changes.feed
        shutil.copytree(state["dir"], _snapshot_dir(state["dir"]))
        state["snapshot"] = {
            "rows": {name: dict(writer.table(name).items()) for name in state["shadow"].rows},
            "topics": feed.topics(),
            "segment_records": feed.segment_records,
        }

    def finish(self, state: dict, meter: Meter) -> dict:
        """Close everything, reopen the snapshot copy, check what it holds."""
        self.close(state)
        kept = state["snapshot"]
        directory = _snapshot_dir(state["dir"])
        segment_bytes = sum(
            path.stat().st_size for path in (directory / "topics").rglob("*.jsonl")
        )
        disk_bytes = sum(
            path.stat().st_size for path in directory.rglob("*") if path.is_file()
        )
        watch = Stopwatch(meter.clock)
        reopened = Database(durable=str(directory), retention="truncate")
        _, recover_s = watch.stop()
        try:
            for name, rows in kept["rows"].items():
                if dict(reopened.table(name).items()) != rows:
                    meter.fail("recover", f"reopened table {name} differs from the writer")
            restore_records = reopened.restore_records
        finally:
            reopened.changes.feed.close()
        topics = kept["topics"]
        return {
            "recover_s": recover_s,
            "disk_bytes_per_row": disk_bytes
            / sum(len(rows) for rows in kept["rows"].values()),
            "feed_bytes_per_record": segment_bytes
            / max(sum(t.end - t.start for t in topics), 1),
            "segments_reclaimed": sum(t.start // kept["segment_records"] for t in topics),
            "restore_records": restore_records,
        }

    def close(self, state: dict) -> None:
        if state["closed"]:
            return
        state["closed"] = True
        if "engine" in state:
            state["engine"].detach()
        if "coordinator" in state:
            state["coordinator"].close()
        if "reader" in state:
            state["reader"].close()
        state["db"].changes.feed.close()

    def discard(self, state: dict) -> None:
        for path in (state["dir"], _snapshot_dir(state["dir"])):
            shutil.rmtree(path, ignore_errors=True)


def _snapshot_dir(directory: Path) -> Path:
    return directory.with_name(directory.name + "-snapshot")


WORKLOADS = {w.name: w for w in (CqaMix(), DmlChurn(), DurableFollow())}


def measure(
    workload,
    inputs: Inputs,
    state: dict,
    seconds: float,
    clock: Clock,
    tracer: Optional[Tracer] = None,
) -> tuple[Meter, dict]:
    """Run whole rounds of the op stream until ``seconds`` of op time,
    and at least the workload's ``snapshot_round`` rounds.

    The first round is a warm-up: its checks count, its times do not.
    Verified cuts run every :data:`CUT_ROUNDS` rounds and at the end.
    The snapshot is taken after round ``snapshot_round``, or at the end
    of the stream if that comes first.
    """
    ops, length = inputs.ops, inputs.round_length
    meter = Meter(clock, tracer)
    warm = Meter(clock)
    for op in ops[:length]:
        workload.step(state, op, warm)
    meter.absorb(warm)
    cut_every = CUT_ROUNDS.get(workload.name)
    snapshot_round = workload.snapshot_round
    position, rounds = length, 0
    while position + length <= len(ops):
        for op in ops[position : position + length]:
            workload.step(state, op, meter)
        position += length
        rounds += 1
        if rounds == snapshot_round:
            workload.snapshot(state)
        if meter.busy >= seconds and rounds >= (snapshot_round or 0):
            break
        if cut_every and rounds % cut_every == 0:
            workload.verify(state, meter)
    if snapshot_round is not None and rounds < snapshot_round:
        workload.snapshot(state)
    meter.finish()
    workload.verify(state, meter)
    extras = workload.finish(state, meter)
    return meter, extras
