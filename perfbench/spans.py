"""Span recording around the public entry points of each ``repro`` package.

:func:`instrument` wraps class methods and module functions of the
program in this process only -- no file of the program changes.  A
function imported by name into another module (``from x import f``) is
re-bound there too, so calls that bypass the defining module are seen.

Each span records its name, start, end, parent span and operation id,
plus optional counts (``ExecutionStats`` deltas and facts read off the
result).  Spans stay in memory; :meth:`Tracer.dump` writes them out when
the run ends.  A span's *self time* is its duration minus the part of
it that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

#: Operation id of spans recorded while a workload is set up.
SETUP = -1


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    op: int
    tag: str = ""
    counts: Optional[dict] = None


class Tracer:
    """Collects spans; inactive (pass-through) outside set-up and ops."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.op_id = SETUP
        self.ops = 0
        #: per op id (set when the run's times are scaled), and for
        #: set-up (set after each one), the factor that scales its
        #: times to the reference speed (see clock.py).
        self.scales: list[float] = []
        self.setup_scale = 1.0
        #: counts taken by the benchmark outside any span.
        self.notes: Counter = Counter()
        #: the database whose counters core spans diff (set per workload).
        self.db = None
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        tag: Optional[Callable] = None,
        stats: Optional[Callable] = None,
        count: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span per call.

        ``tag(args)`` labels the span; ``stats(args)`` names the
        database whose rows-scanned and point-lookup counters are
        diffed around the call; ``count(args, result)`` adds counts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(
                name,
                0.0,
                0.0,
                stack[-1] if stack else -1,
                tracer.op_id,
                tag(args) if tag is not None else "",
            )
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            db = stats(args) if stats is not None else None
            if db is not None:
                scanned, lookups = db.stats.rows_scanned, db.stats.point_lookups
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            counts = {}
            if db is not None:
                counts["rows_scanned"] = db.stats.rows_scanned - scanned
                counts["point_lookups"] = db.stats.point_lookups - lookups
            if count is not None:
                counts.update(count(args, result))
            span.counts = counts or None
            return result

        return traced

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """One timed operation: a root span, traced calls inside it."""
        self.op_id = self.ops
        self.ops += 1
        self.active = True
        span = Span(f"op.{kind}", 0.0, 0.0, -1, self.op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.active = False

    @contextmanager
    def setup(self) -> Iterator[None]:
        """Record the spans of a workload's set-up."""
        self.op_id, self.active = SETUP, True
        try:
            yield
        finally:
            self.active = False

    def dump(self, path: Path) -> None:
        """Write every span, gzipped JSON, one list per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [s.name, s.start, s.end, s.parent, s.op, s.tag, s.counts]
            for s in self.spans
        ]
        fields = ["name", "start", "end", "parent", "op", "tag", "counts"]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": rows}, handle, allow_nan=False)


def _interval_union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def scaled_self_ms(tracer: Tracer) -> list[float]:
    """Each span's self time in ms at the reference speed."""
    return [
        own * 1000.0 * (tracer.setup_scale if span.op == SETUP else tracer.scales[span.op])
        for own, span in zip(self_times(tracer.spans), tracer.spans)
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _interval_union(children[index], span.start, span.end)
        for index, span in enumerate(spans)
    ]


# ------------------------------------------------------------ instrumentation


def _statement_kind(args) -> str:
    return args[1].lstrip().split(None, 1)[0].lower() if args[1].strip() else ""


def _statement_type(args) -> str:
    return type(args[1]).__name__.lower()


def _self_db(args):
    return args[0]


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the entry points of every layer; returns the undo function.

    Core spans diff the counters of ``tracer.db`` (the database the
    workload queries); detection and DML spans diff their own
    database's counters.
    """
    from repro.conflicts import detection
    from repro.conflicts.incremental import IncrementalDetector
    from repro.conflicts.replica import ReplicaHypergraph
    from repro.conflicts.shard import ShardCoordinator
    from repro.core.envelope import Enveloper
    from repro.core.grounding import GroundQuery
    from repro.core.hippo import HippoEngine
    from repro.core.prover import Prover
    from repro.engine import database
    from repro.engine.feed import ChangeFeed, FeedConsumer
    from repro.engine.planner import PlanCache
    from repro.ra import compile as ra_compile
    from repro.ra import sjud
    from repro.rewriting.rewrite import RewritingEngine
    from repro.sql import parser

    undo: list[tuple[object, str, object]] = []

    def current_db(args):
        return tracer.db

    def method(owner, attr: str, name: str, **options) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, tracer.wrap(name, original, **options))
        undo.append((owner, attr, original))

    def function(module, attr: str, name: str, **options) -> None:
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, **options)
        for loaded in list(sys.modules.values()):
            module_name = getattr(loaded, "__name__", "")
            if module_name.split(".")[0] == "repro" and (
                loaded.__dict__.get(attr) is original
            ):
                setattr(loaded, attr, wrapped)
                undo.append((loaded, attr, original))

    function(parser, "parse_query", "sql.parse")
    function(parser, "parse_statement", "sql.parse")
    function(sjud, "from_sql_query", "ra.translate")
    function(ra_compile, "evaluate_tree", "ra.eval")
    method(
        HippoEngine,
        "consistent_answers",
        "core.cqa",
        stats=current_db,
        count=lambda args, result: {
            "candidates": result.stats["candidates"],
            "skipped": result.stats["skipped_by_core"],
        },
    )
    method(HippoEngine, "raw_answers", "core.raw")
    method(
        Enveloper,
        "evaluate",
        "core.envelope",
        stats=current_db,
        count=lambda args, result: {"candidates": result.candidate_count},
    )
    method(Enveloper, "conflict_free_tids", "core.conflict_free")
    method(GroundQuery, "formula_for", "core.ground")
    method(Prover, "is_consistent_answer", "core.prover")
    method(RewritingEngine, "consistent_answers", "rewriting.cqa")
    method(RewritingEngine, "rewrite", "rewriting.rewrite")
    function(
        detection,
        "detect_conflicts",
        "conflicts.detect",
        stats=_self_db,
        count=lambda args, result: {"edges": len(result.hypergraph)},
    )
    method(HippoEngine, "refresh", "conflicts.refresh")
    method(
        IncrementalDetector,
        "apply_records",
        "conflicts.incremental",
        count=lambda args, result: {"deltas": result.deltas},
    )
    method(ReplicaHypergraph, "sync", "conflicts.sync")
    method(ShardCoordinator, "__init__", "conflicts.bootstrap")
    method(
        database.Database,
        "execute",
        "engine.execute",
        tag=_statement_kind,
        stats=_self_db,
        count=lambda args, result: {"rows": result.rowcount},
    )
    method(database.Database, "execute_statement", "engine.statement", tag=_statement_type)
    method(
        database.Database,
        "insert_rows",
        "engine.insert_rows",
        count=lambda args, result: {"rows": len(result)},
    )
    method(database.Database, "checkpoint", "engine.checkpoint")
    method(
        PlanCache,
        "get",
        "engine.plan_lookup",
        count=lambda args, result: {"hit": int(result is not None)},
    )
    method(ChangeFeed, "flush", "engine.flush")
    method(FeedConsumer, "poll", "engine.poll")
    function(database, "apply_feed_records", "engine.apply")
    original_fsync = os.fsync
    os.fsync = tracer.wrap("engine.fsync", original_fsync)
    undo.append((os, "fsync", original_fsync))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ------------------------------------------------------------------- metrics


#: Per-layer time metrics: metric name -> span names whose self time it sums.
TIME_METRICS = {
    "sql.parse_ms": ("sql.parse",),
    "ra.translate_ms": ("ra.translate",),
    "ra.eval_ms": ("ra.eval",),
    "core.answer_ms": ("core.cqa",),
    "core.envelope_ms": ("core.envelope",),
    "core.ground_ms": ("core.ground",),
    "core.prover_ms": ("core.prover",),
    "core.conflict_free_ms": ("core.conflict_free",),
    "rewriting.rewrite_ms": ("rewriting.rewrite",),
    "conflicts.refresh_ms": ("conflicts.refresh",),
    "conflicts.incremental_ms": ("conflicts.incremental",),
    "conflicts.sync_ms": ("conflicts.sync",),
    "engine.flush_ms": ("engine.flush",),
    "engine.fsync_ms": ("engine.fsync",),
    "engine.checkpoint_ms": ("engine.checkpoint",),
    "engine.poll_ms": ("engine.poll",),
    "engine.apply_ms": ("engine.apply",),
}

DML = ("delete", "update")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, writes: int) -> dict[str, float]:
    """Per-layer numbers of a traced run.

    Time metrics are self time in ms (at the reference speed) per timed
    operation, so the layers of a workload add up to its mean operation
    time; the set-up ones (``conflicts.detect_ms``, and the inclusive
    ``conflicts.bootstrap_ms``) are ms per set-up.  Counts are divided
    by the base their name gives.
    """
    spans = tracer.spans
    own = scaled_self_ms(tracer)
    ops = max(tracer.ops, 1)
    by_name: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: dict[str, Counter] = defaultdict(Counter)
    setup_ms: dict[str, float] = defaultdict(float)
    dml_ms = insert_ms = rewrite_eval_ms = 0.0
    dml_scanned = dml_rows = 0
    for index, span in enumerate(spans):
        ms = own[index]
        if span.op == SETUP:
            duration = (span.end - span.start) * 1000.0 * tracer.setup_scale
            setup_ms[span.name] += duration if span.name == "conflicts.bootstrap" else ms
            if span.name == "conflicts.detect" and span.counts:
                counts["setup.detect"].update(span.counts)
            continue
        by_name[span.name] += ms
        calls[span.name] += 1
        if span.counts:
            counts[span.name].update(span.counts)
        if span.name in ("engine.execute", "engine.statement"):
            if span.tag in DML:
                dml_ms += ms
                if span.name == "engine.execute" and span.counts:
                    dml_scanned += span.counts["rows_scanned"]
                    dml_rows += span.counts["rows"]
            elif span.tag == "insert":
                insert_ms += ms
            elif span.parent >= 0 and spans[span.parent].name == "rewriting.cqa":
                rewrite_eval_ms += ms
        if span.name == "engine.insert_rows":
            insert_ms += ms
    metrics = {name: sum(by_name[s] for s in names) / ops for name, names in TIME_METRICS.items()}
    detect = counts["setup.detect"]
    cqa = counts["core.cqa"]
    lookups = counts["engine.plan_lookup"]
    metrics.update(
        {
            "rewriting.eval_ms": rewrite_eval_ms / ops,
            "engine.dml_ms": dml_ms / ops,
            "engine.insert_ms": insert_ms / ops,
            "bench.self_ms": sum(ms for name, ms in by_name.items() if name.startswith("op.")) / ops,
            "core.envelope_rows_per_candidate": _ratio(
                counts["core.envelope"]["rows_scanned"], counts["core.envelope"]["candidates"]
            ),
            "core.prover_checks_per_query": _ratio(calls["core.prover"], calls["core.cqa"]),
            "core.core_skip_ratio": _ratio(cqa["skipped"], cqa["candidates"]),
            "core.point_lookups_per_query": _ratio(cqa["point_lookups"], calls["core.cqa"]),
            "conflicts.detect_ms": setup_ms["conflicts.detect"],
            "conflicts.detect_rows_scanned_per_edge": _ratio(detect["rows_scanned"], detect["edges"]),
            "conflicts.deltas_per_write": _ratio(counts["conflicts.incremental"]["deltas"], writes),
            "conflicts.lag_records": _ratio(tracer.notes["lag_records"], tracer.notes["drains"]),
            "conflicts.bootstrap_ms": setup_ms["conflicts.bootstrap"],
            "engine.dml_rows_scanned_per_row": _ratio(dml_scanned, dml_rows),
            "engine.plan_cache_hit_ratio": _ratio(lookups["hit"], calls["engine.plan_lookup"]),
            "engine.fsyncs_per_write": _ratio(calls["engine.fsync"], writes),
            "engine.checkpoints_per_1k_writes": _ratio(calls["engine.checkpoint"], writes) * 1000,
        }
    )
    return metrics


def breakdown(tracer: Tracer) -> list[tuple[str, int, float, float]]:
    """(span name, calls, self ms, inclusive ms) over the timed ops,
    largest self time first -- where a workload's time goes."""
    own = scaled_self_ms(tracer)
    calls: Counter = Counter()
    self_ms: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for index, span in enumerate(tracer.spans):
        if span.op == SETUP:
            continue
        calls[span.name] += 1
        self_ms[span.name] += own[index]
        inclusive[span.name] += (span.end - span.start) * 1000.0 * tracer.scales[span.op]
    return sorted(
        ((name, calls[name], self_ms[name], inclusive[name]) for name in calls),
        key=lambda row: -row[2],
    )
