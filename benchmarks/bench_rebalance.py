"""Live rebalancing: a skewed workload, a triggered move, converging lag.

The process executor (:mod:`repro.conflicts.executor`) rebalances by
moving one hot topic between live OS-process workers through the
checkpoint -> transfer -> resume handoff.  This benchmark prices that
claim on a 4-topic workload where one topic carries most of the
records and the initial assignment piles three topics onto worker 0:

* ``before``: the drain with the skewed assignment -- worker 0 does
  almost all the work;
* ``rebalance``: the executor's own trigger
  (:meth:`~repro.conflicts.shard.ShardCoordinator.rebalance`, which
  the process executor inherits)
  picks the move from live lag skew and performs the handoff while the
  writer keeps appending;
* ``after``: the post-move drain -- the per-worker shares converge.

Every run **asserts** the merged graph equals full re-detection on the
writer both before and after the move (the rebalance never trades
correctness), that the handoff resumed from the transfer packet rather
than re-bootstrapping, and that the move strictly reduced the skew.

Run: ``python -m pytest benchmarks/bench_rebalance.py -q``
or standalone: ``python benchmarks/bench_rebalance.py``;
record history: ``python benchmarks/common.py --record rebalance``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import pytest

from repro import Database
from repro.conflicts import (
    ProcessShardExecutor,
    detect_conflicts,
    load_ownership,
)
from repro.engine.feed import ChangeFeed
from repro.workloads import generate_key_conflict_table

try:
    from benchmarks.common import scaled
except ImportError:  # standalone: python benchmarks/bench_rebalance.py
    from common import scaled

#: Total tuples across all topics; the hot topic gets HOT_SHARE of them.
SIZES = scaled([8000], [240])
HOT_SHARE = 0.7
CONFLICTS = 0.05
TOPICS = ("r0", "r1", "r2", "hot")
#: Everything piles onto worker 0; worker 1 idles on one cold topic.
SKEWED = {"r0": 0, "r1": 0, "hot": 0, "r2": 1}


def build_feed(directory: Path, n_tuples: int):
    """A durable 4-topic workload with one hot topic."""
    feed = ChangeFeed(directory)
    db = Database(feed=feed)
    cold = int(n_tuples * (1 - HOT_SHARE)) // 3
    constraints = []
    for index, name in enumerate(TOPICS):
        size = int(n_tuples * HOT_SHARE) if name == "hot" else cold
        table = generate_key_conflict_table(
            db, name, size, CONFLICTS, seed=47 + index
        )
        constraints.append(table.fd)
    feed.flush()
    return feed, db, constraints


def run_once(directory: Path, db, constraints):
    """Drain skewed, rebalance live, drain again; return the report."""
    report: dict = {}
    started = time.perf_counter()
    with ProcessShardExecutor(
        directory,
        constraints,
        workers=2,
        assignment=SKEWED,
    ) as executor:
        executor.drain()
        rows = executor.status()
        report["before_s"] = time.perf_counter() - started
        report["before_applied"] = [
            sum(row.applied_records.values()) for row in rows
        ]
        expected = detect_conflicts(db, constraints).hypergraph.as_dict()
        assert executor.graph.as_dict() == expected

        # The writer keeps appending hot records, then the executor's
        # own trigger picks and performs the move from live lag skew.
        suffix = max(len(rows) * 8, 16)
        for i in range(suffix):
            db.execute(f"INSERT INTO hot VALUES ({i}, {i})")
        db.changes.feed.flush()
        started = time.perf_counter()
        move = executor.rebalance()
        report["move_s"] = time.perf_counter() - started
        assert move is not None and move.topic == "hot"
        assert move.skew_after < move.skew_before  # strictly reduced
        report["move"] = (move.topic, move.source, move.target)
        report["skew"] = (move.skew_before, move.skew_after)

        started = time.perf_counter()
        executor.drain()
        report["after_s"] = time.perf_counter() - started
        assert executor.lag == 0  # lag converged
        expected = detect_conflicts(db, constraints).hypergraph.as_dict()
        assert executor.graph.as_dict() == expected
        assert executor.feed.transfers() == {}  # packet adopted + swept
        ownership = load_ownership(directory)
        assert ownership is not None and ownership.owner["hot"] == move.target
    return report


def test_rebalance_converges_lag_and_preserves_the_graph(tmp_path_factory):
    """The rebalance gate: the triggered move strictly reduces skew,
    lag converges after it, and the merged graph equals full
    re-detection before and after (smoke-scaled)."""
    for n_tuples in SIZES:
        directory = tmp_path_factory.mktemp("feed") / f"n{n_tuples}"
        feed, db, constraints = build_feed(directory, n_tuples)
        report = run_once(directory, db, constraints)
        feed.close()
        print(
            f"\nN={n_tuples}: before {report['before_s'] * 1e3:.1f} ms"
            f" (applied/worker {report['before_applied']}),"
            f" move {report['move']} in {report['move_s'] * 1e3:.1f} ms"
            f" (skew {report['skew'][0]} -> {report['skew'][1]}),"
            f" after {report['after_s'] * 1e3:.1f} ms"
        )


@pytest.mark.benchmark(group="rebalance")
def test_rebalance_cycle_timed(benchmark, tmp_path_factory):
    """The recordable number: one full skewed-drain -> triggered-move ->
    converge cycle on a fresh feed per round (the handoff itself is the
    interesting cost; build time is excluded via the setup hook)."""
    n_tuples = SIZES[-1]
    feeds = []

    def fresh():
        directory = (
            tmp_path_factory.mktemp("feed") / f"round{len(feeds)}"
        )
        feed, db, constraints = build_feed(directory, n_tuples)
        feeds.append(feed)
        return (directory, db, constraints), {}

    report = benchmark.pedantic(
        run_once, setup=fresh, rounds=3, warmup_rounds=0
    )
    benchmark.extra_info["skew"] = list(report["skew"])
    for feed in feeds:
        feed.close()


def main() -> int:  # pragma: no cover - convenience entry
    """Standalone run: the three phases at every size."""
    print(f"{'N':>8} {'phase':>10} {'seconds':>9}  detail")
    for n_tuples in SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "feed"
            feed, db, constraints = build_feed(directory, n_tuples)
            report = run_once(directory, db, constraints)
            feed.close()
            print(
                f"{n_tuples:>8} {'before':>10} {report['before_s']:>8.2f}s"
                f"  applied/worker {report['before_applied']}"
            )
            print(
                f"{n_tuples:>8} {'move':>10} {report['move_s']:>8.2f}s"
                f"  {report['move']} skew {report['skew'][0]}"
                f" -> {report['skew'][1]}"
            )
            print(
                f"{n_tuples:>8} {'after':>10} {report['after_s']:>8.2f}s"
                "  lag converged, graph equal"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
