"""Tests for the multi-process shard executor: the ownership manifest,
live drain and handoff over real OS processes, and supervisor respawn.
The coordinator protocol it shares with in-process workers (handoff,
rebalance, dead-worker status) also runs over both links in
``test_handoff.py``; the chaos tier covers kill schedules."""

from __future__ import annotations

import pytest

from repro.conflicts import (
    Ownership,
    ProcessShardExecutor,
    detect_conflicts,
    load_ownership,
    store_ownership,
)
from repro.constraints import FunctionalDependency
from repro.engine.database import Database
from repro.engine.feed import ChangeFeed
from repro.errors import ExecutorError

TOPICS = ("r", "s", "u", "w")
SKEWED = {"r": 0, "s": 0, "u": 0, "w": 1}


def constraints():
    return [FunctionalDependency(name, ["id"], ["v"]) for name in TOPICS]


def build_writer(directory):
    feed = ChangeFeed(directory)
    db = Database(feed=feed)
    for name in TOPICS:
        db.execute(f"CREATE TABLE {name} (id INTEGER, v INTEGER)")
        db.execute(f"INSERT INTO {name} VALUES (1, 1), (1, 2)")
    feed.flush()
    return feed, db


@pytest.fixture
def writer(tmp_path):
    feed, db = build_writer(tmp_path / "feed")
    yield feed, db
    feed.close()


@pytest.fixture
def make_executor(tmp_path):
    executors = []

    def factory(**overrides):
        options = dict(workers=2, assignment=SKEWED)
        options.update(overrides)
        ex = ProcessShardExecutor(
            tmp_path / "feed", constraints(), **options
        )
        executors.append(ex)
        return ex

    yield factory
    for ex in executors:
        ex.close()


class TestOwnershipManifest:
    def test_roundtrip(self, tmp_path):
        ownership = Ownership(workers=3, owner={"a": 0, "b": 2}, epoch=7)
        store_ownership(tmp_path, ownership)
        assert load_ownership(tmp_path) == ownership

    def test_missing_manifest_is_none(self, tmp_path):
        assert load_ownership(tmp_path) is None

    def test_corrupt_manifest_raises(self, tmp_path):
        (tmp_path / "shards.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ExecutorError):
            load_ownership(tmp_path)

    def test_executor_seeds_and_persists_the_manifest(
        self, writer, make_executor
    ):
        ex = make_executor()
        ownership = load_ownership(ex.directory)
        assert ownership is not None
        assert ownership.workers == 2 and ownership.epoch == 0
        assert ownership.owner["u"] == 0 and ownership.owner["w"] == 1

    def test_reattach_prefers_the_manifest_over_ctor_args(
        self, writer, make_executor
    ):
        ex = make_executor()
        ex.handoff("u", 1)
        ex.close()
        # A fresh executor with *different* ctor hints must follow the
        # persisted manifest: workers stays 2, u stays with worker 1.
        again = make_executor(workers=7, assignment=None)
        assert len(again.workers) == 2
        assert again.plan.topic_owner["u"] == 1
        ownership = load_ownership(again.directory)
        assert ownership.epoch == 1 and ownership.owner["u"] == 1


class TestLiveExecution:
    def test_drain_matches_the_monolith(self, writer, make_executor):
        feed, db = writer
        ex = make_executor()
        ex.drain()
        expected = detect_conflicts(db, constraints()).hypergraph.as_dict()
        assert ex.graph.as_dict() == expected
        rows = ex.status()
        assert all(row.alive and row.lag == 0 for row in rows)
        assert {t for row in rows for t in row.owned} == set(TOPICS)

    def test_handoff_moves_ownership_between_live_processes(
        self, writer, make_executor
    ):
        feed, db = writer
        ex = make_executor()
        ex.drain()
        for i in range(4):  # a suffix the adopter must NOT re-bootstrap
            db.execute(f"INSERT INTO u VALUES ({i}, {40 + i})")
        feed.flush()
        steps = []
        report = ex.handoff("u", 1, on_step=steps.append)
        assert steps == [
            "released", "granted", "adopted", "pruned", "cleared",
        ]
        (resume,) = [
            r for r in report.reshapes[1].added if r.topic == "u"
        ]
        assert resume.mode == "packet"
        assert resume.end - resume.cut == 4  # only the retained suffix
        ex.drain()
        expected = detect_conflicts(db, constraints()).hypergraph.as_dict()
        assert ex.graph.as_dict() == expected
        assert ex.feed.transfers() == {}  # packet swept after adoption
        assert load_ownership(ex.directory).owner["u"] == 1


@pytest.mark.slow
class TestFailureAccounting:
    def test_supervise_respawns_from_the_checkpoint(
        self, writer, make_executor
    ):
        feed, db = writer
        ex = make_executor()
        ex.drain()
        ex.checkpoint()
        for i in range(3):
            db.execute(f"INSERT INTO w VALUES ({i}, {80 + i})")
        feed.flush()
        ex.kill(1)
        events = ex.supervise()
        assert [e.index for e in events] == [1]
        ex.drain()
        respawned = ex.status()[1]
        assert respawned.alive and respawned.respawns == 1
        assert respawned.restore_mode == "snapshot"
        assert respawned.applied_records.get("w", 0) == 3
        expected = detect_conflicts(db, constraints()).hypergraph.as_dict()
        assert ex.graph.as_dict() == expected
