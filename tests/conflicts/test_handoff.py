"""Tests for topic handoff: export/reshape, the coordinator protocol,
the rebalance chooser, and dead-worker status accounting.

The coordinator protocol and dead-worker tests run over both worker
links: in-process (loopback) workers, and -- in the ``Process*``
subclasses -- worker processes behind a
:class:`~repro.conflicts.executor.ProcessShardExecutor`."""

from __future__ import annotations

import pytest

from repro.conflicts import (
    ProcessShardExecutor,
    ShardCoordinator,
    ShardWorker,
    choose_move,
    detect_conflicts,
    plan_assignment,
)
from repro.constraints import FunctionalDependency
from repro.engine.database import Database
from repro.engine.feed import ChangeFeed
from repro.errors import ConstraintError, FeedError


def fd(relation):
    return FunctionalDependency(relation, ["id"], ["v"])


FOUR_TOPICS = ("r", "s", "u", "w")


def build_primary(directory, hot=12, quiet_w=False):
    feed = ChangeFeed(directory)
    db = Database(feed=feed)
    for name in FOUR_TOPICS:
        db.execute(f"CREATE TABLE {name} (id INTEGER, v INTEGER)")
        if name != "w" or not quiet_w:
            db.execute(f"INSERT INTO {name} VALUES (1, 1), (1, 2)")
    for i in range(hot):  # skew topic u
        db.execute(f"INSERT INTO u VALUES ({i % 3}, {i})")
    feed.flush()
    return feed, db


def constraints():
    return [fd(name) for name in FOUR_TOPICS]


SKEWED = {"r": 0, "s": 0, "u": 0, "w": 1}


def skewed_coordinator(feed):
    return ShardCoordinator(feed, constraints(), workers=2, assignment=dict(SKEWED))


def expected_graph(db):
    return detect_conflicts(db, constraints()).hypergraph.as_dict()


@pytest.fixture
def coordinate(request, tmp_path):
    """Factory: a writer over ``tmp_path / "f"`` plus a skewed 2-worker
    coordinator on it -- in-process workers, or worker processes when
    the test class sets ``processes``.  Everything is closed at
    teardown, even when the test failed mid-protocol."""
    opened = []

    def factory(**primary):
        feed, db = build_primary(tmp_path / "f", **primary)
        if getattr(request.cls, "processes", False):
            coordinator = ProcessShardExecutor(
                tmp_path / "f", constraints(), workers=2, assignment=SKEWED
            )
        else:
            coordinator = skewed_coordinator(feed)
        opened.append((coordinator, feed))
        return coordinator, feed, db

    yield factory
    for coordinator, feed in opened:
        coordinator.close()
        feed.close()


class TestChooseMove:
    def plan(self):
        return plan_assignment(
            constraints(), 2, assignment={"r": 0, "s": 0, "u": 0, "w": 1}
        )

    def test_moves_a_topic_from_heavy_to_light(self):
        move = choose_move(
            self.plan(),
            [{}, {}],
            {"r": 2, "s": 2, "u": 20, "w": 0},
        )
        assert move is not None
        assert move.topic == "u" and (move.source, move.target) == (0, 1)
        assert move.skew_after < move.skew_before

    def test_balanced_load_proposes_nothing(self):
        ends = {"r": 4, "s": 4, "u": 4, "w": 12}
        assert choose_move(self.plan(), [{}, {}], ends) is None

    def test_threshold_suppresses_small_skew(self):
        ends = {"r": 2, "s": 2, "u": 6, "w": 2}
        assert choose_move(self.plan(), [{}, {}], ends, threshold=50) is None

    def test_committed_offsets_reduce_pending_lag(self):
        # Worker 0 already consumed u: no pending lag, no move.
        committed = [{"r": 2, "s": 2, "u": 20}, {"w": 2}]
        ends = {"r": 2, "s": 2, "u": 20, "w": 2}
        assert choose_move(self.plan(), committed, ends) is None

    def test_edge_counts_contribute_to_load(self):
        ends = {"r": 0, "s": 0, "u": 4, "w": 0}
        move = choose_move(
            self.plan(), [{}, {}], ends, edges=[30, 0]
        )
        assert move is not None and move.source == 0

    def test_picks_the_skew_minimizing_topic(self):
        # s (4 pending) equalizes exactly; r (0 pending) changes
        # nothing and u (6 pending) overshoots -- s wins.
        move = choose_move(
            self.plan(), [{}, {}], {"r": 0, "s": 4, "u": 6, "w": 2}
        )
        assert move is not None and move.topic == "s"
        assert move.skew_after == 0

    def test_deterministic_tie_breaks(self):
        plan = self.plan()
        ends = {"r": 6, "s": 6, "u": 6, "w": 2}
        first = choose_move(plan, [{}, {}], ends)
        again = choose_move(plan, [{}, {}], ends)
        assert first == again


class TestWorkerExportReshape:
    def test_export_stores_a_packet_at_the_committed_cut(self, tmp_path):
        feed, db = build_primary(tmp_path / "f")
        coordinator = skewed_coordinator(feed)
        coordinator.drain()
        owner = coordinator.workers[0]
        cut = owner.export_topic("u")
        assert cut == owner.committed["u"]
        assert feed.transfers() == {"u": cut}
        stored_cut, payload = feed.load_transfer("u")
        assert stored_cut == cut
        # The partial snapshot carries rows for the released topic.
        assert any("rows" in entry for entry in payload["tables"])
        coordinator.close()
        feed.close()

    def test_export_requires_subscription(self, tmp_path):
        feed, db = build_primary(tmp_path / "f")
        coordinator = skewed_coordinator(feed)
        coordinator.drain()
        with pytest.raises(FeedError):
            coordinator.workers[0].export_topic("w")
        coordinator.close()
        feed.close()

    def test_reshape_resumes_from_packet_without_full_replay(self, tmp_path):
        feed, db = build_primary(tmp_path / "f")
        coordinator = skewed_coordinator(feed)
        coordinator.drain()
        coordinator.workers[0].export_topic("u")
        # Write a suffix past the cut before the adopter reshapes.
        for i in range(4):
            db.execute(f"INSERT INTO u VALUES ({i}, {50 + i})")
        feed.flush()
        new_plan = plan_assignment(
            constraints(), 2, assignment={"r": 0, "s": 0, "u": 1, "w": 1}
        )
        adopter = coordinator.workers[1]
        reshape = adopter.reshape(new_plan.shards[1], new_plan)
        (resume,) = [r for r in reshape.added if r.topic == "u"]
        assert resume.mode == "packet"
        assert resume.end - resume.cut == 4  # only the suffix remains
        while adopter.lag:
            adopter.sync()
        replayed = adopter.applied_records["u"] - resume.baseline
        assert replayed == 4  # == retained suffix, not full history
        coordinator.close()
        feed.close()


class TestCoordinatorHandoff:
    def test_five_step_protocol_preserves_equivalence(self, coordinate):
        coordinator, feed, db = coordinate()
        coordinator.drain()
        assert coordinator.graph.as_dict() == expected_graph(db)
        rows = coordinator.status()
        assert all(row.alive and row.lag == 0 for row in rows)
        assert {t for row in rows for t in row.owned} == set(FOUR_TOPICS)
        for i in range(4):  # a suffix the adopter must NOT re-bootstrap
            db.execute(f"INSERT INTO u VALUES ({i}, {40 + i})")
        feed.flush()
        steps = []
        report = coordinator.handoff("u", 1, on_step=steps.append)
        assert steps == [
            "released", "granted", "adopted", "pruned", "cleared",
        ]
        assert report.plan == coordinator.plan
        assert coordinator.plan.topic_owner["u"] == 1
        (resume,) = [r for r in report.reshapes[1].added if r.topic == "u"]
        assert resume.mode == "packet"
        assert resume.end - resume.cut == 4  # only the retained suffix
        coordinator.drain()
        assert coordinator.graph.as_dict() == expected_graph(db)
        assert coordinator.feed.transfers() == {}  # packets are spent
        # The old owner's subscription, rows and floor are gone.
        assert "u" not in coordinator.status()[0].subscribed
        old_owner = coordinator.workers[0]
        if isinstance(old_owner, ShardWorker):  # rows visible in-process
            assert not dict(old_owner.db.table("u").items())
        points = coordinator.feed.recovery_points()
        assert "u" not in points["shard-0"].floor
        assert "u" in points["shard-1"].floor

    def test_handoff_to_current_owner_is_a_no_op(self, coordinate):
        coordinator, feed, db = coordinate()
        coordinator.drain()
        steps = []
        report = coordinator.handoff("u", 0, on_step=steps.append)
        assert steps == [] and report.reshapes == {}

    def test_handoff_validates_inputs(self, coordinate):
        coordinator, feed, db = coordinate()
        coordinator.drain()
        with pytest.raises(ConstraintError):
            coordinator.handoff("nope", 1)
        with pytest.raises(ConstraintError):
            coordinator.handoff("u", 9)

    def test_rebalance_moves_the_hot_topic(self, coordinate):
        coordinator, feed, db = coordinate(hot=30, quiet_w=True)
        # Workers attached but NOT drained: topic u's lag dominates.
        move = coordinator.rebalance()
        assert move is not None and move.topic == "u"
        assert coordinator.plan.topic_owner["u"] == move.target
        coordinator.drain()
        assert coordinator.graph.as_dict() == expected_graph(db)


class TestProcessCoordinatorHandoff(TestCoordinatorHandoff):
    processes = True


class TestDeadWorkerStatus:
    def test_status_surfaces_a_dead_worker_as_lagging(self, coordinate):
        # The regression pin: a worker that died between checkpoint and
        # commit shows up *lagging* from its registered offsets -- not
        # silently absent.
        coordinator, feed, db = coordinate()
        coordinator.drain()
        coordinator.checkpoint()
        coordinator.workers[0].kill()  # crash, not close
        for i in range(5):
            db.execute(f"INSERT INTO u VALUES ({i}, {70 + i})")
        feed.flush()
        rows = coordinator.status()
        dead = [row for row in rows if not row.alive]
        assert len(dead) == 1
        assert dead[0].index == 0
        assert dead[0].lag == 5  # pending records, from registration
        assert dead[0].committed  # the registered offsets survive
        assert coordinator.lag == 5

    def test_restart_preserves_registration_of_the_dead_worker(
        self, coordinate
    ):
        coordinator, feed, db = coordinate()
        coordinator.drain()
        coordinator.checkpoint()
        committed_before = coordinator.status()[0].committed
        coordinator.restart(0)
        # The restart kills without deregistering: had the re-attach
        # died too, the group would still be registered and visible as
        # lagging.  The restarted worker resumes exactly.
        (row, _) = coordinator.status()
        assert row.alive
        assert row.committed == committed_before
        assert row.lag == 0


class TestProcessDeadWorkerStatus(TestDeadWorkerStatus):
    processes = True
