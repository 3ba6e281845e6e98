"""Chaos-tier fixtures: fault injection for the process shard executor.

The suite runs a real writer feeding a durable feed, a monolithic
full-detection oracle, and a :class:`ProcessShardExecutor` whose worker
processes can be SIGKILLed at named pipeline phases (:func:`kill_at`) or
from the parent (:meth:`ProcessShardExecutor.kill`).  Every test drives
the system to an *aligned cut* -- writer flushed, every worker drained
-- and asserts the merged shard view equals full re-detection on the
writer's database.

Everything here is ``slow``-tier (excluded from tier-1); schedules are
derived from the session seed, so a CI failure replays locally with the
printed ``--seed`` command.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

import pytest

from repro.conflicts import (
    ChaosPlan,
    ProcessShardExecutor,
    detect_conflicts,
)
from repro.constraints import FunctionalDependency
from repro.constraints.foreign_key import ForeignKeyConstraint
from repro.engine.database import Database
from repro.engine.feed import ChangeFeed
from repro.errors import ExecutorError

pytestmark = pytest.mark.slow

#: Phases a worker process can be killed at (see ChaosPlan).
PHASES = ("apply", "checkpoint", "release", "adopt")


def kill_at(
    worker: int, phase: str, topic: Optional[str] = None, after: int = 0
) -> Dict[int, ChaosPlan]:
    """Arm ``worker`` to SIGKILL itself at ``phase``.

    Returns the ``chaos=`` mapping for
    :class:`ProcessShardExecutor` -- merge several with ``|`` to arm
    multiple workers.
    """
    return {worker: ChaosPlan(phase=phase, topic=topic, after=after)}


def constraint_set() -> list[object]:
    return [
        FunctionalDependency("c", ["id"], ["v"]),
        ForeignKeyConstraint("c", ["pid"], "p", ["id"]),
        FunctionalDependency("u", ["id"], ["v"]),
        FunctionalDependency("w", ["id"], ["v"]),
    ]


#: The skewed initial assignment: worker 0 carries the FK component and
#: the hot topic u, worker 1 only w.
SKEWED = {"c": 0, "p": 0, "u": 0, "w": 1}


def seed_tables(db: Database) -> None:
    db.execute("CREATE TABLE p (id INTEGER)")
    db.execute("CREATE TABLE c (id INTEGER, pid INTEGER, v INTEGER)")
    db.execute("CREATE TABLE u (id INTEGER, v INTEGER)")
    db.execute("CREATE TABLE w (id INTEGER, v INTEGER)")
    db.execute("INSERT INTO p VALUES (0), (1)")
    db.execute("INSERT INTO c VALUES (0, 0, 2), (0, 0, 3), (1, 5, 2)")
    for i in range(20):  # the hot topic, with FD conflicts
        db.execute(f"INSERT INTO u VALUES ({i % 4}, {i})")
    db.execute("INSERT INTO w VALUES (1, 1), (1, 2)")


def monolith_edges(db: Database) -> dict:
    """Full re-detection on the writer: the oracle at an aligned cut."""
    return detect_conflicts(db, constraint_set()).hypergraph.as_dict()


def settle(ex: ProcessShardExecutor, rounds: int = 10) -> list:
    """Supervise-and-drain until the executor reaches an aligned cut
    (bounded; chaos-killed workers need a respawn before draining).
    Returns the workers' statuses at the cut."""
    for _ in range(rounds):
        ex.supervise()
        try:
            ex.drain()
        except ExecutorError:
            continue
        return ex.status()
    raise AssertionError("executor failed to settle after chaos")


@pytest.fixture(name="kill_at")
def kill_at_fixture() -> Callable[..., Dict[int, ChaosPlan]]:
    """The :func:`kill_at` helper, as a fixture."""
    return kill_at


@pytest.fixture(name="settle")
def settle_fixture() -> Callable[..., list]:
    """The :func:`settle` helper, as a fixture."""
    return settle


@pytest.fixture
def monolith(writer) -> Callable[[], dict]:
    """Zero-argument oracle: full re-detection on the writer, now."""
    _, db = writer
    return lambda: monolith_edges(db)


@pytest.fixture
def writer(tmp_path) -> Iterator[tuple[ChangeFeed, Database]]:
    """A durable feed plus its writer database, pre-seeded and flushed."""
    feed = ChangeFeed(tmp_path / "feed")
    db = Database(feed=feed)
    seed_tables(db)
    feed.flush()
    yield feed, db
    feed.close()


@pytest.fixture
def make_executor(
    writer, tmp_path
) -> Iterator[Callable[..., ProcessShardExecutor]]:
    """Factory for executors over the writer's feed directory.

    Defaults to the skewed assignment; keyword arguments override.
    Every executor built is closed at teardown even when the test
    failed mid-protocol.
    """
    made: list[ProcessShardExecutor] = []

    def factory(**kwargs) -> ProcessShardExecutor:
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("assignment", dict(SKEWED))
        ex = ProcessShardExecutor(
            tmp_path / "feed", constraint_set(), **kwargs
        )
        made.append(ex)
        return ex

    yield factory
    for ex in made:
        ex.close()
