"""Crash-schedule property suite: random kill/handoff/rebalance runs.

Each test derives a schedule from the session seed (replayable with the
``--seed`` command the failure report prints): rounds of random writes
interleaved with random faults -- parent-side SIGKILLs, chaos-armed
phase kills, handoffs, rebalances, checkpoints.  After every round the
executor is settled (supervised until respawns stick, drained to an
aligned cut) and the merged shard view must equal full re-detection on
the writer's database.  This is the process-level extension of
``tests/property/test_shard_equivalence.py``'s in-process invariant.
"""

from __future__ import annotations

import random

import pytest

from repro.conflicts import load_ownership
from repro.errors import ExecutorError

pytestmark = pytest.mark.slow

TOPICS = ("p", "c", "u", "w")


def random_write(db, rng: random.Random) -> None:
    choice = rng.randrange(6)
    if choice == 0:
        db.execute(f"INSERT INTO p VALUES ({rng.randrange(8)})")
    elif choice == 1:
        db.execute(
            f"INSERT INTO c VALUES ({rng.randrange(6)},"
            f" {rng.randrange(8)}, {rng.randrange(4)})"
        )
    elif choice == 2:
        db.execute(
            f"INSERT INTO {rng.choice(('u', 'w'))} VALUES"
            f" ({rng.randrange(5)}, {rng.randrange(6)})"
        )
    elif choice == 3:
        db.execute(
            f"UPDATE {rng.choice(('u', 'w'))} SET v = {rng.randrange(6)}"
            f" WHERE id = {rng.randrange(5)}"
        )
    elif choice == 4:
        db.execute(f"DELETE FROM c WHERE id = {rng.randrange(6)}")
    else:
        db.execute(
            f"DELETE FROM {rng.choice(('u', 'w'))}"
            f" WHERE id = {rng.randrange(5)}"
        )


def random_fault(ex, rng: random.Random) -> None:
    """One random fault/operation; failures mid-protocol are expected
    (a later settle converges them)."""
    roll = rng.randrange(5)
    try:
        if roll == 0:
            ex.kill(rng.randrange(len(ex.workers)))
        elif roll == 1:
            ex.handoff(rng.choice(TOPICS), rng.randrange(len(ex.workers)))
        elif roll == 2:
            ex.rebalance(threshold=rng.choice((0, 4)))
        elif roll == 3:
            ex.checkpoint()
        # roll == 4: no fault this round
    except ExecutorError:
        pass


@pytest.mark.deadline(90)
def test_crash_schedule_reaches_every_aligned_cut(
    rng, writer, make_executor, monolith, settle
):
    feed, db = writer
    ex = make_executor()
    for _ in range(12):
        for _ in range(rng.randrange(1, 7)):
            random_write(db, rng)
        feed.flush()
        random_fault(ex, rng)
        settle(ex)
        assert ex.graph.as_dict() == monolith()
    # Converged: no packets pending, ownership manifest consistent.
    assert ex.feed.transfers() == {}
    ownership = load_ownership(ex.directory)
    assert ownership is not None
    assert set(ownership.owner) == set(TOPICS)


@pytest.mark.deadline(90)
def test_chaos_armed_schedule_survives_phase_kills(
    rng, writer, make_executor, kill_at, monolith, settle
):
    # Arm a random phase kill at construction, then run a short
    # schedule: the armed worker dies at its phase, the supervisor
    # respawns it clean, and every aligned cut still matches.
    feed, db = writer
    phase = rng.choice(("apply", "checkpoint", "release", "adopt"))
    victim = rng.randrange(2)
    topic = "u" if phase in ("release", "adopt") else None
    ex = make_executor(chaos=kill_at(victim, phase, topic=topic))
    for _ in range(6):
        for _ in range(rng.randrange(1, 5)):
            random_write(db, rng)
        feed.flush()
        try:
            ex.handoff("u", rng.randrange(2))
        except ExecutorError:
            pass
        try:
            ex.checkpoint()
        except ExecutorError:
            pass
        settle(ex)
        assert ex.graph.as_dict() == monolith()


@pytest.mark.deadline(90)
def test_respawn_resumes_from_checkpoint_not_scratch(
    rng, writer, make_executor, settle
):
    # Respawn economics: after a checkpoint at offset N and a kill, the
    # respawned worker restores in snapshot mode and replays only the
    # suffix written after N.
    feed, db = writer
    ex = make_executor()
    ex.drain()
    ex.checkpoint()
    suffix = rng.randrange(3, 9)
    for _ in range(suffix):
        db.execute(f"INSERT INTO w VALUES ({rng.randrange(5)}, 9)")
    feed.flush()
    ex.kill(1)  # worker 1 owns w
    events = ex.supervise()
    assert [e.index for e in events] == [1]
    rows = settle(ex)
    respawned = [r for r in rows if r.index == 1][0]
    assert respawned.restore_mode == "snapshot"
    # Only the post-checkpoint suffix was replayed through the feed.
    assert respawned.applied_records.get("w", 0) == suffix
