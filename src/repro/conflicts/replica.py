"""Replica conflict-hypergraph maintenance over the change feed.

The road to sharded consistent query answering runs through one
capability: rebuilding conflict state *away* from the process that owns
the writes.  A :class:`ReplicaHypergraph` attaches to a
:class:`~repro.engine.feed.ChangeFeed` under a consumer group and keeps
three things in lock-step:

1. **A replica database.**  The feed carries serialized schemas (DDL
   records) and full rows under their original tids, so the replica
   rebuilds an exact copy of the primary's state -- tids included, which
   matters because tids are the hypergraph's vertices.
2. **A committed offset per topic.**  The group's committed offsets mark
   the *cut* the replica has durably reached; on re-attach (e.g. after a
   process restart) the replica *streams* the committed prefix of the
   feed to rebuild its database (bounded memory: one segment per topic
   resident at a time), runs full conflict detection on it, and resumes
   consuming from the cut.  Bootstrap, the snapshot gap and every sync
   all apply records through the database layer's one replay loop,
   :func:`~repro.engine.database.replay_records`.
3. **The conflict hypergraph.**  Past bootstrap, the polled records are
   handed unchanged to
   :meth:`~repro.conflicts.incremental.IncrementalDetector.apply_records`,
   so a replica tracks the primary at delta cost.  The maintained invariant
   -- asserted by the property suite -- is that after every committed
   sync the graph equals full re-detection over the replica database.

Attached to a *reader* feed instance (a second ``ChangeFeed`` opened on
the writer's directory), the replica is a genuinely live follower:
every :meth:`ReplicaHypergraph.sync` re-scans the directory, so appends
the writer flushed after the replica opened stream in; the
:meth:`ReplicaHypergraph.follow` loop packages that into a daemon-style
tail (surfaced in the CLI as ``.feed tail``).

Apply-then-commit ordering makes the pipeline exactly-once: records are
applied to the replica database, the offsets commit, and only then does
the hypergraph advance.  A crash anywhere in between re-attaches from
the last commit, where full detection reconstructs whatever the
incremental layer had not persisted (the hypergraph itself is derived
state and is never written to disk).

**Retention.**  When the feed truncates sealed segments
(``retention="truncate"``), a re-attaching replica may find its
committed prefix gone.  Its escape hatch is the group *snapshot*: a
serialized copy of the replica database stored at a committed cut
(:meth:`ReplicaHypergraph.checkpoint`, and automatically on
:meth:`ReplicaHypergraph.close`).  Bootstrap then restores the snapshot
and replays only the still-retained gap -- the feed never truncates
past a group's snapshot, so the gap is always readable.  The snapshot
wire format lives in :mod:`repro.engine.snapshot` and is shared with
the durable writer's own checkpoints
(:meth:`repro.engine.database.Database.checkpoint`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.conflicts.detection import detect_conflicts
from repro.conflicts.hypergraph import ConflictHypergraph
from repro.conflicts.incremental import DeltaStats, IncrementalDetector
from repro.engine.database import WRITER_GROUP, Database, replay_records
from repro.engine.feed import (
    RECORD_CHANGE,
    SCHEMA_TOPIC,
    ChangeFeed,
    FeedRecord,
)
from repro.engine.snapshot import restore_database, snapshot_database
from repro.errors import CatalogError, FeedError


@dataclass
class ReplicaSync:
    """What one :meth:`ReplicaHypergraph.sync` call did.

    Attributes:
        records: feed records consumed (data + DDL).
        mode: ``"noop"`` (nothing pending), ``"incremental"`` (delta
            maintenance), ``"full"`` (re-detection; DDL or recovery) or
            ``"deferred"`` (constraint tables still missing at the cut).
        lag: records still pending past this sync's commit.
        seconds: wall-clock time of the sync.
        delta: incremental-apply statistics (incremental mode only).
    """

    records: int = 0
    mode: str = "noop"
    lag: int = 0
    seconds: float = 0.0
    delta: Optional[DeltaStats] = None


@dataclass
class ReplicaFollow:
    """Summary of one :meth:`ReplicaHypergraph.follow` run."""

    syncs: int = 0
    records: int = 0
    seconds: float = 0.0


class ReplicaHypergraph:
    """A conflict hypergraph maintained from a change feed.

    Args:
        feed: the feed to consume (typically a durable
            :class:`~repro.engine.feed.ChangeFeed` opened on the
            primary's directory -- the same instance, or a second
            *reader* instance in another process, which is then tailed
            live).
        constraints: the constraint set (must match the primary's for
            the replica to mean anything).
        group: consumer-group name; committed offsets are stored under
            it, so re-attaching with the same name resumes the replica.
        snapshots: whether to persist recovery snapshots (on
            :meth:`close` and :meth:`checkpoint`); meaningless on
            in-memory feeds.  Snapshots are what let the replica
            re-attach after feed retention truncated its prefix.
        checkpoint_records: when set, automatically checkpoint after
            this many records have been committed since the last one.
        topics: subscribe to a subset of the feed's topics (relation
            names; the ``_schema`` topic is always included so DDL
            replicates).  The replica then maintains a *partial*
            database -- only the subscribed relations carry rows --
            which is the shard-worker shape
            (:class:`~repro.conflicts.shard.ShardWorker`); its retention
            floor only pins the subscribed topics.
        extra_referenced: FK-referenced relations protected by
            constraints *outside* this replica's list (other shards');
            forwarded into detection's restricted-class check.
        bootstrap: ``"replay"`` (default) streams the committed prefix
            and falls back to the group snapshot only when retention
            truncated it; ``"snapshot"`` restores the group snapshot
            first whenever one exists and replays only the gap -- what
            a supervisor respawning a crashed shard worker wants, since
            it makes restart cost proportional to the suffix, not the
            history.  ``restore_mode`` / ``restore_records`` record
            what actually happened.

    Raises:
        FeedError: when the committed prefix is no longer retained and
            no snapshot covers it (an in-memory feed overflowed, or a
            durable feed truncated past a group that never
            checkpointed).
    """

    def __init__(
        self,
        feed: ChangeFeed,
        constraints: Iterable[object],
        group: str = "replica",
        snapshots: bool = True,
        checkpoint_records: Optional[int] = None,
        topics: Optional[Iterable[str]] = None,
        extra_referenced: Iterable[str] = (),
        bootstrap: str = "replay",
    ) -> None:
        if bootstrap not in ("replay", "snapshot"):
            raise FeedError(f"unknown bootstrap mode {bootstrap!r}")
        self.feed = feed
        self.group = group
        self._prefer_snapshot = bootstrap == "snapshot"
        #: how the last bootstrap rebuilt the database: ``"replay"``
        #: (committed prefix streamed), ``"snapshot"`` (group snapshot
        #: restored + gap replayed) or ``"seeded"`` (writer checkpoint).
        self.restore_mode = "replay"
        #: feed records replayed by the last bootstrap.
        self.restore_records = 0
        #: per-topic records applied over this replica's lifetime
        #: (bootstrap replay included) -- what lets a handoff assert
        #: "resumed from the cut, replayed exactly the retained suffix".
        self.applied_records: dict[str, int] = {}
        self.constraints = list(constraints)
        self.topics = (
            None
            if topics is None
            else frozenset(
                {str(t).lower() for t in topics} | {SCHEMA_TOPIC}
            )
        )
        self.extra_referenced = frozenset(
            relation.lower() for relation in extra_referenced
        )
        if not feed.durable and feed.dropped:
            raise FeedError(
                "cannot attach a replica to an in-memory feed that already"
                f" dropped {feed.dropped} unconsumed records -- attach the"
                " replica before the primary takes writes, or use a"
                " durable feed"
            )
        self._snapshots = snapshots and feed.durable
        self.checkpoint_records = checkpoint_records
        self._since_checkpoint = 0
        self._closed = False
        self._consumer = feed.consumer(
            group, start="beginning", topics=self.topics
        )
        try:
            #: the replica's own database, rebuilt purely from the feed.
            self.db = Database()
            self._detector: Optional[IncrementalDetector] = None
            self._needs_full = False
            self._bootstrap()
        except BaseException:
            # A failed bootstrap must release the consumer-group
            # registration, or the half-built replica pins feed
            # retention forever.
            self._consumer.close()
            raise

    # ------------------------------------------------------------ bootstrap

    def _bootstrap(self) -> None:
        """Stream the committed prefix, then full-detect on it.

        The prefix is consumed record-by-record (one feed segment per
        topic resident at a time), so bootstrap memory is bounded by the
        replica database, not the feed history.  When retention
        truncated the prefix, the group's snapshot is restored first and
        only the still-retained gap is replayed; a *fresh* group on a
        feed whose prefix is already gone (it has no snapshot of its
        own) seeds itself from the writer's checkpoint instead.
        """
        committed = self._consumer.committed
        if not committed and self._seed_from_writer_checkpoint():
            self.restore_mode = "seeded"
        elif self._prefer_snapshot and self._restore_from_snapshot(committed):
            pass  # snapshot + gap replay, done
        else:
            try:
                # iter_records validates retention eagerly, but segment
                # files are read lazily -- a truncation racing us can
                # still surface as a FeedError mid-replay, so the whole
                # replay is inside the fallback's try.
                self.restore_records = self._replay(
                    self.feed.iter_records(upto=committed)
                )
                self.restore_mode = "replay"
            except FeedError:
                self.db = Database()  # discard the half-applied replay
                if not self._restore_from_snapshot(committed):
                    raise
        try:
            self._full_detect()
        except CatalogError:
            # A fresh replica attaches before the CREATE TABLE records
            # its constraints need have replicated; the first sync (which
            # carries that DDL) runs the deferred full detection.
            self._detector = None
            self._needs_full = True

    def _replay(self, records: Iterable[FeedRecord]) -> int:
        """Replay ``records`` into the replica database through
        :func:`~repro.engine.database.replay_records`, counting them per
        topic into ``applied_records``; returns how many were applied."""
        counts = replay_records(self.db, records)
        for topic, count in counts.items():
            self.applied_records[topic] = (
                self.applied_records.get(topic, 0) + count
            )
        return sum(counts.values())

    def _restore_from_snapshot(self, committed: dict[str, int]) -> bool:
        """Restore the group's snapshot into the (fresh) database and
        replay the retained gap up to ``committed``.  Returns False when
        the group never stored a snapshot."""
        snapshot = self._consumer.load_snapshot()
        if snapshot is None:
            return False
        snap_committed, payload = snapshot
        self.applied_records = {}
        restore_database(self.db, payload)
        self.restore_records = self._replay(
            self.feed.iter_records(start=snap_committed, upto=committed)
        )
        self.restore_mode = "snapshot"
        return True

    def _seed_from_writer_checkpoint(self) -> bool:
        """Bootstrap a brand-new group over an already-reclaimed feed.

        A group with no committed offsets wants the history from offset
        0 -- which retention may have reclaimed long before the group
        existed.  The writer's checkpoint (kept in the feed directory,
        and never truncated past) carries exactly the state at its cut:
        restore it, commit the group at that cut, and consume the
        retained records from there.  Returns whether seeding happened
        (False on in-memory feeds, unreclaimed feeds, or when no writer
        checkpoint exists -- the plain replay handles those).
        """
        if not self.feed.durable:
            return False
        # A reader instance's view can predate a foreign reclaim: judge
        # replayability from the live directory, not stale memory.
        self.feed.refresh()
        if all(
            t.start == 0
            for t in self.feed.topics()
            if self.topics is None or t.name in self.topics
        ):
            return False  # the (subscribed) history is still replayable
        seeded = self.feed.load_snapshot(WRITER_GROUP)
        if seeded is None:
            return False
        cut, payload = seeded
        # A subscribed replica restores only its slice of the writer's
        # checkpoint (schemas in full -- detection needs the catalog --
        # rows only for subscribed relations); seek() drops the foreign
        # topics from the cut.
        restore_database(self.db, payload, tables=self.topics)
        self._consumer.seek(cut)
        self._consumer.commit()
        return True

    def _mark(self, phase: str, topic: Optional[str] = None) -> None:
        """Crash-phase seam: called at the durability-critical points of
        the pipeline (``"apply"`` after records hit the database but
        before the offset commit, ``"checkpoint"`` just before the
        snapshot store, and the shard handoff phases ``"release"`` /
        ``"adopt"``).  A no-op here; the process executor's chaos layer
        overrides it to SIGKILL the worker at an armed phase, so the
        fault-injection suite can pin recovery at every boundary."""
        return None

    def _full_detect(self) -> None:
        report = detect_conflicts(
            self.db,
            self.constraints,
            keep_raw=True,
            extra_referenced=self.extra_referenced,
        )
        self._detector = IncrementalDetector(
            self.db, self.constraints, extra_referenced=self.extra_referenced
        )
        self._detector.bootstrap(report)
        self._needs_full = False

    # ----------------------------------------------------------- snapshots

    def checkpoint(self) -> None:
        """Persist a recovery snapshot of the replica database at the
        group's current committed cut.

        The feed never truncates past a group's snapshot, so after a
        checkpoint the segments below the cut become reclaimable -- and
        a later re-attach restores the snapshot instead of replaying
        them.

        Raises:
            FeedError: on an in-memory feed (nothing durable to bind to).
        """
        self._mark("checkpoint")
        self._consumer.store_snapshot(snapshot_database(self.db))
        self._since_checkpoint = 0

    # ----------------------------------------------------------- consuming

    @property
    def graph(self) -> ConflictHypergraph:
        """The maintained conflict hypergraph.

        Unavailable only between a deferred bootstrap (constraints whose
        tables have not replicated yet) and the first :meth:`sync`.
        """
        assert self._detector is not None and self._detector.graph is not None
        return self._detector.graph

    @property
    def ready(self) -> bool:
        """Whether a hypergraph is maintained (False while detection is
        deferred because constraint tables have not replicated yet)."""
        return self._detector is not None

    @property
    def lag(self) -> int:
        """Feed records past this replica's committed cut (re-scans the
        directory on reader instances, so writer appends show up)."""
        return self._consumer.lag

    @property
    def committed(self) -> dict[str, int]:
        """The consumer group's committed offset per topic (a copy)."""
        return self._consumer.committed

    def sync(self, limit: Optional[int] = None) -> ReplicaSync:
        """Consume pending feed records and advance the hypergraph.

        ``limit`` bounds the records consumed (e.g. to stop at an
        intermediate cut); the commit happens at the batch boundary, so
        every return is a valid restart point.

        Raises:
            FeedError: when the feed dropped history this replica never
                consumed (in-memory overflow, or a truncation that
                outran this group) -- the replica can no longer converge
                and must be rebuilt from a fresh feed.
            ConstraintError: when the new state leaves the restricted
                foreign-key class (full re-detection would raise too).
        """
        started = time.perf_counter()
        records, lost = self._consumer.poll(limit)
        if lost:
            raise FeedError(
                f"replica group {self.group!r}: feed history was dropped"
                " before it was consumed; the replica cannot converge"
            )
        if not records:
            if self._needs_full:  # recover from an earlier failed apply
                try:
                    self._full_detect()
                    mode = "full"
                except CatalogError:
                    mode = "deferred"  # constraint tables still missing
                return ReplicaSync(
                    mode=mode,
                    lag=self._consumer.lag,
                    seconds=time.perf_counter() - started,
                )
            return ReplicaSync(
                mode="noop",
                lag=self._consumer.lag,
                seconds=time.perf_counter() - started,
            )
        # 1) Advance the replica database (the durable part of the cut),
        #    batched so a big poll amortizes per-record overhead.
        ddl = any(record.kind != RECORD_CHANGE for record in records)
        self._replay(records)
        self._mark("apply")
        # 2) Commit the cut: a crash from here on re-attaches *after*
        #    these records, and full detection rebuilds the graph.
        self._consumer.commit()
        self._since_checkpoint += len(records)
        if (
            self._snapshots
            and self.checkpoint_records is not None
            and self._since_checkpoint >= self.checkpoint_records
        ):
            self.checkpoint()
        # 3) Advance the hypergraph: incrementally when possible, by
        #    full re-detection across DDL or after a failed apply.
        sync = ReplicaSync(records=len(records))
        if ddl or self._needs_full:
            # Drop the pre-DDL detector before re-detecting: if full
            # detection raises (e.g. the new state is outside the
            # restricted FK class) the stale graph must not keep taking
            # incremental deltas on later syncs.
            self._detector = None
            self._needs_full = True
            try:
                self._full_detect()  # clears _needs_full on success
                sync.mode = "full"
            except CatalogError:
                # A cut can fall between DDL records, leaving constraint
                # tables missing *at this cut*; stay deferred until the
                # rest of the schema replicates.
                sync.mode = "deferred"
        else:
            try:
                sync.delta = self._apply_incremental(records)
            except Exception:
                # The database already advanced; make the next sync (or
                # the caller's retry) rebuild the graph from it.
                self._needs_full = True
                raise
            sync.mode = "incremental"
        sync.lag = self._consumer.lag
        sync.seconds = time.perf_counter() - started
        return sync

    def follow(
        self,
        poll_interval: float = 0.1,
        max_seconds: Optional[float] = None,
        idle_limit: Optional[int] = None,
        limit: Optional[int] = None,
        on_sync: Optional[Callable[[ReplicaSync], None]] = None,
    ) -> ReplicaFollow:
        """Continuously drain *and live-tail* the feed.

        Each iteration syncs (bounded by ``limit`` records when given);
        when nothing was pending the loop sleeps ``poll_interval`` and
        re-polls -- on a reader feed instance that re-scans the
        directory, so appends from the writer process stream in as they
        are flushed.  The loop ends after ``idle_limit`` consecutive
        empty polls, or once ``max_seconds`` elapsed; with neither set
        it follows forever (the daemon form).  ``on_sync`` is called
        with each non-empty :class:`ReplicaSync`.
        """
        started = time.perf_counter()
        summary = ReplicaFollow()
        idle = 0
        while True:
            sync = self.sync(limit)
            if sync.records:
                idle = 0
                summary.syncs += 1
                summary.records += sync.records
                if on_sync is not None:
                    on_sync(sync)
            else:
                idle += 1
                if idle_limit is not None and idle >= idle_limit:
                    break
            elapsed = time.perf_counter() - started
            if max_seconds is not None and elapsed >= max_seconds:
                break
            # sync() already measured the lag at its commit; asking
            # self.lag again would re-scan the directory a second time
            # per idle tick for nothing.
            if not sync.records and sync.lag == 0:
                remaining = (
                    max_seconds - elapsed
                    if max_seconds is not None
                    else poll_interval
                )
                time.sleep(max(min(poll_interval, remaining), 0.0))
        summary.seconds = time.perf_counter() - started
        return summary

    def _apply_incremental(self, records: Sequence[FeedRecord]) -> DeltaStats:
        assert self._detector is not None
        return self._detector.apply_records(
            [record for record in records if record.kind == RECORD_CHANGE]
        )

    def close(self) -> None:
        """Checkpoint (durable feeds) and detach from the feed.

        The group's durable committed offsets -- and its snapshot --
        survive, so re-attaching under the same name resumes the
        replica even after retention truncated the raw prefix.
        """
        if self._closed:
            return
        self._closed = True
        # An abandoned consumer (simulated crash) cannot checkpoint;
        # closing the replica around it must not raise.
        if self._snapshots and not self._consumer.closed:
            self.checkpoint()
        self._consumer.close()
