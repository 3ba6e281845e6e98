"""Shard workers in their own OS processes: the process link.

:class:`~repro.conflicts.shard.ShardCoordinator` holds the whole shard
state machine -- plan seeding, the five-step handoff, rebalancing,
drains, checkpoints, dead-worker status, the merged graph -- and reaches
each worker through a :class:`~repro.conflicts.shard.WorkerLink`.  This
module supplies the second link and the one coordinator subclass that
uses it:

* :class:`ProcessLink` runs one :class:`~repro.conflicts.shard.ShardWorker`
  in its own ``multiprocessing`` process.  The worker attaches to the
  durable feed *by directory path* and rebuilds everything from disk,
  so the entry point is spawn-safe; the platform's default start method
  is used.  Each link op is a control request over a pipe -- the op is
  the :class:`~repro.conflicts.shard.WorkerLink` method name, matched to
  its reply by request id -- and the worker sends **heartbeats** (its
  status) between requests.  Like an in-process worker, it syncs only
  when asked to.  ``reshape`` carries the pickled
  :class:`~repro.conflicts.shard.ShardSpec` /
  :class:`~repro.conflicts.shard.ShardPlan`, so ownership grants ride
  the same channel.

* :class:`ProcessShardExecutor` is a
  :class:`~repro.conflicts.shard.ShardCoordinator` that spawns its
  workers through process links and adds what only processes need:

  - **Ownership.**  It persists the topic -> worker assignment in
    ``shards.json`` inside the feed directory (atomic write, fsync
    before rename).  The persisted map -- not the constructor arguments
    -- is authoritative on re-attach, and bumping it is the *commit
    point* (step ``granted``) of the handoff.  A worker's own durable
    half is its consumer-group registration: resubscribing pins the
    adopted topic at the handoff cut, so retention floors follow
    ownership automatically.  The in-process coordinator keeps no
    manifest: one feed directory may be sharded by coordinators of
    different worker counts in turn.
  - **Supervision.**  :meth:`ProcessShardExecutor.supervise` detects
    dead workers (exit code) and hung ones (no heartbeat within
    :data:`HEARTBEAT_TIMEOUT`), SIGKILLs the hung, and respawns both
    kinds.  A respawned worker bootstraps ``bootstrap="snapshot"`` --
    its group snapshot plus the retained suffix, cost proportional to
    what it missed -- then *reconciles*: it re-attaches under the
    subscription its group actually has on disk (a crash mid-handoff
    leaves the registration ahead of or behind the plan) and reshapes
    to the plan's spec, adopting any pending transfer packets.  Every
    crash point of the handoff protocol therefore converges to the
    planned state after one supervision pass.
  - **Chaos.**  A :class:`ChaosPlan` arms a worker process to SIGKILL
    *itself* at a named pipeline phase (``apply`` after records hit the
    database but before the offset commit, ``checkpoint`` just before
    the snapshot store, ``release`` / ``adopt`` inside the handoff) --
    the fault-injection seam ``tests/chaos/`` drives.  Parent-side kill
    points (before/after the ownership commit) use
    :meth:`ProcessShardExecutor.kill` from a handoff ``on_step``
    callback instead.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from repro.conflicts.hypergraph import ConflictHypergraph
from repro.conflicts.replica import ReplicaSync
from repro.conflicts.shard import (
    ShardCoordinator,
    ShardPlan,
    ShardReshape,
    ShardSpec,
    ShardStatus,
    ShardWorker,
    WorkerLink,
)
from repro.engine.feed import SCHEMA_TOPIC, ChangeFeed
from repro.errors import ExecutorError, FeedError

#: The ownership manifest inside the feed directory.
OWNERSHIP_FILE = "shards.json"
#: Worker heartbeat cadence, seconds.
HEARTBEAT_INTERVAL = 0.25
#: A live worker silent this long is declared hung by ``supervise``.
HEARTBEAT_TIMEOUT = 10.0
#: Parent-side deadline per control request, seconds (covers bootstrap:
#: the first request blocks until the worker finishes attaching).
REQUEST_TIMEOUT = 60.0
#: The link ops a worker process serves (``close`` is the stop request).
REMOTE_OPS = frozenset(
    {
        "status",
        "sync",
        "drain",
        "checkpoint",
        "export_topic",
        "reshape",
        "shard_graph",
        "close",
    }
)


@dataclass(frozen=True)
class ChaosPlan:
    """Fault-injection arming for one worker process.

    The worker SIGKILLs *itself* when the pipeline reaches the armed
    phase -- a real mid-syscall death, not an exception -- so the
    recovery paths the chaos suite pins are the ones production would
    take.

    Attributes:
        phase: the crash-seam name (``"apply"``, ``"checkpoint"``,
            ``"release"``, ``"adopt"`` -- see
            :meth:`repro.conflicts.replica.ReplicaHypergraph._mark`).
        topic: only match when the phase concerns this topic (None =
            any; ``apply``/``checkpoint`` phases carry no topic and
            only match a plan without one).
        after: skip this many matching hits first -- kill the Nth
            checkpoint, not the first.
    """

    phase: str
    topic: Optional[str] = None
    after: int = 0


@dataclass(frozen=True)
class WorkerEvent:
    """One supervision action: why a worker was respawned."""

    index: int
    reason: str
    respawns: int


@dataclass(frozen=True)
class Ownership:
    """The persisted topic -> worker assignment (``shards.json``)."""

    workers: int
    owner: dict[str, int]
    epoch: int


def load_ownership(directory: str | os.PathLike) -> Optional[Ownership]:
    """The persisted ownership manifest under ``directory``, or None
    when no executor ever ran there.

    Raises:
        ExecutorError: when the manifest is corrupt.
    """
    path = Path(directory) / OWNERSHIP_FILE
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return Ownership(
            workers=int(data["workers"]),
            owner={str(k): int(v) for k, v in data["owner"].items()},
            epoch=int(data.get("epoch", 0)),
        )
    except (ValueError, KeyError) as exc:
        raise ExecutorError(f"corrupt ownership manifest {path}") from exc


def store_ownership(directory: str | os.PathLike, ownership: Ownership) -> None:
    """Atomically persist the ownership manifest with the feed's own
    durable writer (fsync before rename: the grant must never be
    half-visible to a re-attaching executor)."""
    ChangeFeed._atomic_json(
        Path(directory) / OWNERSHIP_FILE,
        {
            "workers": ownership.workers,
            "owner": dict(sorted(ownership.owner.items())),
            "epoch": ownership.epoch,
        },
    )


# --------------------------------------------------------------- worker side


class _ProcessWorker(ShardWorker):
    """A shard worker whose crash seam is wired to the chaos plan."""

    chaos: Optional[ChaosPlan] = None
    chaos_hits: int = 0

    def _mark(self, phase: str, topic: Optional[str] = None) -> None:
        plan = self.chaos
        if plan is None or plan.phase != phase:
            return
        if plan.topic is not None and plan.topic != topic:
            return
        self.chaos_hits += 1
        if self.chaos_hits > plan.after:
            os.kill(os.getpid(), signal.SIGKILL)

    def status(self) -> ShardStatus:
        return replace(super().status(), pid=os.getpid())


def _construct(
    feed: ChangeFeed,
    spec: ShardSpec,
    plan: ShardPlan,
    group: str,
    chaos: Optional[ChaosPlan],
) -> ShardWorker:
    worker = _ProcessWorker(feed, spec, plan, group=group, bootstrap="snapshot")
    worker.chaos = chaos
    worker.chaos_hits = 0
    return worker


def _attach_worker(
    feed: ChangeFeed,
    spec: ShardSpec,
    plan: ShardPlan,
    group: str,
    chaos: Optional[ChaosPlan],
    checkpoint_on_attach: bool,
) -> ShardWorker:
    """Attach (or re-attach) the shard worker, reconciling a respawn.

    The worker bootstraps under the subscription its group actually has
    *on disk* -- a crash mid-handoff leaves the registration ahead of
    or behind the plan -- and then reshapes to the target spec,
    adopting pending transfer packets.  A registered topic that can
    neither replay (history reclaimed) nor restore from the group
    snapshot (the worker died between resubscribing and its first
    checkpoint) is dropped from the registration and re-adopted from
    its still-pending packet, which has pinned the suffix all along.
    """
    target = frozenset(
        {str(t).lower() for t in spec.subscribed} | {SCHEMA_TOPIC}
    )
    point = feed.recovery_points().get(group)
    boot_topics = target
    if point is not None and point.topics is not None:
        boot_topics = frozenset(point.topics) | {SCHEMA_TOPIC}
    boot_spec = replace(spec, subscribed=tuple(sorted(boot_topics)))
    try:
        worker = _construct(feed, boot_spec, plan, group, chaos)
    except FeedError:
        pending = set(feed.transfers())
        reduced = frozenset(
            name for name in boot_topics if name not in pending
        )
        if reduced == boot_topics:
            raise  # nothing in flight explains the failure
        feed.update_subscription(group, reduced)
        boot_spec = replace(spec, subscribed=tuple(sorted(reduced)))
        worker = _construct(feed, boot_spec, plan, group, chaos)
    if frozenset(worker.topics or ()) != target:
        worker.reshape(spec, plan)
        return worker
    worker.spec = spec
    worker.constraints = list(spec.constraints)
    if checkpoint_on_attach:
        # A respawn that needed no reshape still re-establishes its
        # floor: the fresh checkpoint covers topics adopted by a
        # crashed handoff, letting the supervisor sweep their packets.
        worker.checkpoint()
    return worker


def _handle(worker: ShardWorker, conn: Connection, message: dict) -> bool:
    """Serve one control request -- a link op called by name on the
    worker; returns False once the worker was closed (``close``)."""
    op = message.get("op")
    reply: dict = {"kind": "reply", "id": message.get("id"), "ok": True}
    try:
        if op not in REMOTE_OPS:
            raise ExecutorError(f"unknown control op {op!r}")
        reply["value"] = getattr(worker, str(op))(*message.get("args", ()))
    except Exception as exc:
        reply.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    conn.send(reply)
    return op != "close"


def _serve(worker: ShardWorker, conn: Connection) -> None:
    """The worker loop: serve control requests, heartbeat between them.

    The worker syncs only when a request asks it to -- exactly like an
    in-process worker -- so the coordinator alone decides when shards
    advance, whichever link reaches them."""
    last_beat = time.monotonic()
    while True:
        if conn.poll(HEARTBEAT_INTERVAL):
            if not _handle(worker, conn, conn.recv()):
                return
        if time.monotonic() - last_beat >= HEARTBEAT_INTERVAL:
            conn.send({"kind": "heartbeat", "status": worker.status()})
            last_beat = time.monotonic()


def _worker_main(
    directory: str,
    spec: ShardSpec,
    plan: ShardPlan,
    group: str,
    conn: Connection,
    chaos: Optional[ChaosPlan],
    checkpoint_on_attach: bool,
) -> None:
    """Entry point of one shard worker process (spawn-safe: everything
    it needs arrives as arguments; state rebuilds from the feed
    directory)."""
    feed = ChangeFeed(directory)
    try:
        worker = _attach_worker(feed, spec, plan, group, chaos, checkpoint_on_attach)
        conn.send({"kind": "heartbeat", "status": worker.status()})
        _serve(worker, conn)
    except (EOFError, BrokenPipeError):
        return  # the parent went away; nothing to report to
    except Exception as exc:
        with contextlib.suppress(OSError, ValueError):
            conn.send(
                {"kind": "fatal", "error": f"{type(exc).__name__}: {exc}"}
            )
        raise SystemExit(1) from exc
    finally:
        feed.close()


# --------------------------------------------------------------- parent side


class ProcessLink:
    """A :class:`~repro.conflicts.shard.WorkerLink` to a shard worker
    running in its own OS process.

    Construction starts the process.  Every op is one control request
    over the pipe, waiting for its reply and recording the heartbeats
    that arrive in between; it raises
    :class:`~repro.errors.ExecutorError` when the worker is dead, dies
    mid-request, reports a failure, or misses :data:`REQUEST_TIMEOUT`.
    """

    def __init__(
        self,
        directory: Path,
        spec: ShardSpec,
        plan: ShardPlan,
        group: str,
        chaos: Optional[ChaosPlan] = None,
        checkpoint_on_attach: bool = False,
        respawns: int = 0,
    ) -> None:
        self.index = spec.index
        self.respawns = respawns
        self._next_request = 0
        parent_conn, child_conn = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_worker_main,
            args=(
                str(directory),
                spec,
                plan,
                group,
                child_conn,
                chaos,
                checkpoint_on_attach,
            ),
            name=group,
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.last_beat = time.monotonic()
        #: The newest status the worker reported (a placeholder until
        #: its first heartbeat): what a dead worker's row is built from.
        self.last_status = ShardStatus(
            index=spec.index,
            group=group,
            alive=False,
            ready=False,
            lag=0,
            edges=0,
            owned=spec.owned,
            subscribed=spec.subscribed,
            committed={},
            restore_mode="replay",
            applied_records={},
        )

    # --------------------------------------------------------------- ops

    def status(self) -> ShardStatus:
        """The worker's live status; once it is dead, its last reported
        status marked ``alive=False`` (the coordinator fills in lag and
        offsets from the group's registration)."""
        try:
            row: ShardStatus = self._request("status")
        except ExecutorError:
            row = replace(
                self.last_status,
                alive=False,
                pid=self.process.pid,
                exitcode=self.process.exitcode,
            )
        return replace(row, respawns=self.respawns)

    def sync(self, limit: Optional[int] = None) -> ReplicaSync:
        return self._request("sync", limit)

    def drain(self) -> int:
        return self._request("drain")

    def checkpoint(self) -> None:
        self._request("checkpoint")

    def export_topic(self, topic: str) -> int:
        return self._request("export_topic", topic)

    def reshape(self, spec: ShardSpec, plan: ShardPlan) -> ShardReshape:
        return self._request("reshape", spec, plan)

    def shard_graph(self) -> Optional[ConflictHypergraph]:
        return self._request("shard_graph")

    def close(self) -> None:
        """Stop the worker (it checkpoints and detaches); one that does
        not stop within the request timeout is killed."""
        if self.process.is_alive():
            try:
                self._request("close")
            except ExecutorError:
                self.process.kill()
        self.process.join(5)
        self.conn.close()

    def kill(self) -> None:
        """SIGKILL the worker process; its group registration survives."""
        self.process.kill()
        self.process.join(5)
        self.conn.close()

    def failure(self) -> Optional[str]:
        """Why the worker needs a respawn -- ``"exit:<code>"`` when its
        process or pipe is gone, ``"heartbeat-timeout"`` when it has
        been silent for :data:`HEARTBEAT_TIMEOUT` -- or None while it
        is healthy.  Drains pending heartbeats without blocking."""
        usable = self._drain_heartbeats()
        alive = usable and self.process.is_alive()
        if alive and time.monotonic() - self.last_beat <= HEARTBEAT_TIMEOUT:
            return None
        return "heartbeat-timeout" if alive else f"exit:{self.process.exitcode}"

    # ---------------------------------------------------------- plumbing

    def _heartbeat(self, message: dict) -> None:
        self.last_beat = time.monotonic()
        self.last_status = message["status"]

    def _request(self, op: str, *args: object) -> Any:
        """Send one control request and wait for its reply, recording
        heartbeats (and dropping stale replies of timed-out requests)
        on the way."""
        ident = self._next_request
        self._next_request += 1
        try:
            self.conn.send({"id": ident, "op": op, "args": args})
        except (BrokenPipeError, OSError) as exc:
            raise ExecutorError(
                f"worker {self.index} is dead (cannot send {op!r})"
            ) from exc
        deadline = time.monotonic() + REQUEST_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ExecutorError(f"worker {self.index} timed out on {op!r}")
            try:
                ready = self.conn.poll(min(remaining, 0.1))
                message = self.conn.recv() if ready else None
            except (EOFError, OSError) as exc:
                raise ExecutorError(
                    f"worker {self.index} died during {op!r}"
                    f" (exit {self.process.exitcode})"
                ) from exc
            if message is None:
                if not self.process.is_alive():
                    raise ExecutorError(
                        f"worker {self.index} died during {op!r}"
                        f" (exit {self.process.exitcode})"
                    )
                continue
            kind = message.get("kind")
            if kind == "heartbeat":
                self._heartbeat(message)
            elif kind == "fatal":
                raise ExecutorError(
                    f"worker {self.index} failed: {message.get('error')}"
                )
            elif kind == "reply" and message.get("id") == ident:
                if not message.get("ok"):
                    raise ExecutorError(
                        f"worker {self.index} {op!r} failed:"
                        f" {message.get('error')}"
                    )
                return message.get("value")
            # Anything else is a stale reply of a timed-out request.

    def _drain_heartbeats(self) -> bool:
        """Non-blocking heartbeat drain.  Returns False when the pipe
        hit EOF -- the worker is gone even if the kernel has not reaped
        the process yet."""
        while True:
            try:
                if not self.conn.poll(0):
                    return True
                message = self.conn.recv()
            except (EOFError, OSError):
                return False
            if message.get("kind") == "heartbeat":
                self._heartbeat(message)


class ProcessShardExecutor(ShardCoordinator):
    """A :class:`~repro.conflicts.shard.ShardCoordinator` whose workers
    each run in their own OS process behind a :class:`ProcessLink`,
    with supervision and a persisted ownership grant.

    Args:
        directory: the durable feed directory.  The executor opens (and
            closes) its own :class:`~repro.engine.feed.ChangeFeed` on
            it; every worker process attaches its own reader by path.
        constraints: the full constraint set.
        workers / assignment: initial plan inputs (see
            :func:`~repro.conflicts.shard.plan_assignment`).  Both are
            ignored when ``shards.json`` already exists in the
            directory -- the persisted ownership (and its worker count)
            is authoritative on re-attach.
        chaos: ``{worker index: ChaosPlan}`` armed at first spawn only
            (respawns come up clean, so a kill schedule terminates).

    The constructor blocks until every worker answered its first
    status request -- i.e. finished bootstrapping -- then sweeps any
    transfer packets a crashed previous run left behind.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        constraints: Iterable[object],
        workers: int = 2,
        assignment: Optional[Dict[str, int]] = None,
        chaos: Optional[Dict[int, ChaosPlan]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.chaos = dict(chaos or {})
        ownership = load_ownership(self.directory)
        self.epoch = 0
        if ownership is not None:
            workers, assignment = ownership.workers, ownership.owner
            self.epoch = ownership.epoch
        feed = ChangeFeed(self.directory)
        try:
            super().__init__(feed, constraints, workers, assignment=assignment)
            if ownership is None or ownership.owner != self.plan.topic_owner:
                self._store_ownership(self.plan)
            self.status()  # block until every worker bootstrapped
            self.sweep_transfers()
        except BaseException:
            self.close()
            raise

    def _attach(self, index: int, respawn: bool = False) -> WorkerLink:
        """Spawn worker ``index`` behind a :class:`ProcessLink`.  A
        respawn comes up without its chaos plan and checkpoints on
        attach, so :meth:`sweep_transfers` can clear the packets of a
        handoff that crashed after adoption."""
        return ProcessLink(
            self.directory,
            self.plan.shards[index],
            self.plan,
            f"{self.group_prefix}-{index}",
            chaos=None if respawn else self.chaos.get(index),
            checkpoint_on_attach=respawn,
            respawns=self._link(index).respawns + 1 if respawn else 0,
        )

    def _link(self, index: int) -> ProcessLink:
        link = self.workers[index]
        assert isinstance(link, ProcessLink)
        return link

    def _grant(self, plan: ShardPlan) -> None:
        """Persist the new assignment to ``shards.json`` -- the
        handoff's commit point -- then swap the plan."""
        self.epoch += 1
        self._store_ownership(plan)
        super()._grant(plan)

    def _store_ownership(self, plan: ShardPlan) -> None:
        store_ownership(
            self.directory,
            Ownership(
                workers=len(plan.shards),
                owner=dict(plan.topic_owner),
                epoch=self.epoch,
            ),
        )

    def close(self) -> None:
        """Stop every worker (each checkpoints and detaches; one that
        refuses within the request timeout is killed), then close the
        executor's own feed."""
        super().close()
        self.feed.close()

    # ---------------------------------------------------------- supervisor

    def kill(self, index: int) -> None:
        """SIGKILL one worker process (the chaos suite's parent-side
        kill switch).  The worker's group registration survives, so it
        shows up lagging in :meth:`status` until :meth:`supervise`
        respawns it."""
        self.workers[index].kill()

    def supervise(self) -> list[WorkerEvent]:
        """One supervision pass: drain heartbeats, then :meth:`restart`
        workers that died or went silent (a hung one is SIGKILLed
        first) from their last shard checkpoint, and reconcile survivors
        whose subscriptions drifted from the plan (a handoff that died
        mid-protocol).  Returns the actions taken."""
        events: list[WorkerEvent] = []
        for index in range(len(self.workers)):
            reason = self._link(index).failure()
            if reason is None:
                continue
            self.restart(index)
            events.append(
                WorkerEvent(
                    index=index,
                    reason=reason,
                    respawns=self._link(index).respawns,
                )
            )
        if events:
            self.reconcile()
            self.sweep_transfers()
        return events

    def reconcile(self) -> list[int]:
        """Reshape live workers whose subscription drifted from the
        plan (the survivors of a handoff that died mid-protocol).
        Returns the reshaped worker indexes."""
        reshaped: list[int] = []
        for index, row in enumerate(self.status()):
            spec = self.plan.shards[index]
            if row.alive and set(row.subscribed) != set(spec.subscribed):
                self.workers[index].reshape(spec, self.plan)
                reshaped.append(index)
        return reshaped

    def sweep_transfers(self) -> list[str]:
        """Clear transfer packets whose adopting owner already
        checkpointed at or past the handoff cut -- the leftovers of a
        handoff that crashed between ``adopted`` and ``cleared``.
        Packets still covering an un-adopted topic stay."""
        cleared: list[str] = []
        points = self.feed.recovery_points()
        for name, cut in sorted(self.feed.transfers().items()):
            owner = self.plan.topic_owner.get(name)
            if owner is None:
                continue
            point = points.get(f"{self.group_prefix}-{owner}")
            if (
                point is not None
                and point.snapshot is not None
                and point.snapshot.get(name, -1) >= cut
            ):
                self.feed.clear_transfer(name)
                cleared.append(name)
        return cleared
