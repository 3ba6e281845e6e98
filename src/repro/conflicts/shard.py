"""Sharded per-topic conflict-hypergraph maintenance.

The durable feed partitions the change stream per relation (one topic
each); replicas proved the conflict hypergraph can be rebuilt *away*
from the writer.  This module combines the two into the codebase's
first horizontal scale-out primitive: the hypergraph is maintained by a
set of **shard workers**, each a consumer group over a *subset* of the
topics, and the shards provably add up to the monolith.

The decomposition leans on a locality fact the CQA literature leans on
too (e.g. Koutris & Wijsen's first-order / logspace results for
primary-key CQA): most conflicts are confined to one relation, and a
denial constraint can only ever produce an edge among the relations its
body mentions.  So:

* :func:`plan_assignment` computes a **constraint-aware topic
  assignment**: relations co-referenced by a denial / FK constraint are
  placed on the same worker (the co-reference graph's components are
  the atomic placement units, balanced greedily across workers).  When
  an explicit assignment *does* split a constraint's relations across
  workers, the constraint is flagged **cross-shard** and assigned to a
  designated *owner* -- the worker owning its anchor relation (an FK's
  referencing side; a denial's first atom) -- which additionally
  subscribes to the foreign topics, so the cross-relation residue is
  routed explicitly instead of assumed away.

* :class:`ShardWorker` is a
  :class:`~repro.conflicts.replica.ReplicaHypergraph` over its topic
  subset: it maintains a partial database (rows only for subscribed
  relations) and a partial hypergraph via the existing
  :class:`~repro.conflicts.incremental.IncrementalDetector` machinery,
  and checkpoints its shard through :mod:`repro.engine.snapshot`
  exactly the way the writer checkpoints the whole database -- its
  retention floor pins only its subscribed topics.

* :func:`merge_graphs` unions the shard graphs back into one view:
  duplicate edges (the same violation derived by constraints on two
  workers) are deduplicated by edge key with the label resolved by
  global constraint order, and subsumption is re-checked -- only
  across shard boundaries, since each shard graph is already minimal
  among its own edges.

* :class:`ShardCoordinator` is the one shard state machine: it owns
  the plan, drains and checkpoints the workers, drives the five-step
  topic handoff and the rebalance trigger, reports dead workers as
  lagging, assembles a full database from the workers' owned slices,
  and hands :class:`~repro.core.hippo.HippoEngine` the merged view so
  consistent query answering runs off the shards transparently.  It
  reaches each worker through a :class:`WorkerLink`: a
  :class:`ShardWorker` is its own in-process (loopback) link, and
  :mod:`repro.conflicts.executor` supplies the link to a worker in its
  own OS process.

The maintained invariant -- pinned by
``tests/property/test_shard_equivalence.py`` -- is that at every
aligned committed cut the merged view equals the monolithic replica's
graph (and therefore full re-detection), including after killing a
worker and restarting it from its shard checkpoint, with every
cross-shard edge produced exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Protocol,
    Sequence,
)

from repro.conflicts.hypergraph import ConflictHypergraph, Vertex
from repro.conflicts.replica import ReplicaHypergraph, ReplicaSync
from repro.constraints.denial import to_denial_constraints
from repro.constraints.foreign_key import (
    ForeignKeyConstraint,
    topological_fk_order,
)
from repro.engine.database import Database
from repro.engine.feed import SCHEMA_TOPIC, ChangeFeed
from repro.engine.snapshot import restore_database, snapshot_database
from repro.errors import CatalogError, ConstraintError, ExecutorError, FeedError

if TYPE_CHECKING:
    from repro.core.hippo import HippoEngine


def constraint_relations(constraint: object) -> tuple[str, ...]:
    """The (lower-cased) relations a constraint's evaluation touches.

    The first entry is the constraint's *anchor*: the relation whose
    owning worker evaluates the constraint when its relations span
    shards (an FK's referencing side -- where the dangling singletons
    live; a denial's first atom).
    """
    if isinstance(constraint, ForeignKeyConstraint):
        return (constraint.referencing.lower(), constraint.referenced.lower())
    ordered: dict[str, None] = {}
    for denial in to_denial_constraints([constraint]):
        for atom in denial.atoms:
            ordered.setdefault(atom.relation.lower())
    return tuple(ordered)


def global_constraint_names(constraints: Sequence[object]) -> tuple[str, ...]:
    """Constraint labels in the monolith's derivation order.

    Full detection derives denial violations in constraint-list order
    and FK danglings after all of them (in topological order), and the
    first deriving constraint becomes an edge's stored label.  The
    shard merge resolves duplicate edges by this order, so merged
    labels equal monolithic ones.
    """
    fks = [c for c in constraints if isinstance(c, ForeignKeyConstraint)]
    denials = to_denial_constraints(
        c for c in constraints if not isinstance(c, ForeignKeyConstraint)
    )
    return tuple(d.name for d in denials) + tuple(
        str(fk) for fk in topological_fk_order(fks)
    )


@dataclass(frozen=True)
class ShardSpec:
    """One worker's slice of the plan.

    Attributes:
        index: worker number (0-based).
        owned: topics this worker owns (rows it is authoritative for).
        foreign: topics of *other* workers it additionally subscribes
            to, because it owns a cross-shard constraint that reads
            them.
        subscribed: the full subscription handed to the consumer group
            (owned + foreign + the ``_schema`` topic).
        constraints: the constraints this worker evaluates (original
            objects, original relative order).
        cross_shard: display labels of its cross-shard constraints.
    """

    index: int
    owned: tuple[str, ...]
    foreign: tuple[str, ...]
    subscribed: tuple[str, ...]
    constraints: tuple[object, ...]
    cross_shard: tuple[str, ...]


@dataclass
class ShardPlan:
    """A complete constraint-aware topic assignment.

    Attributes:
        shards: one :class:`ShardSpec` per worker.
        topic_owner: relation (topic) name -> owning worker index.
        constraint_names: global label order (see
            :func:`global_constraint_names`).
        referenced: all FK-referenced relations, passed to every worker
            so the restricted-class check stays global.
    """

    shards: tuple[ShardSpec, ...]
    topic_owner: Dict[str, int]
    constraint_names: tuple[str, ...]
    referenced: frozenset[str]

    @property
    def cross_shard(self) -> tuple[str, ...]:
        """Labels of every cross-shard constraint, worker order."""
        labels: list[str] = []
        for spec in self.shards:
            labels.extend(spec.cross_shard)
        return tuple(labels)


@dataclass(frozen=True)
class TopicResume:
    """How one :meth:`ShardWorker.reshape` acquired one new topic.

    Attributes:
        topic: the adopted topic.
        cut: the offset the worker resumed the topic from (the handoff
            cut when a transfer packet existed, else 0).
        end: the topic's feed end at adoption time -- ``end - cut`` is
            the retained suffix the worker will replay through ordinary
            syncs (the "no full re-bootstrap" bound).
        mode: ``"packet"`` (restored a transfer packet) or ``"replay"``
            (no packet pending; the topic replays from offset 0).
        baseline: the worker's ``applied_records`` count for the topic
            at adoption -- subtract it later to measure exactly how
            many records the resume replayed.
    """

    topic: str
    cut: int
    end: int
    mode: str
    baseline: int


@dataclass(frozen=True)
class ShardReshape:
    """What one :meth:`ShardWorker.reshape` transition did."""

    added: tuple[TopicResume, ...]
    dropped: tuple[str, ...]


@dataclass(frozen=True)
class ShardStatus:
    """One worker's row in :meth:`ShardCoordinator.status`.

    A dead worker -- in-process, its consumer abandoned or closed; as a
    process, exited or unresponsive -- is reported with ``alive=False``
    and its lag and committed offsets taken from the group's
    *registered* state: lagging, never silently absent.  Its other
    fields are the last values the worker reported.  ``pid`` and
    ``exitcode`` are None for in-process workers, and ``respawns``
    counts the supervisor's respawns of a process worker.
    """

    index: int
    group: str
    alive: bool
    ready: bool
    lag: int
    edges: int
    owned: tuple[str, ...]
    subscribed: tuple[str, ...]
    committed: dict[str, int]
    restore_mode: str
    applied_records: dict[str, int]
    respawns: int = 0
    pid: Optional[int] = None
    exitcode: Optional[int] = None


@dataclass(frozen=True)
class HandoffReport:
    """What one :meth:`ShardCoordinator.handoff` did: the new plan plus
    each reshaped worker's :class:`ShardReshape` (the adopting entries
    carry the resume cuts that show no full re-bootstrap happened)."""

    plan: ShardPlan
    reshapes: Dict[int, ShardReshape]


@dataclass(frozen=True)
class RebalanceMove:
    """One ownership move proposed by :func:`choose_move`."""

    topic: str
    source: int
    target: int
    skew_before: int
    skew_after: int


def choose_move(
    plan: ShardPlan,
    committed_by_worker: Sequence[Mapping[str, int]],
    ends: Mapping[str, int],
    threshold: int = 0,
    edges: Optional[Sequence[int]] = None,
) -> Optional[RebalanceMove]:
    """Deterministically pick one topic move that reduces load skew.

    A worker's load is its pending records across *owned* topics (feed
    end minus committed offset), plus its hypergraph edge count when
    ``edges`` is given -- the two skew signals the rebalance trigger
    watches.  When the heaviest and lightest workers differ by more
    than ``threshold``, the candidate moves are the heavy worker's
    owned topics; the move minimizing the resulting skew wins (ties
    break on topic name), and None is returned when the skew is within
    threshold or no single move strictly improves it.  Pure and
    deterministic, so the coordinator's rebalance trigger (over either
    worker link) and the CLI's dry-run advisor agree on the same move.
    """
    workers = len(plan.shards)
    if workers < 2:
        return None
    lags: list[dict[str, int]] = []
    for spec in plan.shards:
        committed = (
            committed_by_worker[spec.index]
            if spec.index < len(committed_by_worker)
            else {}
        )
        lags.append(
            {
                name: max(int(ends.get(name, 0)) - int(committed.get(name, 0)), 0)
                for name in spec.owned
            }
        )
    loads = [
        (edges[index] if edges is not None and index < len(edges) else 0)
        + sum(lags[index].values())
        for index in range(workers)
    ]
    heavy = max(range(workers), key=lambda i: (loads[i], -i))
    light = min(range(workers), key=lambda i: (loads[i], i))
    skew = loads[heavy] - loads[light]
    if heavy == light or skew <= threshold:
        return None
    best: Optional[RebalanceMove] = None
    for name in sorted(lags[heavy]):
        weight = lags[heavy][name]
        if weight <= 0:
            continue  # moving a drained topic moves no load
        moved = list(loads)
        moved[heavy] -= weight
        moved[light] += weight
        new_skew = max(moved) - min(moved)
        if new_skew < skew and (best is None or new_skew < best.skew_after):
            best = RebalanceMove(
                topic=name,
                source=heavy,
                target=light,
                skew_before=skew,
                skew_after=new_skew,
            )
    return best


def plan_assignment(
    constraints: Iterable[object],
    workers: int = 2,
    relations: Iterable[str] = (),
    assignment: Optional[Dict[str, int]] = None,
) -> ShardPlan:
    """Compute a constraint-aware topic assignment over ``workers``.

    Relations co-referenced by a constraint are kept on one worker: the
    co-reference graph's connected components are placed whole, largest
    first, each onto the currently least-loaded worker.  ``relations``
    adds topics no constraint mentions (they still need an owner);
    ``assignment`` pins relations to workers explicitly -- the operator
    override, and the way tests force a constraint across shards.  A
    pinned relation drags the unpinned remainder of its component to
    its worker; a constraint whose relations still land on different
    workers is flagged cross-shard and owned by its anchor's worker,
    which subscribes to the foreign topics.

    Raises:
        ConstraintError: on ``workers < 1``, a pinned worker index out
            of range, or a cyclic FK reference graph (validated
            globally here -- no single worker may see all of a
            cross-shard cycle).
    """
    if workers < 1:
        raise ConstraintError("a shard plan needs at least one worker")
    constraint_list = list(constraints)
    fks = [c for c in constraint_list if isinstance(c, ForeignKeyConstraint)]
    topological_fk_order(fks)  # global acyclicity check, up front
    per_constraint = [constraint_relations(c) for c in constraint_list]

    known: dict[str, None] = {}
    for rels in per_constraint:
        for relation in rels:
            known.setdefault(relation)
    for relation in relations:
        known.setdefault(str(relation).lower())
    pinned: dict[str, int] = {}
    for relation, worker in (assignment or {}).items():
        if not 0 <= worker < workers:
            raise ConstraintError(
                f"assignment pins {relation!r} to worker {worker},"
                f" but the plan has {workers} workers"
            )
        key = str(relation).lower()
        known.setdefault(key)
        pinned[key] = worker

    # Union-find over co-referenced relations: components place whole.
    parent = {relation: relation for relation in known}

    def find(relation: str) -> str:
        root = relation
        while parent[root] != root:
            root = parent[root]
        parent[relation] = root
        return root

    for rels in per_constraint:
        for other in rels[1:]:
            left, right = find(rels[0]), find(other)
            if left != right:
                parent[left] = right
    components: dict[str, list[str]] = {}
    for relation in sorted(known):
        components.setdefault(find(relation), []).append(relation)

    owner: dict[str, int] = dict(pinned)
    loads = [0] * workers
    for worker in pinned.values():
        loads[worker] += 1
    for component in sorted(
        components.values(), key=lambda c: (-len(c), c[0])
    ):
        unassigned = [r for r in component if r not in owner]
        if not unassigned:
            continue
        pinned_in = [r for r in component if r in owner]
        if pinned_in:
            # A pinned member anchors the component's remainder.
            worker = owner[pinned_in[0]]
        else:
            worker = min(range(workers), key=lambda i: (loads[i], i))
        for relation in unassigned:
            owner[relation] = worker
            loads[worker] += 1

    shard_constraints: list[list[object]] = [[] for _ in range(workers)]
    shard_cross: list[list[str]] = [[] for _ in range(workers)]
    shard_foreign: list[dict[str, None]] = [{} for _ in range(workers)]
    for constraint, rels in zip(constraint_list, per_constraint):
        worker = owner[rels[0]]
        shard_constraints[worker].append(constraint)
        if len({owner[r] for r in rels}) > 1:
            shard_cross[worker].append(str(constraint))
            for relation in rels:
                if owner[relation] != worker:
                    shard_foreign[worker].setdefault(relation)
    owned: list[list[str]] = [[] for _ in range(workers)]
    for relation in sorted(owner):
        owned[owner[relation]].append(relation)
    shards = tuple(
        ShardSpec(
            index=index,
            owned=tuple(owned[index]),
            foreign=tuple(shard_foreign[index]),
            subscribed=tuple(
                dict.fromkeys(
                    [*owned[index], *shard_foreign[index], SCHEMA_TOPIC]
                )
            ),
            constraints=tuple(shard_constraints[index]),
            cross_shard=tuple(shard_cross[index]),
        )
        for index in range(workers)
    )
    return ShardPlan(
        shards=shards,
        topic_owner=owner,
        constraint_names=global_constraint_names(constraint_list),
        referenced=frozenset(fk.referenced.lower() for fk in fks),
    )


def merge_graphs(
    graphs: Iterable[ConflictHypergraph],
    constraint_names: Sequence[str] = (),
) -> ConflictHypergraph:
    """Union shard graphs into one minimal hypergraph.

    Duplicate edges (the same violation derived by constraints on two
    different workers) are deduplicated by edge key; the surviving
    label is the supporting constraint earliest in
    ``constraint_names`` -- the same tie-break the monolith's first-
    derivation-wins rule produces.  Subsumption is then re-checked
    smallest-edge-first; since each input graph is already minimal
    among its own edges, every subsuming pair this pass finds is
    necessarily cross-shard.
    """
    rank = {name: index for index, name in enumerate(constraint_names)}
    worst = len(rank)
    best: dict[frozenset[Vertex], str] = {}
    for graph in graphs:
        for edge, label in zip(graph.edges, graph.edge_labels):
            current = best.get(edge)
            if current is None or rank.get(label, worst) < rank.get(
                current, worst
            ):
                best[edge] = label
    merged = ConflictHypergraph()
    for edge in sorted(best, key=len):
        if not merged.subset_edges(edge):
            merged.add_edge(edge, best[edge])
    return merged


class WorkerLink(Protocol):
    """How :class:`ShardCoordinator` reaches one shard worker.

    There are two links.  A :class:`ShardWorker` is its own *loopback*
    link: every op is a direct call in this process.
    :class:`~repro.conflicts.executor.ProcessLink` sends the same ops as
    control messages to a worker in its own OS process, so each op there
    may also raise :class:`~repro.errors.ExecutorError` when the worker
    died or hung.
    """

    def status(self) -> ShardStatus:
        """The worker's status row (see :class:`ShardStatus`); a dead
        worker answers with ``alive=False`` instead of raising."""

    def sync(self, limit: Optional[int] = None) -> ReplicaSync:
        """One bounded sync (see :meth:`ReplicaHypergraph.sync`)."""

    def drain(self) -> int:
        """Sync until the lag is zero; returns the records consumed."""

    def checkpoint(self) -> None:
        """Checkpoint the shard at its committed cut."""

    def export_topic(self, topic: str) -> int:
        """Store a transfer packet for ``topic`` at the committed cut
        (see :meth:`ShardWorker.export_topic`); returns the cut."""

    def reshape(self, spec: ShardSpec, plan: ShardPlan) -> ShardReshape:
        """Move to a new plan slice (see :meth:`ShardWorker.reshape`)."""

    def shard_graph(self) -> Optional[ConflictHypergraph]:
        """The shard's graph, or None while its detection is deferred."""

    def close(self) -> None:
        """Checkpoint (durable feeds) and detach; idempotent."""

    def kill(self) -> None:
        """Crash the worker: its group registration survives, so it
        reports lagging until it is re-attached."""


class ShardWorker(ReplicaHypergraph):
    """One consumer group maintaining one shard of the hypergraph.

    A :class:`~repro.conflicts.replica.ReplicaHypergraph` over the
    spec's topic subset and constraint slice: the worker's database
    carries rows only for its subscribed relations, its graph only the
    edges its constraints derive, and its checkpoints
    (:meth:`~repro.conflicts.replica.ReplicaHypergraph.checkpoint`)
    are partial snapshots bound to the shard's committed cut -- the
    worker restarts from them exactly like the writer restarts from
    its own checkpoint, and its retention floor pins only its topics.
    """

    def __init__(
        self,
        feed: ChangeFeed,
        spec: ShardSpec,
        plan: ShardPlan,
        group: Optional[str] = None,
        snapshots: bool = True,
        bootstrap: str = "replay",
    ) -> None:
        self.spec = spec
        super().__init__(
            feed,
            spec.constraints,
            group=group if group is not None else f"shard-{spec.index}",
            snapshots=snapshots,
            topics=spec.subscribed,
            extra_referenced=plan.referenced,
            bootstrap=bootstrap,
        )

    # ------------------------------------------------------------- handoff

    def export_topic(self, topic: str) -> int:
        """Store a transfer packet for ``topic`` at this worker's
        committed cut: the *releasing* half of the handoff protocol.

        Call at a sync boundary (between :meth:`sync` calls), where the
        worker's database reflects its committed offsets exactly -- the
        packet it stores then *is* the topic's state at the cut, and
        the adopting worker resumes from it plus the retained suffix.
        The packet itself pins the topic's retention at the cut, so the
        suffix stays readable across the whole handoff window, whatever
        order the two workers persist their resubscriptions in.  This
        worker keeps serving the topic until :meth:`reshape` drops it.
        Returns the cut offset.

        Raises:
            FeedError: when this worker does not subscribe the topic.
        """
        name = str(topic).lower()
        if self.topics is not None and name not in self.topics:
            raise FeedError(
                f"worker group {self.group!r} does not subscribe {name!r}"
            )
        cut = self._consumer.committed.get(name, 0)
        self.feed.store_transfer(
            name, cut, snapshot_database(self.db, tables=[name])
        )
        self._mark("release", name)
        return cut

    def reshape(self, spec: ShardSpec, plan: ShardPlan) -> ShardReshape:
        """Transition this worker to a new plan slice, in place.

        The *adopting* half of the handoff protocol.  Every newly
        subscribed topic resumes from its pending transfer packet --
        the releasing worker's state at the handoff cut, restored
        directly into the partial database -- so only the retained
        suffix past the cut replays through ordinary syncs: no full
        re-bootstrap.  (With no packet pending, a new topic replays
        its retained history from offset 0.)  Topics dropped from the
        subscription release their rows and their retention hold.  The
        worker's constraint slice and detector are rebuilt for the new
        spec, and a checkpoint binds the result (durable feeds), after
        which the packet and the releasing worker's floor no longer
        pin retention.

        Raises:
            FeedError: when a new topic has neither a transfer packet
                nor its history retained from offset 0 -- adopting it
                would silently lose records.
        """
        new_topics = frozenset(
            {str(t).lower() for t in spec.subscribed} | {SCHEMA_TOPIC}
        )
        old_topics = (
            self.topics if self.topics is not None else new_topics
        )
        added = sorted(new_topics - old_topics)
        dropped = sorted(old_topics - new_topics)
        self.feed.refresh()
        starts = {t.name: t.start for t in self.feed.topics()}
        ends = self.feed.end_offsets()
        positions: dict[str, int] = {}
        resumes: list[TopicResume] = []
        for name in added:
            packet = self.feed.load_transfer(name)
            if packet is not None:
                cut, payload = packet
                restore_database(self.db, payload, tables=[name], merge=True)
                mode = "packet"
            elif starts.get(name, 0) > 0:
                raise FeedError(
                    f"cannot adopt topic {name!r}: no transfer packet is"
                    f" pending and its history below offset"
                    f" {starts[name]} was reclaimed"
                )
            else:
                cut, mode = 0, "replay"
            positions[name] = cut
            resumes.append(
                TopicResume(
                    topic=name,
                    cut=cut,
                    end=ends.get(name, 0),
                    mode=mode,
                    baseline=self.applied_records.get(name, 0),
                )
            )
        with self.db.changes.feed.suspended():
            for name in dropped:
                self._release_rows(name)
        # The resubscription is the worker's durable half of the grant:
        # from here its registration pins the new topics at their cuts
        # and no longer pins the dropped ones.
        self._consumer.resubscribe(new_topics, positions)
        self.topics = new_topics
        self.spec = spec
        self.constraints = list(spec.constraints)
        self.extra_referenced = plan.referenced
        self._mark("adopt", added[0] if added else None)
        # The constraint slice changed: rebuild detection over the new
        # partial database (cheap -- in-memory, no feed replay).
        self._detector = None
        self._needs_full = True
        try:
            self._full_detect()
        except CatalogError:
            pass  # stays deferred until the missing DDL replicates
        if self._snapshots:
            self.checkpoint()
        return ShardReshape(added=tuple(resumes), dropped=tuple(dropped))

    def _release_rows(self, topic: str) -> None:
        """Drop every row of a released topic's table (the schema stays
        -- it replicates via ``_schema`` for everyone)."""
        if not self.db.catalog.has_table(topic):
            return
        table = self.db.table(topic)
        for tid in list(table.tids()):
            table.delete(tid)
    # ------------------------------------------------------- loopback link

    def status(self) -> ShardStatus:
        """This worker's status row.  A crashed worker (consumer
        abandoned or closed) reports ``alive=False``, no lag and no
        offsets: :meth:`ShardCoordinator.status` reads both from the
        group's registration instead."""
        alive = not self._consumer.closed
        return ShardStatus(
            index=self.spec.index,
            group=self.group,
            alive=alive,
            ready=self.ready,
            lag=self.lag if alive else 0,
            edges=len(self.graph.edges) if self.ready else 0,
            owned=self.spec.owned,
            subscribed=tuple(sorted(self.topics or ())),
            committed=self.committed if alive else {},
            restore_mode=self.restore_mode,
            applied_records=dict(self.applied_records),
        )

    def drain(self) -> int:
        """Sync until the lag is zero; returns the records consumed."""
        total = 0
        while self.lag:
            total += self.sync().records
        return total

    def shard_graph(self) -> Optional[ConflictHypergraph]:
        """This shard's graph, or None while detection is deferred
        (constraint tables not replicated yet)."""
        return self.graph if self.ready else None

    def kill(self) -> None:
        """Crash this worker in place.  On a durable feed the consumer
        is *abandoned*, not closed: its group registration -- committed
        offsets, subscription, retention floor -- survives exactly as if
        the process had been killed.  (In-memory feeds have no
        registration to resume from; there the consumer deregisters.)"""
        if self.feed.durable:
            self._consumer.abandon()
        else:
            self._consumer.close()


class ShardCoordinator:
    """Plans the assignment, drives the workers, merges the shards.

    The one home of the shard state machine: plan seeding, the
    five-step :meth:`handoff`, :meth:`rebalance`, :meth:`drain`,
    :meth:`checkpoint`, dead-worker :meth:`status` and the merged
    :attr:`graph`.  Each worker is reached through a
    :class:`WorkerLink`.  Here every link is an in-process
    :class:`ShardWorker` (the loopback);
    :class:`~repro.conflicts.executor.ProcessShardExecutor` overrides
    :meth:`_attach` to run each worker in its own OS process instead.

    Args:
        feed: the feed to shard over -- typically a *reader*
            :class:`~repro.engine.feed.ChangeFeed` instance on the
            writer's directory (the coordinator never closes it; the
            caller owns it).  All workers attach to this instance under
            their own consumer groups.
        constraints: the full constraint set (split across workers by
            the plan).
        workers: number of shard workers.
        relations: extra topics to assign that no constraint mentions
            and the feed has not seen yet (lets the coordinator attach
            before the writer creates its tables).
        assignment: explicit relation -> worker pinning (see
            :func:`plan_assignment`).
        group_prefix: consumer groups are named ``{prefix}-{index}``.
        snapshots: whether workers checkpoint their shards (forwarded
            to every :class:`ShardWorker`).
    """

    def __init__(
        self,
        feed: ChangeFeed,
        constraints: Iterable[object],
        workers: int = 2,
        relations: Iterable[str] = (),
        assignment: Optional[Dict[str, int]] = None,
        group_prefix: str = "shard",
        snapshots: bool = True,
    ) -> None:
        self.feed = feed
        self.constraints = list(constraints)
        self.group_prefix = group_prefix
        self._snapshots = snapshots
        self.workers: list[WorkerLink] = []
        feed.refresh()
        discovered = [t.name for t in feed.topics() if t.name != SCHEMA_TOPIC]
        self.plan = plan_assignment(
            self.constraints,
            workers,
            relations=[*discovered, *relations],
            assignment=assignment,
        )
        for spec in self.plan.shards:
            self.workers.append(self._attach(spec.index))

    def _attach(self, index: int, respawn: bool = False) -> WorkerLink:
        """The link to worker ``index`` of the current plan: here an
        in-process :class:`ShardWorker`, which resumes from its group's
        durable state.  ``respawn`` marks a re-attach by
        :meth:`restart`; the process executor acts on it."""
        return ShardWorker(
            self.feed,
            self.plan.shards[index],
            self.plan,
            group=f"{self.group_prefix}-{index}",
            snapshots=self._snapshots,
        )

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- running

    @property
    def lag(self) -> int:
        """Feed records pending across all shards (dead ones included,
        from their registrations)."""
        return sum(row.lag for row in self.status())

    @property
    def graph(self) -> ConflictHypergraph:
        """The merged shard view (see :func:`merge_graphs`).

        Never cached: each access re-merges the workers' current graphs,
        so syncs, retractions and cross-boundary resurrections always
        show (callers wanting a stable view across several reads should
        bind the property once).  Workers whose detection is still
        deferred contribute nothing.
        """
        graphs = [worker.shard_graph() for worker in self.workers]
        return merge_graphs(
            (graph for graph in graphs if graph is not None),
            self.plan.constraint_names,
        )

    def sync(self, limit: Optional[int] = None) -> list[ReplicaSync]:
        """One bounded sync per worker (round-robin fairness)."""
        return [worker.sync(limit) for worker in self.workers]

    def drain(self) -> int:
        """Sync every worker until its lag is zero; returns records
        consumed.  After a drain the shards sit at an *aligned* cut --
        the precondition for comparing the merged view against a
        monolith (the writer must be quiescent and flushed)."""
        return sum(worker.drain() for worker in self.workers)

    def checkpoint(self) -> None:
        """Checkpoint every worker's shard at its committed cut."""
        for worker in self.workers:
            worker.checkpoint()

    def status(self) -> list[ShardStatus]:
        """Live per-worker status, dead workers included.

        A dead worker -- it died somewhere between applying records,
        committing and checkpointing -- must show up *lagging* (its
        group's registered offsets against the feed end), never
        silently absent or caught-up-at-zero: an operator reading this
        view decides what to restart from it.
        """
        rows = [worker.status() for worker in self.workers]
        if all(row.alive for row in rows):
            return rows
        self.feed.refresh()
        ends = self.feed.end_offsets()
        registered = self.feed.recovery_points()
        for index, row in enumerate(rows):
            if row.alive:
                continue
            point = registered.get(row.group)
            committed = dict(point.committed) if point else {}
            spec = self.plan.shards[index]
            topics = point.topics if point else frozenset(spec.subscribed)
            lag = sum(
                max(end - committed.get(name, 0), 0)
                for name, end in ends.items()
                if topics is None or name in topics
            )
            rows[index] = replace(row, lag=lag, committed=committed)
        return rows

    def restart(self, index: int) -> WorkerLink:
        """Kill one worker and re-attach it from its durable state.

        The kill leaves the group registration in place (see
        :meth:`WorkerLink.kill`), so if the re-attach itself fails the
        group still shows up lagging in :meth:`status` and the ``.feed``
        view instead of vanishing.  The fresh worker bootstraps from the
        group's snapshot / committed cut and resumes.  Returns the
        replacement.
        """
        self.workers[index].kill()
        self.workers[index] = self._attach(index, respawn=True)
        return self.workers[index]

    # ------------------------------------------------------------- handoff

    def handoff(
        self,
        topic: str,
        to: int,
        on_step: Optional[Callable[[str], None]] = None,
    ) -> HandoffReport:
        """Move ``topic``'s ownership to worker ``to``, live.

        The five-step protocol (each step leaves a recoverable state;
        ``on_step`` is called after each with its name -- the chaos
        suite's hook for killing the pipeline mid-handoff):

        1. ``released`` -- the owning worker checkpoints the topic into
           a transfer packet at its committed cut (it keeps serving).
        2. ``granted``  -- the coordinator commits the new ownership
           (:meth:`_grant`: the plan swap; the process executor also
           persists it).
        3. ``adopted``  -- workers gaining topics resubscribe: restore
           the packet at the cut, pin their floors, re-detect,
           checkpoint.
        4. ``pruned``   -- workers losing topics resubscribe away,
           releasing rows and retention holds.
        5. ``cleared``  -- the transfer packets are deleted.

        Constraints follow their anchor relations: the new plan is
        recomputed with the full ownership map pinned, so cross-shard
        flags, foreign subscriptions and each worker's constraint slice
        all move consistently.  Adopting before pruning means an
        adopter's registration pins its new topics at their cuts before
        any releaser lets go, so the retention floor never gaps.

        Raises:
            ConstraintError: for an unknown topic or worker index.
        """
        name = str(topic).lower()
        if name not in self.plan.topic_owner:
            raise ConstraintError(f"unknown topic {name!r}")
        if not 0 <= to < len(self.workers):
            raise ConstraintError(
                f"worker {to} out of range (plan has"
                f" {len(self.workers)} workers)"
            )
        old_plan = self.plan
        if old_plan.topic_owner[name] == to:
            return HandoffReport(plan=old_plan, reshapes={})
        assignment = dict(old_plan.topic_owner)
        assignment[name] = to
        new_plan = plan_assignment(
            self.constraints, len(self.workers), assignment=assignment
        )
        step = on_step or (lambda step_name: None)
        old_subs = [frozenset(spec.subscribed) for spec in old_plan.shards]
        new_subs = [frozenset(spec.subscribed) for spec in new_plan.shards]
        adopters = [
            index
            for index, (old, new) in enumerate(zip(old_subs, new_subs))
            if new - old
        ]
        pruners = [
            index
            for index, (old, new) in enumerate(zip(old_plan.shards, new_plan.shards))
            if index not in adopters and old != new
        ]
        needed: set[str] = set()
        for index in adopters:
            needed |= new_subs[index] - old_subs[index]
        needed.discard(SCHEMA_TOPIC)
        # 1) Release: every topic someone must acquire gets a transfer
        #    packet from the worker currently serving it as owner.
        for moved in sorted(needed):
            exporter = old_plan.topic_owner.get(moved)
            if exporter is not None and moved in old_subs[exporter]:
                self.workers[exporter].export_topic(moved)
        step("released")
        # 2) Grant, then 3) adopt before 4) prune.
        self._grant(new_plan)
        step("granted")
        reshapes: Dict[int, ShardReshape] = {}
        for index in adopters:
            reshapes[index] = self.workers[index].reshape(
                new_plan.shards[index], new_plan
            )
        step("adopted")
        for index in pruners:
            reshapes[index] = self.workers[index].reshape(
                new_plan.shards[index], new_plan
            )
        step("pruned")
        # 5) The adopters checkpointed past their cuts; the packets no
        #    longer pin anything anyone needs.
        for moved in sorted(needed):
            self.feed.clear_transfer(moved)
        step("cleared")
        return HandoffReport(plan=new_plan, reshapes=reshapes)

    def _grant(self, plan: ShardPlan) -> None:
        """Step 2 of :meth:`handoff`, the commit point.  In-process the
        plan swap is the whole commit."""
        self.plan = plan

    def rebalance(
        self,
        threshold: int = 0,
        on_step: Optional[Callable[[str], None]] = None,
    ) -> Optional[RebalanceMove]:
        """Trigger at most one ownership move when per-worker load skew
        (pending records over owned topics, plus hypergraph edge
        counts, from live :meth:`status`) exceeds ``threshold``.
        Returns the move made, or None when the shards are balanced
        (see :func:`choose_move`)."""
        rows = self.status()
        self.feed.refresh()
        move = choose_move(
            self.plan,
            [row.committed for row in rows],
            self.feed.end_offsets(),
            threshold=threshold,
            edges=[row.edges for row in rows],
        )
        if move is not None:
            self.handoff(move.topic, move.target, on_step=on_step)
        return move

    # ------------------------------------------------------------ querying

    def database(self) -> Database:
        """Assemble one full database from the workers' owned slices.

        Each worker is authoritative for the rows of its *owned* topics
        (foreign subscriptions are read-only copies), so restoring each
        owned slice into one target -- schemas merged, rows disjoint,
        tids preserved -- reproduces the primary at the aligned cut.
        Call after :meth:`drain`.

        Raises:
            ExecutorError: when the workers run in other processes (their
                databases are not reachable from here).
        """
        db = Database()
        for worker in self.workers:
            if not isinstance(worker, ShardWorker):
                raise ExecutorError(
                    "only in-process shard workers can assemble a database"
                )
            restore_database(
                db,
                snapshot_database(worker.db, tables=worker.spec.owned),
                merge=True,
            )
        return db

    def engine(self, **kwargs: object) -> HippoEngine:
        """A :class:`~repro.core.hippo.HippoEngine` answering from the
        shards: the assembled database plus the merged hypergraph
        (handed over as precomputed detection, so the engine never
        re-detects).  Consistent-query answering then runs the paper's
        pipeline transparently over shard state."""
        from repro.core.hippo import HippoEngine

        return HippoEngine(
            self.database(), self.constraints, hypergraph=self.graph, **kwargs
        )

    def close(self) -> None:
        """Close every worker (checkpointing durable shards); the feed
        stays open -- the caller owns it."""
        for worker in self.workers:
            worker.close()
