"""The per-database change bus: what storage and the catalog notify.

Hippo's Figure-1 data flow runs Conflict Detection once, up front; every
later consistent-answer computation reuses the conflict hypergraph.  For
that to survive update traffic, every row mutation is published to the
database's partitioned :class:`~repro.engine.feed.ChangeFeed` as one
:class:`~repro.engine.feed.FeedRecord` -- the only row-change type --
and every consumer (the Hippo engine, replicas, shard workers) polls
those records through a :class:`~repro.engine.feed.FeedConsumer`,
re-deriving only the hyperedges that touch changed tuples.

:class:`ChangeLog` is the thin bus in front of that feed: storage
publishes rows straight to :attr:`ChangeLog.feed`, the catalog reports
DDL through :meth:`ChangeLog.schema_created` /
:meth:`ChangeLog.schema_dropped` (which hide the schema wire format),
and the planner keys its cache on :attr:`ChangeLog.schema_version` and
:attr:`ChangeLog.plan_epoch`.  The feed's semantics:

* **Zero cost when unused.**  An in-memory feed buffers nothing until at
  least one consumer group is open, so a plain
  :class:`~repro.engine.database.Database` never accumulates history.
* **Updates are delete + insert.**  An UPDATE keeps its tid but changes
  the row, so it is published as a ``delete`` of the old row followed by
  an ``insert`` of the new one under the same tid; consumers treat the
  pair as "retract everything incident to the tuple, then re-derive".
* **Bounded memory, verified fallback.**  In-memory retention is capped
  (``feed.max_retained``); on overflow it is dropped wholesale and
  lagging consumers report ``lost=True``, telling them to fall back to
  full re-detection (the escape hatch is always correct, just slower).
  Durable feeds never lose an unconsumed record: segments are the
  retention, only the active tail stays resident, and with
  ``retention="truncate"`` (or ``"compact"``) sealed history is
  reclaimed once every registered recovery participant -- the durable
  writer's checkpoint included -- has passed it; consumers whose
  history was reclaimed report ``lost`` and fall back the same way.
* **DDL rides the feed.**  CREATE/DROP TABLE bump ``schema_version``
  and (when anyone is listening) publish serialized schemas on the
  ``_schema`` topic, which is what lets a replica rebuild the database
  without sharing memory.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.feed import (
    RECORD_CREATE_TABLE,
    RECORD_DROP_TABLE,
    ChangeFeed,
    serialize_schema,
)


class ChangeLog:
    """The change bus of one database, backed by a change feed.

    Storage publishes row mutations to :attr:`feed`; readers attach
    with ``feed.consumer()``.
    """

    def __init__(self, feed: Optional[ChangeFeed] = None) -> None:
        self.feed = feed if feed is not None else ChangeFeed()
        #: Planner-visible epoch for changes ``schema_version`` does not
        #: cover (index creation, constraint attach/drop): bumping it
        #: invalidates every cached statement plan keyed against it.
        #: In-process only -- unlike ``schema_version`` it does not ride
        #: the feed, since access paths are a per-process choice.
        self.plan_epoch = 0

    def invalidate_plans(self) -> None:
        """Bump :attr:`plan_epoch`, forcing fresh plans for all cached
        statements of every database bound to this log.

        Called by the storage layer when an index appears and by the CQA
        engines when the constraint set changes -- anything that can
        alter which physical plan the planner would pick.
        """
        self.plan_epoch += 1

    @property
    def schema_version(self) -> int:
        """Bumped by DDL; consumers with schema-derived state rebuild."""
        return self.feed.schema_version

    @property
    def end(self) -> int:
        """The global sequence number one past the newest record."""
        return self.feed.next_seq

    def schema_created(self, schema: object) -> None:
        """Publish a CREATE TABLE (serialized schema rides the feed)."""
        self.feed.publish_schema(
            RECORD_CREATE_TABLE,
            schema.name.lower(),  # type: ignore[attr-defined]
            serialize_schema(schema),
        )

    def schema_dropped(self, name: str) -> None:
        """Publish a DROP TABLE."""
        self.feed.publish_schema(RECORD_DROP_TABLE, name.lower())
