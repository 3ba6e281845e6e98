"""In-memory relational engine: the RDBMS substrate under Hippo.

The original system ran against PostgreSQL through JDBC; this package is
the equivalent substrate, providing SQL execution, point membership
lookups and execution statistics.
"""

from repro.engine.changelog import ChangeLog
from repro.engine.database import Database, Result, apply_feed_record
from repro.engine.feed import ChangeFeed, FeedConsumer, FeedRecord, TopicInfo
from repro.engine.io import dump_csv, dump_sql, load_csv, restore_sql
from repro.engine.schema import Column, TableSchema, make_schema
from repro.engine.stats import ExecutionStats
from repro.engine.storage import Table
from repro.engine.types import NULL, SQLType, SQLValue

__all__ = [
    "ChangeFeed",
    "ChangeLog",
    "Database",
    "FeedConsumer",
    "FeedRecord",
    "TopicInfo",
    "apply_feed_record",
    "Result",
    "dump_csv",
    "dump_sql",
    "load_csv",
    "restore_sql",
    "Column",
    "TableSchema",
    "make_schema",
    "ExecutionStats",
    "Table",
    "NULL",
    "SQLType",
    "SQLValue",
]
