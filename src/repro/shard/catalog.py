"""The shard catalog: which tables are hash-partitioned, on what key,
and which shard a key value lives on.

This module is the **only** place in the tree that computes a hash
partition (``tests/test_lint.py`` pins that): the planner classifies
statements and extracts shard-key *values*, the router asks the catalog
to map value → shard ordinal.  Keeping the arithmetic in one module is
what makes the partitioning function swappable (and auditable) without
touching the query path.

Partitioning is CRC32 over a canonical encoding of the key value,
modulo the shard count.  What is hashed is the value the key column
*holds*: the catalog records each column's declared type as the CREATE
TABLE broadcasts and runs a key through
:func:`repro.sqldb.types.store_convert` — the conversion ``Table``
applies to every INSERT — before encoding it, so ``40.7`` into an INT
key hashes as the ``40`` the shard stores, and an over-long string as
its truncation.  The encoding then folds exactly the equalities the
engine's ``=`` folds: integral floats with integers, and strings by the
function :func:`~repro.sqldb.types.compare` folds strings with.  A
WHERE constant goes through the same conversion, which keeps every row
it can equal on the shard it names (``'40'``, ``40.0`` and ``'40abc'``
all reach the row holding ``40``; a constant no stored value can equal
— ``40.7`` against an INT key — names *some* shard, whose engine finds
nothing, as every engine would).  A string key compared with a
*number* is a numeric comparison — rows on several shards can match —
so the planner never takes it for a shard-key equality.  A table whose
CREATE never passed through the router has no type, and its values
hash as written.

Tables declare a shard key explicitly (:meth:`ShardCatalog.declare`)
or pick one up from their CREATE TABLE as it broadcasts through the
router: a non-AUTO_INCREMENT primary key becomes the default shard
key.  Tables with no usable key (or an AUTO_INCREMENT primary key —
the engine assigns those values, so a client could never route by
them) are *pinned*: the whole table lives on shard 0 and the planner
routes every touch of it there.
"""

import zlib

from repro.sqldb import ast_nodes as ast
from repro.sqldb.types import _fold_string, store_convert, type_class


def _canonical(value):
    """Byte encoding under which values equal under SQL ``=`` collide."""
    if value is None:
        return b"\x00"
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int):
        return b"n:%d" % value
    if isinstance(value, float):
        return ("f:%r" % value).encode("ascii")
    if isinstance(value, bytes):
        return b"b:" + value
    # strings compare case- and confusable-insensitively in the engine
    # (MySQL's default collation), so the hash folds with its function
    return ("s:" + _fold_string(value)).encode("utf-8")


class ShardCatalog(object):
    """Hash-partitioned table registry for a fleet of *shard_count*
    shards."""

    def __init__(self, shard_count):
        if shard_count < 1:
            raise ValueError("need at least one shard")
        self.shard_count = shard_count
        #: lowered table name -> {"key", "columns", "explicit",
        #: "types": lowered column name -> (type name, length), as its
        #: CREATE TABLE declared them}
        self._tables = {}

    # -- declarations --------------------------------------------------

    def _entry(self, table):
        return self._tables.setdefault(
            table.lower(),
            {"key": None, "columns": [], "explicit": False, "types": {}},
        )

    def declare(self, table, key_column, columns=None):
        """Declare *table*'s shard key (``None`` pins the table whole
        to shard 0).  Explicit declarations survive the table's CREATE
        broadcast."""
        entry = self._entry(table)
        entry["key"] = key_column.lower() if key_column else None
        entry["explicit"] = True
        if columns is not None:
            entry["columns"] = list(columns)

    def forget(self, table):
        self._tables.pop(table.lower(), None)

    def observe_ddl(self, stmt):
        """Track a DDL statement as the router broadcasts it."""
        if isinstance(stmt, ast.CreateTable):
            self._observe_create(stmt)
        elif isinstance(stmt, ast.DropTable):
            self.forget(stmt.name)
        elif isinstance(stmt, ast.AlterTableAddColumn):
            entry = self._tables.get(stmt.table.lower())
            if entry is not None:
                entry["columns"].append(stmt.column_def.name)
        elif isinstance(stmt, ast.AlterTableDropColumn):
            entry = self._tables.get(stmt.table.lower())
            if entry is not None:
                entry["columns"] = [
                    c for c in entry["columns"]
                    if c.lower() != stmt.column.lower()
                ]

    def _observe_create(self, stmt):
        entry = self._entry(stmt.name)
        entry["columns"] = [col.name for col in stmt.columns]
        entry["types"] = {col.name.lower(): (col.type_name.upper(), col.length)
                          for col in stmt.columns}
        if not entry["explicit"]:
            entry["key"] = self._default_key(stmt.columns)

    @staticmethod
    def _default_key(columns):
        for col in columns:
            if col.primary_key and not col.auto_increment:
                return col.name.lower()
        return None

    # -- lookups -------------------------------------------------------

    def shard_key(self, table):
        """The shard-key column of *table* (lowered), or ``None`` for a
        pinned/unknown table."""
        entry = self._tables.get(table.lower())
        return None if entry is None else entry["key"]

    def key_type(self, table):
        """``(type name, length)`` of *table*'s shard-key column, or
        ``None`` when no CREATE TABLE told the router its type.  Keys of
        two tables co-locate only when these agree."""
        entry = self._tables.get(table.lower())
        return None if entry is None else entry["types"].get(entry["key"])

    def key_class(self, table):
        """Type class of *table*'s shard-key column — ``"n"``, ``"s"``,
        or ``None`` with its type unknown."""
        key_type = self.key_type(table)
        return None if key_type is None else type_class(key_type[0])

    def columns(self, table):
        """Column names of *table* in declaration order (empty when its
        CREATE never passed through the router)."""
        entry = self._tables.get(table.lower())
        return [] if entry is None else list(entry["columns"])

    def tables(self):
        return sorted(self._tables)

    # -- the partitioning function ------------------------------------

    def shard_of(self, value):
        """The shard ordinal a stored key *value* hashes to."""
        return zlib.crc32(_canonical(value)) % self.shard_count

    def shard_for(self, table, value):
        """Shard ordinal for one key value of *table* as its key column
        will hold it (pinned tables always answer 0)."""
        if self.shard_key(table) is None:
            return 0
        key_type = self.key_type(table)
        if key_type is not None:
            value = store_convert(value, *key_type)
        return self.shard_of(value)

    def __repr__(self):
        return "ShardCatalog(%d shards, %d tables)" % (
            self.shard_count, len(self._tables)
        )
