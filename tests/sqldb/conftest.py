"""One storage suite, two row stores.

The storage / MVCC / index / transaction suites build their tables and
databases through the :func:`backend` fixture.  A test class runs on
the in-memory store unless it says otherwise; the one-line subclass ::

    class TestTablePaged(TestTable):
        storage = "paged"

re-runs every case of ``TestTable`` on paged storage — 512-byte pages
behind a 4-frame buffer pool, so trees split and frames evict inside
ordinary cases.  (A subclass rather than a ``params=`` list: the memory
run keeps the test ids it has always had.)
"""

import pytest

from repro.sqldb.engine import Database
from repro.sqldb.storage import Table


class Backend(object):
    """Builds databases and bare tables on one storage backend."""

    def __init__(self, storage, tmp_path):
        self.storage = storage
        self._tmp_path = tmp_path
        self._opened = []

    def database(self, schema=None, name="db"):
        if self.storage == "memory":
            database = Database()
        else:
            database = self.recover(name)
        if schema:
            database.seed(schema)
        return database

    def recover(self, name="db"):
        """Open (or re-open) the durable database called *name*."""
        kwargs = {}
        if self.storage == "paged":
            kwargs = dict(storage="paged", page_size=512, pool_pages=4)
        database = Database.recover(str(self._tmp_path / name), seed=1,
                                    **kwargs)
        self._opened.append(database)
        return database

    def table(self, name, columns):
        """A bare table (no SQL front end) on this backend."""
        if self.storage == "memory":
            return Table(name, columns)
        return self.database(name="bare").create_table(name, columns)

    def churn(self, database):
        """Evict every page *database* holds in its buffer pool (dirty
        ones spill), so the next access re-reads each row from bytes.
        Nothing to do on the in-memory store."""
        if database.page_store is not None:
            pool = database.page_store.pool
            for _ in range(len(pool._frames)):
                pool._evict_one()

    def close(self):
        for database in self._opened:
            database.close()


@pytest.fixture
def backend(request, tmp_path):
    factory = Backend(getattr(request.cls, "storage", "memory"), tmp_path)
    yield factory
    factory.close()
