"""What a warm statement costs besides its rows, counted.

The four applications' tables hold a handful of rows each, so on their
traffic a statement's fixed work — from the pipeline-cache hit to the
result set — is most of what it costs.  Here the same statement text
runs until every memo is warm (the cached entry, its SEPTIC verdict,
its plan), then once more under ``sys.setprofile``, which sees every
Python frame entered and every C function called: the Python-level
calls are counted, and so are the locks taken — a ``with`` block shows
as its lock's ``__exit__``, a lock taken by hand as its ``acquire``.

The database is set up as the ``app_replay`` benchmark's server is: the
four applications on one durable database with a batch-synced WAL,
trained twice over their recorded series and crawler samples, then in
PREVENTION.  At the commit before these budgets the point SELECT made
92 calls and took 12 locks, and the keyed UPDATE took 18.
"""

import sys
import threading

import pytest

from repro.apps.addressbook import AddressBook
from repro.apps.refbase import Refbase
from repro.apps.waspmon import WaspMon
from repro.apps.zerocms import ZeroCMS
from repro.core.septic import Mode, Septic
from repro.core.training import SepticTrainer
from repro.sqldb.engine import Database

POINT_SELECT = ("/* septic:zerocms:article:26 */ "
                "SELECT title, body, views FROM articles WHERE id = 2")
KEYED_UPDATE = ("/* septic:zerocms:article_views:31 */ "
                "UPDATE articles SET views = views + 1 WHERE id = 2")

#: the budgets: Python-level calls of the point SELECT, and the locks
#: each statement takes
SELECT_CALLS = 75
SELECT_LOCKS = 8
UPDATE_LOCKS = 13

_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))


def _recorded_requests(app):
    if hasattr(app, "workload_requests"):
        return app.workload_requests()
    return app.benign_requests()


@pytest.fixture(scope="module")
def database(tmp_path_factory):
    septic = Septic(mode=Mode.TRAINING)
    database = Database.recover(str(tmp_path_factory.mktemp("app")),
                                septic=septic, wal_sync="batch",
                                wal_batch_commits=10 ** 6)
    apps = [cls(database) for cls in (WaspMon, AddressBook, Refbase,
                                      ZeroCMS)]
    for _ in range(2):
        for app in apps:
            for request in _recorded_requests(app):
                app.handle(request)
            for request in SepticTrainer(app, septic).crawl():
                app.handle(request)
    septic.mode = Mode.PREVENTION
    yield database
    database.close()


def _warm_cost(database, sql):
    """``(python_calls, locks, result)`` of one warm run of *sql*."""
    for _ in range(3):
        database.run(sql)
    calls = locks = 0

    def profile(_frame, event, arg):
        nonlocal calls, locks
        if event == "call":
            calls += 1
        elif event == "c_call" and arg.__name__ in ("__exit__", "acquire") \
                and isinstance(getattr(arg, "__self__", None), _LOCK_TYPES):
            locks += 1

    sys.setprofile(profile)
    try:
        [result] = database.run(sql)
    finally:
        sys.setprofile(None)
    return calls, locks, result


def test_a_warm_point_select_stays_in_its_budget(database):
    calls, locks, result = _warm_cost(database, POINT_SELECT)
    assert len(result.result_set.rows) == 1
    assert calls <= SELECT_CALLS, calls
    assert locks <= SELECT_LOCKS, locks


def test_a_warm_keyed_update_stays_in_its_lock_budget(database):
    _calls, locks, result = _warm_cost(database, KEYED_UPDATE)
    assert result.affected_rows == 1
    assert locks <= UPDATE_LOCKS, locks
