"""Kill+restart chaos: SEPTIC model/data consistency across a crash.

The paper's protection lives in learned query models; the data plane
lives in tables.  Both must survive a DBMS kill **together** — a server
that recovers its rows but forgets its models restarts wide open, and
one that keeps its models over divergent data raises false positives.
:func:`kill_restart` drives a durable ``build_stack`` through exactly
that and the probes pin the two behaviours that matter: a trained query
is still served, an attack is still blocked.
"""

from repro.apps import AddressBook
from repro.benchlab.harness import build_stack
from repro.sqldb.errors import QueryBlocked


TRAINED_SQL = ("SELECT c.name, c.email, c.phone, g.name FROM contacts c "
               "LEFT JOIN ab_groups g ON c.group_id = g.id WHERE c.id = 1")
ATTACK_SQL = ("SELECT c.name, c.email, c.phone, g.name FROM contacts c "
              "LEFT JOIN ab_groups g ON c.group_id = g.id "
              "WHERE c.id = 1 OR 1=1")


def trained_query_served(app):
    """The canonical positive probe: the structure SEPTIC learned in
    training must keep flowing (same call site, same shape)."""
    out = app.php.mysql_query(TRAINED_SQL, site="view:21")
    return ("served", out.ok, len(out.rows))


def attack_blocked(app):
    """The canonical negative probe: a tautology at a trained call site
    must be structurally rejected."""
    out = app.php.mysql_query(ATTACK_SQL, site="view:21")
    return ("blocked", not out.ok, isinstance(out.error, QueryBlocked))


PROBES = (trained_query_served, attack_blocked)


def _serve_once(server, app):
    for request in app.workload_requests():
        server.handle(request)


def kill_restart(data_dir):
    """Train a durable AddressBook stack, serve one prevention-mode
    pass, then kill it — the WAL handle abandoned un-synced, the
    database rebuilt from disk, the models reloaded from their
    co-persisted store — and serve again.  Returns what both sides of
    the kill observed."""
    server, app, septic = build_stack(AddressBook, "YY", data_dir=data_dir)
    database = app.database
    _serve_once(server, app)
    seen = {
        "probes_before": [probe(app) for probe in PROBES],
        "rows_before": {name: len(table)
                        for name, table in database.tables.items()},
        "models_before": len(septic.store),
    }
    database.reopen()
    septic.reload_models()
    seen["recovery_report"] = dict(database.recovery_report or {})
    seen["rows_after"] = {name: len(table)
                          for name, table in database.tables.items()}
    seen["models_after"] = len(septic.store)
    unknown_before = septic.stats.as_dict()["unknown_queries"]
    _serve_once(server, app)
    seen["unknown_delta"] = (septic.stats.as_dict()["unknown_queries"]
                             - unknown_before)
    seen["probes_after"] = [probe(app) for probe in PROBES]
    seen["wal_lsn"] = septic.store.wal_lsn
    database.close()
    return seen


def test_kill_restart_is_consistent(tmp_path):
    seen = kill_restart(str(tmp_path / "dd"))
    # the restarted server has the same data and the same models, and
    # recognizes every trained query
    assert seen["rows_before"] == seen["rows_after"]
    assert seen["models_before"] == seen["models_after"]
    assert seen["unknown_delta"] == 0
    # the probes did what their names claim, on both sides of the kill
    (served_before, blocked_before) = seen["probes_before"]
    (served_after, blocked_after) = seen["probes_after"]
    assert served_before == served_after
    assert served_before[1] is True and served_before[2] == 1
    assert blocked_before == blocked_after
    assert blocked_before == ("blocked", True, True)
    # substance checks: the run was not vacuously consistent
    assert seen["models_before"] > 0
    assert sum(seen["rows_before"].values()) > 0
    # the reloaded store carried the data plane's durability watermark
    assert seen["wal_lsn"] > 0
    report = seen["recovery_report"]
    assert report["replayed_statements"] > 0 or report["checkpoint_lsn"] > 0


def test_kill_restart_is_deterministic(tmp_path):
    first = kill_restart(str(tmp_path / "a"))
    second = kill_restart(str(tmp_path / "b"))
    assert first["rows_after"] == second["rows_after"]
    assert first["models_after"] == second["models_after"]
    assert first["wal_lsn"] == second["wal_lsn"]
