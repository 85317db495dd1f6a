"""Shared fixtures for the test suite."""

import re

import pytest

from repro import faults

from repro.core.logger import SepticLogger
from repro.core.septic import Mode, Septic
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database

TICKETS_SCHEMA = """
CREATE TABLE tickets (
    id INT PRIMARY KEY AUTO_INCREMENT,
    reservID VARCHAR(20),
    creditCard INT
);
INSERT INTO tickets (reservID, creditCard) VALUES
    ('ID34FG', 1234), ('ZZ11AA', 9999), ('QQ77MM', 4321);
"""

#: the paper's ticket query with an external identifier attached the way
#: the Zend shim attaches it (prefix comment)
TICKET_QUERY = (
    "/* septic:tickets.php:7 */ SELECT * FROM tickets "
    "WHERE reservID = '%s' AND creditCard = %s"
)


_COMMENT = re.compile(r"(/\*.*?\*/)", re.S)
_NUMBER = re.compile(r"(?<![\w.'])[1-9]\d*(?![\w.'])")
_QUOTED_WORD = re.compile(r"(?<=')[A-Za-z]{2,}(?=')")


def vary_literals(sql, rng):
    """*sql* with other data in it: every bare number and every quoted
    plain word replaced by a seeded one of the same length (comments are
    left alone — they carry SEPTIC's external identifier).  The token
    kinds do not change, so the result has the statement's shape."""

    def number(match):
        digits = match.group(0)
        return rng.choice("123456789") + "".join(
            rng.choice("0123456789") for _ in digits[1:])

    def word(match):
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                       for _ in match.group(0))

    parts = _COMMENT.split(sql)
    for index in range(0, len(parts), 2):
        parts[index] = _QUOTED_WORD.sub(word,
                                        _NUMBER.sub(number, parts[index]))
    return "".join(parts)


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No test may leak an armed fault plan into the next one."""
    yield
    faults.disarm()


@pytest.fixture
def db():
    """A plain database (no SEPTIC) with the tickets table."""
    database = Database()
    database.seed(TICKETS_SCHEMA)
    return database


@pytest.fixture
def conn(db):
    return Connection(db)


@pytest.fixture
def septic_db():
    """(septic, database, connection) with the ticket query trained and
    SEPTIC switched to prevention mode."""
    septic = Septic(mode=Mode.TRAINING, logger=SepticLogger(verbose=True))
    database = Database(septic=septic)
    database.seed(TICKETS_SCHEMA)
    connection = Connection(database)
    connection.query(TICKET_QUERY % ("ID34FG", "1234"))
    septic.mode = Mode.PREVENTION
    return septic, database, connection


@pytest.fixture(scope="session")
def waspmon_scenarios():
    """The four protection scenarios, built once per session (attack tests
    must not mutate shared state destructively — each test gets fresh
    scenarios where needed via build_scenario instead)."""
    from repro.attacks.scenario import build_scenario

    return {
        name: build_scenario(name)
        for name in ("none", "modsec", "septic", "septic+modsec")
    }
