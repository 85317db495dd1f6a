"""Direct tests for the storage engine (Table/Column/ResultSet), on
both row stores (see ``conftest.backend``)."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import ExecutionError
from repro.sqldb.storage import Column, ResultSet, Table, image_rows


@pytest.fixture
def table(backend):
    return backend.table("t", [
        Column("id", "INT", primary_key=True, auto_increment=True),
        Column("name", "VARCHAR", length=10, not_null=True),
        Column("score", "FLOAT", default=1.5),
        Column("tag", "VARCHAR", length=5, unique=True),
    ])


class TestTable(object):
    def test_auto_increment_sequence(self, table):
        assert table.insert({"name": "a"}) == 1
        assert table.insert({"name": "b"}) == 2
        assert len(table) == 2

    def test_explicit_id_advances_counter(self, table):
        table.insert({"id": 10, "name": "a"})
        assert table.insert({"name": "b"}) == 11

    def test_default_applied(self, table):
        table.insert({"name": "a"})
        assert table.rows[0]["score"] == 1.5

    def test_not_null_text_backfill(self, table):
        table.insert({})
        assert table.rows[0]["name"] == ""

    def test_varchar_truncation(self, table):
        table.insert({"name": "abcdefghijKLMNOP"})
        assert table.rows[0]["name"] == "abcdefghij"

    def test_primary_key_conflict(self, table):
        table.insert({"id": 1, "name": "a"})
        with pytest.raises(ExecutionError) as err:
            table.insert({"id": 1, "name": "b"})
        assert err.value.errno == 1062

    def test_unique_conflict(self, table):
        table.insert({"name": "a", "tag": "x"})
        with pytest.raises(ExecutionError):
            table.insert({"name": "b", "tag": "x"})

    def test_unique_allows_null_duplicates(self, table):
        table.insert({"name": "a"})
        table.insert({"name": "b"})  # both tags NULL: fine
        assert len(table) == 2

    def test_duplicate_column_rejected(self):
        with pytest.raises(ExecutionError):
            Table("bad", [Column("x", "INT"), Column("x", "INT")])

    def test_has_column_and_names(self, table):
        assert table.has_column("NAME")       # case-insensitive
        assert not table.has_column("nope")
        assert table.column_names() == ["id", "name", "score", "tag"]

    def test_convert_uses_column_type(self, table):
        assert table.convert("score", "2.5x") == 2.5
        assert table.convert("name", 123) == "123"

    def test_rowid_never_shows_through(self, table):
        table.insert({"name": "a"})
        row = table.rows[0]
        assert row.rowid == 1
        assert sorted(row) == ["id", "name", "score", "tag"]
        # the checkpoint form is the values in column order, nothing more
        assert table.value_rows() == [[1, "a", 1.5, None]]
        assert image_rows(table.to_dict()) == [(1, "a", 1.5, None)]

    def test_update_and_delete_name_rows_by_rowid(self, table):
        table.insert({"name": "a"})
        table.insert({"name": "b"})
        first = table.rows[0]
        newer = table.update_row(first, {"name": "z"})
        assert newer.rowid == first.rowid and first["name"] == "a"
        # a superseded image still names its row
        table.delete_rows([first])
        assert [row["name"] for row in table.rows] == ["b"]
        with pytest.raises(ExecutionError):
            table.update_row(newer, {"name": "gone"})
        with pytest.raises(ExecutionError):
            table.update_row({"id": 2, "name": "b"}, {"name": "plain dict"})


class TestTablePaged(TestTable):
    storage = "paged"


#: one value per draw, by column kind: key-like ints (a start plus small
#: steps, runs going down included), any ints (past ±2**63, NULLs),
#: floats (-0.0 included), text (U+02BC, quotes, escapes, emoji) and
#: ints with a bool among them (a bool keeps a column plain)
_STEP = st.integers(min_value=-3, max_value=40)
_VALUES = {
    "int": st.one_of(st.none(),
                     st.integers(min_value=-2 ** 70, max_value=2 ** 70)),
    "float": st.one_of(st.just(-0.0), st.floats(allow_nan=False,
                                                allow_infinity=False)),
    "text": st.one_of(st.none(), st.text(
        alphabet=st.sampled_from("aZ0 ʼ'\"\\\n€\U0001f600"), max_size=8)),
    "bool": st.one_of(st.booleans(), st.integers(-5, 5)),
}


@st.composite
def _image_columns(draw):
    """``(column kinds, rows)`` — 0 to 25 rows of 1 to 5 columns."""
    count = draw(st.integers(min_value=0, max_value=25))
    kinds = draw(st.lists(st.sampled_from(["key"] + sorted(_VALUES)),
                          min_size=1, max_size=5))
    cols = []
    for kind in kinds:
        if kind == "key":
            start = draw(st.integers(min_value=-2 ** 64, max_value=2 ** 64))
            steps = draw(st.lists(_STEP, min_size=count, max_size=count))
            cols.append(list(itertools.accumulate(steps, initial=start))
                        [1:])
        else:
            cols.append(draw(st.lists(_VALUES[kind], min_size=count,
                                      max_size=count)))
    return kinds, [list(row) for row in zip(*cols)]


@pytest.fixture(scope="module", params=["memory", "paged"])
def image_database(request, tmp_path_factory):
    """One database per row store, that the round-trip examples create
    their tables in."""
    if request.param == "memory":
        database = Database()
    else:
        database = Database.recover(str(tmp_path_factory.mktemp("image")),
                                    seed=1, storage="paged", page_size=512,
                                    pool_pages=4)
    yield database
    database.close()


@settings(max_examples=80, deadline=None)
@given(drawn=_image_columns())
def test_from_dict_inverts_to_dict(image_database, drawn):
    """``from_dict(to_dict())`` through the JSON text an image is: the
    rows come back in order, with their values and Python types, on
    either row store, whichever columns the differences coded."""
    kinds, rows = drawn
    columns = [Column("c%d" % at, "INT" if kind in ("key", "int", "bool")
                      else "DOUBLE" if kind == "float" else "TEXT")
               for at, kind in enumerate(kinds)]
    table = image_database.create_table("t", columns)
    try:
        table.load_rows(rows)
        image = json.loads(json.dumps(table.to_dict(), sort_keys=True,
                                      separators=(",", ":")))
        back = Table.from_dict(image, image_database._row_store())
        try:
            assert repr(back.value_rows()) == repr(rows)
        finally:
            back.dispose()
    finally:
        image_database.drop_table("t")


class TestImageLayout(object):
    def test_differences_only_where_they_print_shorter(self, backend):
        table = backend.table("t", [Column(name, "INT")
                                    for name in "abcdef"])
        table.load_rows([
            [1000 + n, 9999 * (n % 2), n, -100000 - 3 * n,
             n if n else None, True if n == 2 else n] for n in range(6)])
        image = table.to_dict()
        # a: 1000,1,1,… prints shorter; b: 0,9999,-9999,… longer; c:
        # 0,1,1,… a tie, not shorter; d: a run going down, shorter; a
        # NULL (e) and a bool (f) keep their columns plain
        assert image["delta"] == [0, 3]
        assert image["cols"][1] == [0, 9999, 0, 9999, 0, 9999]
        assert image["cols"][3] == [-100000, -3, -3, -3, -3, -3]
        assert image_rows(image) == [tuple(row) for row in
                                     table.value_rows()]


class TestImageLayoutPaged(TestImageLayout):
    storage = "paged"


class TestAlterBackfill(object):
    """ALTER TABLE ADD COLUMN fills existing rows with what an INSERT
    that omits the column stores — one rule, owned by the table."""

    @pytest.mark.parametrize("definition, expected", [
        ("e DATETIME NOT NULL", "0000-00-00 00:00:00"),
        ("e DATE NOT NULL", "0000-00-00 00:00:00"),
        ("e VARCHAR(8) NOT NULL", ""),
        ("e INT NOT NULL", 0),
        ("e INT", None),
        ("e VARCHAR(3) DEFAULT 'abcdef'", "abc"),
    ])
    def test_backfill_agrees_with_insert(self, backend, definition,
                                         expected):
        database = backend.database("CREATE TABLE t (a INT); "
                                    "INSERT INTO t (a) VALUES (1)")
        conn = Connection(database)
        conn.query_or_raise("ALTER TABLE t ADD COLUMN %s" % definition)
        conn.query_or_raise("INSERT INTO t (a) VALUES (2)")
        rows = conn.query_or_raise("SELECT a, e FROM t ORDER BY a").rows
        assert rows == [(1, expected), (2, expected)]

    def test_drop_column_forgets_the_schema_entry(self, backend):
        database = backend.database(
            "CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 2)")
        conn = Connection(database)
        conn.query_or_raise("ALTER TABLE t DROP COLUMN b")
        table = database.table("t")
        assert table.column_names() == ["a"] and not table.has_column("b")
        assert table.rows == [{"a": 1}]


class TestAlterBackfillPaged(TestAlterBackfill):
    storage = "paged"


class TestResultSet(object):
    def test_accessors(self):
        rs = ResultSet(["a", "b"], [(1, "x"), (2, "y")])
        assert len(rs) == 2
        assert rs.scalar() == 1
        assert rs.column("b") == ["x", "y"]
        assert rs.rows_as_dicts() == [
            {"a": 1, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_scalar_of_empty(self):
        assert ResultSet(["a"], []).scalar() is None

    def test_equality(self):
        assert ResultSet(["a"], [(1,)]) == ResultSet(["a"], [(1,)])
        assert ResultSet(["a"], [(1,)]) != ResultSet(["a"], [(2,)])

    def test_rows_are_tuples(self):
        rs = ResultSet(["a"], [[1], [2]])
        assert all(isinstance(row, tuple) for row in rs.rows)

    def test_iteration(self):
        rs = ResultSet(["a"], [(1,), (2,)])
        assert [row[0] for row in rs] == [1, 2]
