"""The rowid-keyed B-tree over buffer-pool pages: ordering, byte-budget
splits, lazy deletes and the corruption-tolerant page walk."""

import json

import pytest

from repro.sqldb.btree import BTree, Row, decode_node, encode_node
from repro.sqldb.errors import PageCorruptionError
from repro.sqldb.pager import PageStore, flip_page_bit


def make_store(tmp_path, page_size=512, pool_pages=8):
    return PageStore(str(tmp_path / "d"), page_size=page_size,
                     pool_pages=pool_pages, sync=False,
                     encoder=encode_node, decoder=decode_node)


def fill(tree, count, payload="row-%04d"):
    for rowid in range(1, count + 1):
        tree.put(rowid, {"v": payload % rowid})


class TestNodeCodec(object):
    def test_leaf_round_trip_reattaches_rowids(self):
        rows = [Row(v="a"), Row(v="b")]
        rows[0].rowid, rows[1].rowid = 3, 7
        node = {"t": "L", "k": [3, 7], "r": rows, "n": 0}
        decoded = decode_node(encode_node(node))
        assert decoded["k"] == [3, 7]
        assert decoded["r"] == [{"v": "a"}, {"v": "b"}]
        assert [row.rowid for row in decoded["r"]] == [3, 7]
        # the rowid rides beside the columns: never a key, never in
        # the serialized form
        assert json.loads(encode_node(node))["r"] == [{"v": "a"},
                                                      {"v": "b"}]

    def test_interior_round_trip(self):
        node = {"t": "I", "k": [10, 20], "c": [1, 2, 3]}
        assert decode_node(encode_node(node)) == node


class TestTreeOperations(object):
    def test_put_get_items_in_rowid_order(self, tmp_path):
        store = make_store(tmp_path)
        tree = BTree(store)
        fill(tree, 30)
        assert tree.get(1)["v"] == "row-0001"
        assert tree.get(30)["v"] == "row-0030"
        assert tree.get(31) is None
        assert [rowid for rowid, _row in tree.items()] == list(range(1, 31))
        store.close()

    def test_byte_budget_forces_multi_level_splits(self, tmp_path):
        store = make_store(tmp_path, page_size=256)
        tree = BTree(store)
        fill(tree, 80)
        assert len(tree.pages()) > 3, "80 rows in 256-byte pages " \
            "must split into several leaves"
        assert [rowid for rowid, _row in tree.items()] == list(range(1, 81))
        for probe in (1, 40, 80):
            assert tree.get(probe)["v"] == "row-%04d" % probe
        store.close()

    def test_put_replaces_existing_rowid(self, tmp_path):
        store = make_store(tmp_path)
        tree = BTree(store)
        fill(tree, 5)
        tree.put(3, {"v": "patched"})
        assert tree.get(3)["v"] == "patched"
        assert len(list(tree.items())) == 5
        store.close()

    def test_delete_is_lazy_but_exact(self, tmp_path):
        store = make_store(tmp_path, page_size=256)
        tree = BTree(store)
        fill(tree, 40)
        for rowid in range(2, 41, 2):
            assert tree.delete(rowid)
        assert not tree.delete(999)
        assert [rowid for rowid, _row in tree.items()] == \
            list(range(1, 41, 2))
        assert tree.get(2) is None and tree.get(3)["v"] == "row-0003"
        store.close()

    def test_clear_frees_every_page(self, tmp_path):
        store = make_store(tmp_path, page_size=256)
        tree = BTree(store)
        fill(tree, 40)
        pages = tree.pages()
        tree.clear()
        assert tree.root is None
        assert list(tree.items()) == []
        assert set(pages) <= set(store.pager.freelist)
        store.close()

    def test_update_rows_rewrites_in_place(self, tmp_path):
        store = make_store(tmp_path)
        tree = BTree(store)
        fill(tree, 10)

        def mutator(row):
            row["v"] = row["v"].upper()

        tree.update_rows(mutator)
        assert all(row["v"].startswith("ROW-")
                   for _rowid, row in tree.items())
        store.close()


class TestCorruptionTolerance(object):
    def _homed_tree(self, tmp_path):
        """A multi-page tree whose pages are homed and non-resident —
        the state the scrubber meets after a checkpoint + cold restart."""
        store = make_store(tmp_path, page_size=256)
        tree = BTree(store)
        fill(tree, 80)
        images, _taken = store.collect_images(lsn=1)
        for page_no, image in images.items():
            store.pager.write_home_raw(page_no, image)
        store.pager.clear_spill()
        store.pool.clear()
        return store, tree

    def test_pages_lists_a_corrupt_page_instead_of_raising(self, tmp_path):
        store, tree = self._homed_tree(tmp_path)
        pages = tree.pages()
        victim = pages[len(pages) // 2]
        flip_page_bit(str(tmp_path / "d"), victim, 777, page_size=256)
        store.pool.drop(victim)
        # the walk must still report the damaged page (the scrubber
        # needs to see it) without propagating the checksum failure
        assert sorted(tree.pages()) == sorted(pages)
        store.close()

    def test_scan_through_a_corrupt_leaf_fails_closed(self, tmp_path):
        store, tree = self._homed_tree(tmp_path)
        # the leaf chain: corrupt a mid-chain leaf and walk into it
        leaves = [p for p in tree.pages()
                  if store.pool.fetch(p)["t"] == "L"]
        store.pool.clear()
        victim = leaves[len(leaves) // 2]
        flip_page_bit(str(tmp_path / "d"), victim, 777, page_size=256)
        with pytest.raises(PageCorruptionError):
            list(tree.items())
        store.close()
