"""Rowid-keyed B-tree over buffer-pool pages.

Each table stores its rows in one B-tree keyed by a monotone integer
rowid (assignment order == insertion order, which keeps full scans in
the same order the in-memory backend yields).  Nodes are JSON documents
inside checksummed pages:

leaf      ``{"t": "L", "k": [rowids], "r": [row dicts], "n": next_leaf}``
interior  ``{"t": "I", "k": [separator keys], "c": [child page numbers]}``

``n`` chains leaves left-to-right (0 = none) so full scans walk the
leaf level without descending; an interior node with ``len(k) == n``
has ``n + 1`` children and routes key *K* to ``c[bisect_right(k, K)]``.
Splits happen when a node's encoded form no longer fits its page's
payload budget (rows vary wildly in size, so the split trigger is
bytes, not arity); deletes are lazy — no merging, an empty leaf simply
yields nothing — matching the exemplar layout.

Every descent pins the path root→leaf in the buffer pool, so the pool
must hold at least (tree height + a small working margin) frames; the
4-page property-test pool handles the 2-level trees small workloads
build, production defaults are far above any realistic height.

Rows are :class:`Row` images: the rowid rides *beside* the columns, so
a page stores plain column dicts (the key column *is* the rowid) and
decode re-attaches it — a row coming off a page is indistinguishable
from a freshly-inserted one.
"""

import json
from bisect import bisect_left, bisect_right

from repro.sqldb.errors import PagerError


class Row(dict):
    """One row image: column name → value, plus the row's identity.

    ``rowid`` is the one name a row keeps across versions, evictions
    and rollbacks; it is an attribute, not a key, so no scan,
    ``SELECT *``, digest or encoder ever sees it.  ``dict(row)`` is the
    plain column mapping."""

    __slots__ = ("rowid",)

    def clone(self):
        """A fresh image of the same row."""
        image = Row(self)
        image.rowid = self.rowid
        return image


LEAF = "L"
INTERIOR = "I"


def encode_node(node):
    """A node's page payload (a row's rowid is not in it: ``k`` holds
    the rowids, decode re-attaches them)."""
    return json.dumps(node, separators=(",", ":"), sort_keys=True).encode("utf-8")


def decode_node(payload):
    doc = json.loads(payload.decode("utf-8"))
    if doc["t"] == LEAF:
        doc["r"] = rows = list(map(Row, doc["r"]))
        for rowid, row in zip(doc["k"], rows):
            row.rowid = rowid
    return doc


def _new_leaf():
    return {"t": LEAF, "k": [], "r": [], "n": 0}


class BTree(object):
    """One table's rowid→row tree over a :class:`~repro.sqldb.pager.PageStore`
    buffer pool."""

    def __init__(self, store, root=None):
        self.store = store
        self.root = root

    @property
    def _pool(self):
        return self.store.pool

    def _budget(self):
        return self.store.pager.payload_budget

    def _fits(self, node):
        return len(encode_node(node)) <= self._budget()

    # -- reads -------------------------------------------------------------

    def get(self, rowid):
        """The row dict for *rowid*, or ``None``."""
        if self.root is None:
            return None
        pool = self._pool
        page_no = self.root
        pinned = []
        try:
            while True:
                node = pool.fetch(page_no)
                pool.pin(page_no)
                pinned.append(page_no)
                if node["t"] == LEAF:
                    i = bisect_left(node["k"], rowid)
                    if i < len(node["k"]) and node["k"][i] == rowid:
                        return node["r"][i]
                    return None
                page_no = node["c"][bisect_right(node["k"], rowid)]
        finally:
            for page in pinned:
                pool.unpin(page)

    def contains(self, rowid):
        return self.get(rowid) is not None

    def items(self):
        """Yield ``(rowid, row)`` in rowid order by walking the leaf
        chain.  Each leaf is pinned only while being yielded from, so
        long scans hold one pin at a time."""
        if self.root is None:
            return
        pool = self._pool
        page_no = self.root
        # descend to the leftmost leaf
        while True:
            node = pool.fetch(page_no)
            if node["t"] == LEAF:
                break
            page_no = node["c"][0]
        while page_no:
            node = pool.fetch(page_no)
            pool.pin(page_no)
            try:
                for rowid, row in zip(list(node["k"]), list(node["r"])):
                    yield rowid, row
                next_no = node["n"]
            finally:
                pool.unpin(page_no)
            page_no = next_no

    def pages(self):
        """Every page number reachable from the root (BFS) — the
        scrubber's scan set for this tree.  A page that fails its
        checksum is still *listed* (the scrubber must see it to repair
        it) but not descended into — a corrupt interior's subtree is
        unreachable until a repair rebuilds the tree anyway."""
        if self.root is None:
            return []
        pool = self._pool
        seen = []
        queue = [self.root]
        while queue:
            page_no = queue.pop(0)
            seen.append(page_no)
            try:
                node = pool.fetch(page_no)
            except PagerError:
                continue
            if node["t"] == INTERIOR:
                queue.extend(node["c"])
        return seen

    # -- writes ------------------------------------------------------------

    def put(self, rowid, row):
        """Insert or replace *rowid*'s row."""
        pool = self._pool
        if self.root is None:
            leaf = _new_leaf()
            leaf["k"].append(rowid)
            leaf["r"].append(row)
            if not self._fits(leaf):
                raise PagerError(
                    "row of %d bytes exceeds the page payload budget (%d)"
                    % (len(encode_node(leaf)), self._budget())
                )
            self.root = pool.new_page(leaf)
            return
        path = []       # [(page_no, child_index)] interior crumbs
        page_no = self.root
        pinned = []
        try:
            while True:
                node = pool.fetch(page_no)
                pool.pin(page_no)
                pinned.append(page_no)
                if node["t"] == LEAF:
                    break
                child_index = bisect_right(node["k"], rowid)
                path.append((page_no, child_index))
                page_no = node["c"][child_index]
            i = bisect_left(node["k"], rowid)
            if i < len(node["k"]) and node["k"][i] == rowid:
                node["r"][i] = row
            else:
                node["k"].insert(i, rowid)
                node["r"].insert(i, row)
            pool.mark_dirty(page_no)
            if not self._fits(node):
                self._split(page_no, node, path)
        finally:
            for page in pinned:
                pool.unpin(page)

    def _split(self, page_no, node, path):
        pool = self._pool
        if node["t"] == LEAF:
            if len(node["k"]) < 2:
                raise PagerError(
                    "row of %d bytes exceeds the page payload budget (%d)"
                    % (len(encode_node(node)), self._budget())
                )
            mid = len(node["k"]) // 2
            right = {"t": LEAF, "k": node["k"][mid:], "r": node["r"][mid:],
                     "n": node["n"]}
            node["k"] = node["k"][:mid]
            node["r"] = node["r"][:mid]
            # route keys < right's first key left, >= it right: descent
            # uses bisect_right, which sends a key equal to the
            # separator into the right child — so the separator must be
            # the right leaf's first key, never the left leaf's last
            separator = right["k"][0]
            right_no = pool.new_page(right)
            pool.pin(right_no)
            try:
                node["n"] = right_no
                pool.mark_dirty(page_no)
                self._insert_into_parent(page_no, separator, right_no, path)
            finally:
                pool.unpin(right_no)
        else:
            mid = len(node["k"]) // 2
            separator = node["k"][mid]
            right = {"t": INTERIOR, "k": node["k"][mid + 1:],
                     "c": node["c"][mid + 1:]}
            node["k"] = node["k"][:mid]
            node["c"] = node["c"][:mid + 1]
            right_no = pool.new_page(right)
            pool.pin(right_no)
            try:
                pool.mark_dirty(page_no)
                self._insert_into_parent(page_no, separator, right_no, path)
            finally:
                pool.unpin(right_no)

    def _insert_into_parent(self, left_no, separator, right_no, path):
        pool = self._pool
        if not path:
            root = {"t": INTERIOR, "k": [separator], "c": [left_no, right_no]}
            self.root = pool.new_page(root)
            return
        parent_no, child_index = path.pop()
        parent = pool.fetch(parent_no)
        parent["k"].insert(child_index, separator)
        parent["c"].insert(child_index + 1, right_no)
        pool.mark_dirty(parent_no)
        if not self._fits(parent):
            self._split(parent_no, parent, path)

    def delete(self, rowid):
        """Remove *rowid* if present (lazy: leaves are never merged).
        Returns True when a row was removed."""
        if self.root is None:
            return False
        pool = self._pool
        page_no = self.root
        pinned = []
        try:
            while True:
                node = pool.fetch(page_no)
                pool.pin(page_no)
                pinned.append(page_no)
                if node["t"] == LEAF:
                    i = bisect_left(node["k"], rowid)
                    if i < len(node["k"]) and node["k"][i] == rowid:
                        del node["k"][i]
                        del node["r"][i]
                        pool.mark_dirty(page_no)
                        return True
                    return False
                page_no = node["c"][bisect_right(node["k"], rowid)]
        finally:
            for page in pinned:
                pool.unpin(page)

    def update_rows(self, mutator):
        """Apply *mutator(row)* to every stored row in place (ALTER
        TABLE fill/strip), dirtying each touched leaf."""
        if self.root is None:
            return
        pool = self._pool
        page_no = self.root
        while True:
            node = pool.fetch(page_no)
            if node["t"] == LEAF:
                break
            page_no = node["c"][0]
        while page_no:
            node = pool.fetch(page_no)
            pool.pin(page_no)
            try:
                for row in node["r"]:
                    mutator(row)
                if node["r"]:
                    pool.mark_dirty(page_no)
                next_no = node["n"]
            finally:
                pool.unpin(page_no)
            page_no = next_no

    def clear(self):
        """Free every page of the tree.  Idempotent: a cleared tree has
        ``root is None`` and clearing it again is a no-op (this is what
        makes DROP-then-rollback safe from double-frees)."""
        if self.root is None:
            return
        for page_no in self.pages():
            self.store.free_page(page_no)
        self.root = None
