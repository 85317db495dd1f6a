"""Query structure (QS) — SEPTIC's view of one validated query.

MySQL keeps the validated query's elements in a stack; the QS&QM manager
copies that stack into its own structure whose nodes have the form
``<ELEM_TYPE, ELEM_DATA>`` or ``<DATA_TYPE, DATA>`` (paper §II-C1,
Figure 2a).
"""

from repro.sqldb.items import DATA_KINDS, Item, Slot


class QueryStructure(object):
    """An ordered sequence of item nodes (bottom of stack first)."""

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        self.nodes = list(nodes)

    @classmethod
    def from_stack(cls, stack, values=()):
        """Copy the DBMS's validated item stack (paper: SEPTIC "receives
        this structure and creates another stack with that data").  The
        stack of a shared statement holds slots where its data goes;
        *values* is what this execution put there."""
        return cls(
            Item(item.kind, item.value.bound(values)
                 if item.value.__class__ is Slot else item.value)
            for item in stack
        )

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, index):
        return self.nodes[index]

    def __eq__(self, other):
        return isinstance(other, QueryStructure) and self.nodes == other.nodes

    def __hash__(self):
        return hash(tuple(self.nodes))

    def data_nodes(self):
        """The ``<DATA_TYPE, DATA>`` nodes — where user input can live."""
        return [node for node in self.nodes if node.kind in DATA_KINDS]

    def command(self):
        """The statement kind implied by the bottom-most marker node."""
        if not self.nodes:
            return "UNKNOWN"
        kind = self.nodes[0].kind
        return {
            "FROM_TABLE": "SELECT",
            "SELECT_FIELD": "SELECT",
            "SUBSELECT_ITEM": "SELECT",
            "INSERT_TABLE": "INSERT",
            "REPLACE_TABLE": "INSERT",   # REPLACE INTO writes like INSERT
            "UPDATE_TABLE": "UPDATE",
            "DELETE_TABLE": "DELETE",
        }.get(kind, "SELECT")

    def tables(self):
        """Names of tables referenced by table-marker nodes, in order."""
        table_kinds = ("FROM_TABLE", "INSERT_TABLE", "REPLACE_TABLE",
                       "UPDATE_TABLE", "DELETE_TABLE")
        return [n.value for n in self.nodes if n.kind in table_kinds]

    def render(self):
        """Multi-line textual rendering, top of stack first (the layout of
        the paper's figures)."""
        lines = []
        for node in reversed(self.nodes):
            lines.append("%-14s %s" % (node.kind, node.value))
        return "\n".join(lines)

    def __repr__(self):
        return "QueryStructure(%d nodes)" % len(self.nodes)
