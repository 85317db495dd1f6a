"""The MySQL-style *item stack*.

After parsing and validating a query, MySQL holds the query's elements in a
stack of ``Item`` objects; SEPTIC reads that stack to build the query
structure (QS).  Each node is either

* an **element** node ``<ELEM_TYPE, ELEM_DATA>`` — structural information
  (fields, functions, operators, tables, clause markers), or
* a **data** node ``<DATA_TYPE, DATA>`` — a literal that (possibly) carries
  user input.

The distinction drives query-model construction: QM = QS with every data
node's DATA replaced by ⊥ (see :mod:`repro.core.query_model`).
"""


class ItemKind(object):
    """Item kind tags, mirroring the paper's Figure 2 vocabulary."""

    # -- element kinds (structure) --------------------------------------
    FROM_TABLE = "FROM_TABLE"
    SELECT_FIELD = "SELECT_FIELD"
    FIELD_ITEM = "FIELD_ITEM"
    FUNC_ITEM = "FUNC_ITEM"
    COND_ITEM = "COND_ITEM"
    JOIN_ITEM = "JOIN_ITEM"
    ORDER_ITEM = "ORDER_ITEM"
    GROUP_ITEM = "GROUP_ITEM"
    HAVING_ITEM = "HAVING_ITEM"
    LIMIT_ITEM = "LIMIT_ITEM"
    UNION_ITEM = "UNION_ITEM"
    SUBSELECT_ITEM = "SUBSELECT_ITEM"
    CASE_ITEM = "CASE_ITEM"
    INSERT_TABLE = "INSERT_TABLE"
    REPLACE_TABLE = "REPLACE_TABLE"
    INSERT_FIELD = "INSERT_FIELD"
    ROW_ITEM = "ROW_ITEM"
    UPDATE_TABLE = "UPDATE_TABLE"
    UPDATE_FIELD = "UPDATE_FIELD"
    DELETE_TABLE = "DELETE_TABLE"

    # -- data kinds (literals, i.e. potential user input) ----------------
    INT_ITEM = "INT_ITEM"
    REAL_ITEM = "REAL_ITEM"
    DECIMAL_ITEM = "DECIMAL_ITEM"
    STRING_ITEM = "STRING_ITEM"
    NULL_ITEM = "NULL_ITEM"
    PARAM_ITEM = "PARAM_ITEM"


#: Kinds whose payload is data (abstracted to ⊥ in the query model).
DATA_KINDS = frozenset(
    [
        ItemKind.INT_ITEM,
        ItemKind.REAL_ITEM,
        ItemKind.DECIMAL_ITEM,
        ItemKind.STRING_ITEM,
        ItemKind.NULL_ITEM,
        ItemKind.PARAM_ITEM,
    ]
)


class Slot(object):
    """The value of a data item whose literal is supplied per execution.

    A pipeline-cache entry's stack is validated once for every text of
    its shape; its data items hold a ``Slot`` where the text's literal
    goes, and whoever reads values (SEPTIC, building its QS) takes them
    from the execution's values vector through :meth:`bound`.
    """

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def __repr__(self):
        return "?%d" % self.index

    def bound(self, values):
        """The item's value under the execution's *values*."""
        value = values[self.index]
        if value.__class__ is bool:
            return 1 if value else 0    # MySQL: TRUE/FALSE are Item_int
        return value


class Item(object):
    """One node of the item stack.

    ``kind``
        One of the :class:`ItemKind` tags.
    ``value``
        The element data (field name, function name, …) for element nodes;
        the literal value for data nodes.
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        self.kind = kind
        self.value = value

    @property
    def is_data(self):
        return self.kind in DATA_KINDS

    def __eq__(self, other):
        return (
            isinstance(other, Item)
            and self.kind == other.kind
            and self.value == other.value
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self.kind, self.value))

    def __repr__(self):
        return "<%s, %s>" % (self.kind, self.value)
