"""Semantic validation and item-stack construction.

``validate(statement, catalog)`` checks table and column references against
the catalog (raising :class:`repro.sqldb.errors.ValidationError` on unknown
names, like MySQL's error 1054) and flattens the statement into the item
stack described in :mod:`repro.sqldb.items`.

Stack layout (bottom → top), matching the paper's Figure 2:

* SELECT:  ``FROM_TABLE`` per table, ``JOIN_ITEM`` + join table + ON
  condition per join, select fields, WHERE condition in postfix order,
  GROUP/HAVING/ORDER/LIMIT markers, UNION branches.
* Expressions are emitted in **postorder** (operands before operator), so
  ``reservID = 'ID34FG' AND creditCard = 1234`` becomes::

      FIELD_ITEM reservID / STRING_ITEM ID34FG / FUNC_ITEM = /
      FIELD_ITEM creditCard / INT_ITEM 1234 / FUNC_ITEM = / COND_ITEM AND
"""

from repro.sqldb import ast_nodes as ast
from repro.sqldb.errors import ValidationError
from repro.sqldb.items import Item, ItemKind, Slot

#: literal type tag -> the DATA item kind MySQL gives such a literal
#: (TRUE/FALSE are ``Item_int`` 1/0)
_DATA_KINDS = {
    "int": ItemKind.INT_ITEM,
    "float": ItemKind.REAL_ITEM,
    "string": ItemKind.STRING_ITEM,
    "null": ItemKind.NULL_ITEM,
    "bool": ItemKind.INT_ITEM,
}


def validate(statement, catalog=None, slot_tags=()):
    """Validate *statement* and return its item stack (a list, bottom→top).

    *catalog* is a mapping ``table_name -> Table`` (or ``None`` to skip
    name resolution — used by unit tests that only care about the stack
    shape).  *slot_tags* gives the literal type tag of each value slot
    (``Param`` node) of the statement: a slot validates to the data item
    a literal of that type would, holding a
    :class:`~repro.sqldb.items.Slot` in place of the value; a ``?``
    without a tag is an unbound placeholder.
    """
    builder = _StackBuilder(catalog, slot_tags)
    return builder.build(statement)


class _StackBuilder(object):
    def __init__(self, catalog, slot_tags=()):
        self._catalog = catalog
        self._slot_tags = slot_tags
        self._stack = []
        #: tables in scope, innermost query last; each entry is a dict
        #: alias -> table_name
        self._scopes = []
        #: select-list aliases in scope (ORDER BY / HAVING may name them)
        self._alias_scopes = []

    # -- public ----------------------------------------------------------

    def build(self, statement):
        build = _STATEMENTS.get(type(statement))
        if build is not None:
            build(self, statement)
        elif not isinstance(statement, _NO_USER_DATA):
            raise ValidationError(
                "cannot validate statement %r" % type(statement).__name__
            )
        return self._stack

    # -- helpers -----------------------------------------------------------

    def _push(self, kind, value):
        self._stack.append(Item(kind, value))

    def _check_table(self, name):
        if self._catalog is not None and name.lower() not in self._catalog:
            raise ValidationError("Table '%s' doesn't exist" % name)
        return name.lower()

    def _check_column(self, name, table=None):
        """Resolve a column against the tables in scope."""
        if self._catalog is None or not self._scopes:
            return name.lower()
        scope = self._scopes[-1]
        lname = name.lower()
        if table is None and self._alias_scopes and \
                lname in self._alias_scopes[-1]:
            return lname
        if table is not None:
            tkey = table.lower()
            found = None
            for candidate in [scope] + list(reversed(self._scopes[:-1])):
                if tkey in candidate:
                    found = candidate
                    break
            if found is None:
                raise ValidationError("Unknown table '%s'" % table)
            real = found[tkey]
            if real is None:  # derived table: columns unchecked
                return lname
            if not self._catalog[real].has_column(lname):
                raise ValidationError(
                    "Unknown column '%s.%s' in 'field list'" % (table, name)
                )
            return lname
        for real in scope.values():
            if real is None or self._catalog[real].has_column(lname):
                return lname
        # allow resolution against any outer scope (correlated subqueries)
        for outer in reversed(self._scopes[:-1]):
            for real in outer.values():
                if real is None or self._catalog[real].has_column(lname):
                    return lname
        raise ValidationError("Unknown column '%s' in 'field list'" % name)

    # -- statements ----------------------------------------------------------

    def _open_scope(self, tables, joins):
        scope = {}
        for ref in tables:
            self._scope_add(scope, ref)
        for join in joins:
            self._scope_add(scope, join.table)
        self._scopes.append(scope)

    def _scope_add(self, scope, ref):
        if isinstance(ref, ast.DerivedTable):
            # a derived table's columns come from its select list; we
            # mark the alias as an unchecked scope entry (None)
            scope[ref.alias.lower()] = None
        else:
            scope[(ref.alias or ref.name).lower()] = \
                self._check_table(ref.name)

    def _select(self, stmt):
        self._open_scope(stmt.tables, stmt.joins)
        self._alias_scopes.append(
            {f.alias.lower() for f in stmt.fields if f.alias}
        )
        for ref in stmt.tables:
            self._table_source(ref)
        for join in stmt.joins:
            self._push(ItemKind.JOIN_ITEM, join.kind)
            self._table_source(join.table)
            if join.on is not None:
                self._expr(join.on)
        for field in stmt.fields:
            self._expr(field.expr)
        if stmt.where is not None:
            self._expr(stmt.where)
        for expr in stmt.group_by:
            self._push(ItemKind.GROUP_ITEM, "GROUP")
            self._expr(expr)
        if stmt.having is not None:
            self._push(ItemKind.HAVING_ITEM, "HAVING")
            self._expr(stmt.having)
        self._order_limit(stmt)
        # (a failed validation discards the builder: no try/finally)
        self._scopes.pop()
        self._alias_scopes.pop()
        for all_flag, branch in stmt.unions:
            self._push(ItemKind.UNION_ITEM, "ALL" if all_flag else "DISTINCT")
            self._select(branch)

    def _table_source(self, ref):
        if isinstance(ref, ast.DerivedTable):
            self._subselect(ref.select)
            self._push(ItemKind.FROM_TABLE, ref.alias.lower())
        else:
            self._push(ItemKind.FROM_TABLE, ref.name.lower())

    def _subselect(self, select):
        self._push(ItemKind.SUBSELECT_ITEM, "BEGIN")
        self._select(select)
        self._push(ItemKind.SUBSELECT_ITEM, "END")

    def _order_limit(self, stmt):
        for order in stmt.order_by:
            self._push(ItemKind.ORDER_ITEM, order.direction)
            self._expr(order.expr)
        if stmt.limit is not None:
            self._push(ItemKind.LIMIT_ITEM, "LIMIT")
            for expr in ast.children(stmt.limit):
                self._expr(expr)

    def _target(self, kind, name):
        """Push a DML statement's target table and scope it (for the
        rest of the build: the statement is the whole build)."""
        table = self._check_table(name)
        self._push(kind, table)
        self._scopes.append({table: table})
        return table

    def _assignments(self, assignments, table):
        for col, expr in assignments:
            self._push(ItemKind.UPDATE_FIELD, self._check_column(col, table))
            self._expr(expr)

    def _insert(self, stmt):
        table = self._target(ItemKind.REPLACE_TABLE if stmt.replace
                             else ItemKind.INSERT_TABLE, stmt.table)
        columns = stmt.columns
        if not columns and self._catalog is not None:
            columns = self._catalog[table].column_names()
        for col in columns:
            self._push(ItemKind.INSERT_FIELD, self._check_column(col, table))
        for row in stmt.rows:
            if columns and len(row) != len(columns):
                raise ValidationError("Column count doesn't match value count")
            self._push(ItemKind.ROW_ITEM, "ROW")
            for expr in row:
                self._expr(expr)
        self._assignments(stmt.on_duplicate, table)

    def _update(self, stmt):
        table = self._target(ItemKind.UPDATE_TABLE, stmt.table)
        self._assignments(stmt.assignments, table)
        self._where_order_limit(stmt)

    def _delete(self, stmt):
        self._target(ItemKind.DELETE_TABLE, stmt.table)
        self._where_order_limit(stmt)

    def _where_order_limit(self, stmt):
        if stmt.where is not None:
            self._expr(stmt.where)
        self._order_limit(stmt)

    # -- expressions (postorder) ----------------------------------------------

    def _expr(self, node):
        """Operands before operator: a node's children in field order,
        then its ``label`` — except for the kinds :data:`_EXPRESSIONS`
        builds by hand."""
        special = _EXPRESSIONS.get(node.__class__)
        if special is not None:
            special(self, node)
            return
        if not isinstance(node, ast.Expr):
            raise ValidationError(
                "cannot build items for %r" % type(node).__name__
            )
        for child in ast.children(node):
            self._expr(child)
        self._push(ItemKind.COND_ITEM if node.__class__ is ast.Cond
                   else ItemKind.FUNC_ITEM, node.label)

    def _literal(self, node):
        kind = _DATA_KINDS.get(node.type_tag)
        if kind is None:
            raise ValidationError("unknown literal tag %r" % node.type_tag)
        value = node.value
        if node.type_tag == "bool":
            value = 1 if value else 0
        elif node.type_tag == "null":
            value = None
        self._push(kind, value)

    def _param(self, node):
        index = node.index
        if index is not None and index < len(self._slot_tags):
            self._push(_DATA_KINDS[self._slot_tags[index]], Slot(index))
        else:
            self._push(ItemKind.PARAM_ITEM, "?")

    def _column(self, node):
        self._push(ItemKind.FIELD_ITEM,
                   self._check_column(node.name, node.table))

    def _star(self, node):
        self._push(ItemKind.SELECT_FIELD, "*")

    def _case(self, node):
        self._push(ItemKind.CASE_ITEM, "CASE")
        for child in ast.children(node):
            self._expr(child)
        self._push(ItemKind.CASE_ITEM, "END")

    def _subquery(self, node):
        self._subselect(node.select)

    def _exists(self, node):
        self._subselect(node.select)
        self._push(ItemKind.FUNC_ITEM, node.label)


_STATEMENTS = {
    ast.Select: _StackBuilder._select,
    ast.Insert: _StackBuilder._insert,
    ast.Update: _StackBuilder._update,
    ast.Delete: _StackBuilder._delete,
    # EXPLAIN validates (and models) like the underlying SELECT
    ast.Explain: lambda builder, stmt: builder._select(stmt.select),
}

#: DDL / metadata / transaction statements hold no user-data nodes:
#: SEPTIC does not model them, and their stack is empty
_NO_USER_DATA = (
    ast.CreateTable, ast.DropTable, ast.ShowTables, ast.Describe,
    ast.Begin, ast.Commit, ast.Rollback, ast.CreateIndex, ast.DropIndex,
    ast.AlterTableAddColumn, ast.AlterTableDropColumn, ast.TruncateTable,
)

_EXPRESSIONS = {
    ast.Literal: _StackBuilder._literal,
    ast.Param: _StackBuilder._param,
    ast.ColumnRef: _StackBuilder._column,
    ast.Star: _StackBuilder._star,
    ast.Case: _StackBuilder._case,
    ast.Subquery: _StackBuilder._subquery,
    ast.Exists: _StackBuilder._exists,
}
