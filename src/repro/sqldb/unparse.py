"""AST → SQL text (the inverse of the parser).

Used for diagnostics (render the statement SEPTIC actually inspected)
and by the test suite's strongest parser property:
``parse(unparse(parse(sql))) == parse(sql)``.

The output is canonical-form SQL: upper-case keywords, explicit
parentheses where precedence could be ambiguous, backslash-escaped
string literals.
"""

from repro.sqldb import ast_nodes as ast
from repro.sqldb.charset import escape_string
from repro.sqldb.prepared import literal_for


def to_sql(node, params=None):
    """Render a statement or expression node as SQL text.

    With *params* (an execution's values vector), each ``Param`` slot
    renders as the literal it is bound to — the text a statement with
    those literals written in would canonicalize to.
    """
    renderer = _RENDERERS.get(type(node))
    if renderer is None:
        raise TypeError("cannot unparse %r" % type(node).__name__)
    return renderer(node, params)


# -- literals & simple expressions -------------------------------------------

def _literal(node, params):
    if node.type_tag == "null":
        return "NULL"
    if node.type_tag == "bool":
        return "TRUE" if node.value else "FALSE"
    if node.type_tag == "string":
        return "'%s'" % escape_string(node.value)
    if node.type_tag == "float":
        return repr(float(node.value))
    return str(node.value)


def _column(node, params):
    if node.table:
        return "%s.%s" % (node.table, node.name)
    return node.name


def _star(node, params):
    return "%s.*" % node.table if node.table else "*"


def _func(node, params):
    inner = ", ".join(to_sql(arg, params) for arg in node.args)
    if node.distinct:
        inner = "DISTINCT " + inner
    return "%s(%s)" % (node.label, inner)


def _unary(node, params):
    return "%s(%s)" % (node.label, to_sql(node.operand, params))


def _binary(node, params):
    return "(%s %s %s)" % (to_sql(node.left, params), node.label,
                           to_sql(node.right, params))


def _cond(node, params):
    joiner = " %s " % node.label
    return "(%s)" % joiner.join(to_sql(op, params) for op in node.operands)


def _not(node, params):
    return "(%s %s)" % (node.label, to_sql(node.operand, params))


def _in_list(node, params):
    if isinstance(node.items, ast.Subquery):
        inner = to_sql(node.items.select, params)
    else:
        inner = ", ".join(to_sql(item, params) for item in node.items)
    return "(%s %s (%s))" % (to_sql(node.expr, params), node.label, inner)


def _between(node, params):
    return "(%s %s %s AND %s)" % (
        to_sql(node.expr, params), node.label, to_sql(node.low, params),
        to_sql(node.high, params)
    )


def _is_null(node, params):
    return "(%s %s)" % (to_sql(node.expr, params), node.label)


def _like(node, params):
    return "(%s %s %s)" % (to_sql(node.expr, params), node.label,
                           to_sql(node.pattern, params))


def _case(node, params):
    parts = ["CASE"]
    if node.operand is not None:
        parts.append(to_sql(node.operand, params))
    for cond, result in node.whens:
        parts.append("WHEN %s THEN %s" % (to_sql(cond, params),
                                          to_sql(result, params)))
    if node.default is not None:
        parts.append("ELSE %s" % to_sql(node.default, params))
    parts.append("END")
    return " ".join(parts)


def _cast(node, params):
    return "CAST(%s AS %s)" % (to_sql(node.expr, params), node.type_name)


def _subquery(node, params):
    return "(%s)" % to_sql(node.select, params)


def _exists(node, params):
    return "%s (%s)" % (node.label, to_sql(node.select, params))


def _param(node, params):
    if params is None or node.index is None or node.index >= len(params):
        return "?"
    return _literal(literal_for(params[node.index]), params)


# -- statement pieces ----------------------------------------------------------

def _list(nodes, params):
    return ", ".join(to_sql(node, params) for node in nodes)


def _select_field(node, params):
    text = to_sql(node.expr, params)
    return "%s AS %s" % (text, node.alias) if node.alias else text


def _table_ref(node, params):
    return "%s AS %s" % (node.name, node.alias) if node.alias else node.name


def _derived_table(node, params):
    return "(%s) AS %s" % (to_sql(node.select, params), node.alias)


def _join(node, params):
    text = "%s JOIN %s" % (node.kind, to_sql(node.table, params))
    if node.on is not None:
        text += " ON %s" % to_sql(node.on, params)
    return text


def _order_item(node, params):
    return "%s %s" % (to_sql(node.expr, params), node.direction)


def _limit(node, params):
    text = "LIMIT %s" % to_sql(node.count, params)
    if node.offset is not None:
        text += " OFFSET %s" % to_sql(node.offset, params)
    return text


def _where(node, params):
    if node.where is None:
        return ""
    return " WHERE %s" % to_sql(node.where, params)


def _order_limit(node, params):
    text = ""
    if node.order_by:
        text = " ORDER BY " + _list(node.order_by, params)
    if node.limit is not None:
        text += " " + _limit(node.limit, params)
    return text


def _assignments(pairs, params):
    return ", ".join("%s = %s" % (column, to_sql(expr, params))
                     for column, expr in pairs)


def _select(node, params):
    parts = ["SELECT ", "DISTINCT " if node.distinct else "",
             _list(node.fields, params)]
    if node.tables:
        parts.append(" FROM " + _list(node.tables, params))
    for join in node.joins:
        parts.append(" " + _join(join, params))
    parts.append(_where(node, params))
    if node.group_by:
        parts.append(" GROUP BY " + _list(node.group_by, params))
        if node.having is not None:
            parts.append(" HAVING %s" % to_sql(node.having, params))
    parts.append(_order_limit(node, params))
    for all_flag, branch in node.unions:
        text = to_sql(branch, params)
        if branch.order_by or branch.limit is not None or branch.unions:
            # the branch's own clauses: bare, a re-parse would give a
            # trailing ORDER BY / LIMIT to the whole union
            text = "(%s)" % text
        parts.append(" UNION %s%s" % ("ALL " if all_flag else "", text))
    return "".join(parts)


def _insert(node, params):
    verb = "REPLACE" if node.replace else "INSERT"
    if node.ignore:
        verb += " IGNORE"
    columns = " (%s)" % ", ".join(node.columns) if node.columns else ""
    rows = ", ".join("(%s)" % _list(row, params) for row in node.rows)
    text = "%s INTO %s%s VALUES %s" % (verb, node.table, columns, rows)
    if node.on_duplicate:
        text += " ON DUPLICATE KEY UPDATE " + _assignments(
            node.on_duplicate, params)
    return text


def _update(node, params):
    return "UPDATE %s SET %s%s%s" % (
        node.table, _assignments(node.assignments, params),
        _where(node, params), _order_limit(node, params))


def _delete(node, params):
    return "DELETE FROM %s%s%s" % (node.table, _where(node, params),
                                   _order_limit(node, params))


# -- DDL ----------------------------------------------------------------------
#
# Needed beyond diagnostics: the write-ahead log records statements as
# canonical SQL text, and multi-statement scripts must re-serialize each
# DDL statement individually for replay.

def _column_def(cdef, params):
    text = "%s %s" % (cdef.name, cdef.type_name)
    if cdef.length is not None:
        text += "(%d)" % cdef.length
    if cdef.not_null:
        text += " NOT NULL"
    if cdef.default is not None:
        text += " DEFAULT %s" % to_sql(cdef.default, params)
    if cdef.auto_increment:
        text += " AUTO_INCREMENT"
    if cdef.primary_key:
        text += " PRIMARY KEY"
    if cdef.unique:
        text += " UNIQUE"
    return text


def _create_table(node, params):
    return "CREATE TABLE %s%s (%s)" % (
        "IF NOT EXISTS " if node.if_not_exists else "", node.name,
        _list(node.columns, params))


def _drop_table(node, params):
    return "DROP TABLE %s%s" % (
        "IF EXISTS " if node.if_exists else "", node.name
    )


def _create_index(node, params):
    return "CREATE INDEX %s ON %s (%s)" % (node.name, node.table,
                                           node.column)


def _alter_add_column(node, params):
    return "ALTER TABLE %s ADD COLUMN %s" % (
        node.table, _column_def(node.column_def, params)
    )


_RENDERERS = {
    ast.Literal: _literal,
    ast.Param: _param,
    ast.ColumnRef: _column,
    ast.Star: _star,
    ast.FuncCall: _func,
    ast.UnaryOp: _unary,
    ast.BinaryOp: _binary,
    ast.Cond: _cond,
    ast.Not: _not,
    ast.InList: _in_list,
    ast.Between: _between,
    ast.IsNull: _is_null,
    ast.Like: _like,
    ast.Case: _case,
    ast.Cast: _cast,
    ast.Subquery: _subquery,
    ast.Exists: _exists,
    ast.SelectField: _select_field,
    ast.TableRef: _table_ref,
    ast.DerivedTable: _derived_table,
    ast.Join: _join,
    ast.OrderItem: _order_item,
    ast.Limit: _limit,
    ast.Select: _select,
    ast.Insert: _insert,
    ast.Update: _update,
    ast.Delete: _delete,
    ast.ColumnDef: _column_def,
    ast.CreateTable: _create_table,
    ast.DropTable: _drop_table,
    ast.CreateIndex: _create_index,
    ast.DropIndex: lambda node, params: "DROP INDEX %s ON %s" % (
        node.name, node.table),
    ast.AlterTableAddColumn: _alter_add_column,
    ast.AlterTableDropColumn: lambda node, params:
        "ALTER TABLE %s DROP COLUMN %s" % (node.table, node.column),
    ast.TruncateTable: lambda node, params: "TRUNCATE TABLE " + node.table,
    ast.Begin: lambda node, params: "BEGIN",
    ast.Commit: lambda node, params: "COMMIT",
    ast.Rollback: lambda node, params: "ROLLBACK",
    ast.Explain: lambda node, params: "EXPLAIN " + to_sql(node.select,
                                                          params),
    ast.ShowTables: lambda node, params: "SHOW TABLES",
    ast.Describe: lambda node, params: "DESCRIBE " + node.table,
}
