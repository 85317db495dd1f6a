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
    return "%s(%s)" % (node.name, inner)


def _unary(node, params):
    return "%s(%s)" % (node.op, to_sql(node.operand, params))


def _binary(node, params):
    return "(%s %s %s)" % (to_sql(node.left, params), node.op,
                           to_sql(node.right, params))


def _cond(node, params):
    joiner = " %s " % node.op
    return "(%s)" % joiner.join(to_sql(op, params) for op in node.operands)


def _not(node, params):
    return "(NOT %s)" % to_sql(node.operand, params)


def _in_list(node, params):
    if isinstance(node.items, ast.Subquery):
        inner = to_sql(node.items.select, params)
    else:
        inner = ", ".join(to_sql(item, params) for item in node.items)
    keyword = "NOT IN" if node.negated else "IN"
    return "(%s %s (%s))" % (to_sql(node.expr, params), keyword, inner)


def _between(node, params):
    keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
    return "(%s %s %s AND %s)" % (
        to_sql(node.expr, params), keyword, to_sql(node.low, params),
        to_sql(node.high, params)
    )


def _is_null(node, params):
    keyword = "IS NOT NULL" if node.negated else "IS NULL"
    return "(%s %s)" % (to_sql(node.expr, params), keyword)


def _like(node, params):
    keyword = node.op if not node.negated else "NOT " + node.op
    return "(%s %s %s)" % (to_sql(node.expr, params), keyword,
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
    keyword = "NOT EXISTS" if node.negated else "EXISTS"
    return "%s (%s)" % (keyword, to_sql(node.select, params))


def _param(node, params):
    if params is None or node.index is None or node.index >= len(params):
        return "?"
    from repro.sqldb.prepared import literal_for

    return _literal(literal_for(params[node.index]), params)


# -- statement pieces ----------------------------------------------------------

def _table_source(ref, params):
    if isinstance(ref, ast.DerivedTable):
        return "(%s) AS %s" % (to_sql(ref.select, params), ref.alias)
    if ref.alias:
        return "%s AS %s" % (ref.name, ref.alias)
    return ref.name


def _order_clause(order_by, params):
    if not order_by:
        return ""
    items = ", ".join(
        "%s %s" % (to_sql(item.expr, params), item.direction)
        for item in order_by
    )
    return " ORDER BY " + items


def _limit_clause(limit, params):
    if limit is None:
        return ""
    if limit.offset is not None:
        return " LIMIT %s OFFSET %s" % (
            to_sql(limit.count, params), to_sql(limit.offset, params)
        )
    return " LIMIT %s" % to_sql(limit.count, params)


def _select(node, params):
    fields = ", ".join(
        to_sql(field.expr, params)
        + (" AS %s" % field.alias if field.alias else "")
        for field in node.fields
    )
    parts = ["SELECT "]
    if node.distinct:
        parts.append("DISTINCT ")
    parts.append(fields)
    if node.tables:
        parts.append(" FROM ")
        parts.append(", ".join(_table_source(t, params)
                               for t in node.tables))
    for join in node.joins:
        parts.append(" %s JOIN %s" % (join.kind,
                                      _table_source(join.table, params)))
        if join.on is not None:
            parts.append(" ON %s" % to_sql(join.on, params))
    if node.where is not None:
        parts.append(" WHERE %s" % to_sql(node.where, params))
    if node.group_by:
        parts.append(" GROUP BY " +
                     ", ".join(to_sql(g, params) for g in node.group_by))
        if node.having is not None:
            parts.append(" HAVING %s" % to_sql(node.having, params))
    parts.append(_order_clause(node.order_by, params))
    parts.append(_limit_clause(node.limit, params))
    text = "".join(parts)
    for all_flag, branch in node.unions:
        text += " UNION %s%s" % ("ALL " if all_flag else "",
                                 to_sql(branch, params))
    return text


def _insert(node, params):
    verb = "REPLACE" if node.replace else "INSERT"
    if node.ignore:
        verb += " IGNORE"
    columns = ""
    if node.columns:
        columns = " (%s)" % ", ".join(node.columns)
    rows = ", ".join(
        "(%s)" % ", ".join(to_sql(expr, params) for expr in row)
        for row in node.rows
    )
    text = "%s INTO %s%s VALUES %s" % (verb, node.table, columns, rows)
    if node.on_duplicate:
        text += " ON DUPLICATE KEY UPDATE " + ", ".join(
            "%s = %s" % (col, to_sql(expr, params))
            for col, expr in node.on_duplicate
        )
    return text


def _update(node, params):
    text = "UPDATE %s SET %s" % (
        node.table,
        ", ".join("%s = %s" % (col, to_sql(expr, params))
                  for col, expr in node.assignments),
    )
    if node.where is not None:
        text += " WHERE %s" % to_sql(node.where, params)
    text += _order_clause(node.order_by, params)
    text += _limit_clause(node.limit, params)
    return text


def _delete(node, params):
    text = "DELETE FROM %s" % node.table
    if node.where is not None:
        text += " WHERE %s" % to_sql(node.where, params)
    text += _order_clause(node.order_by, params)
    text += _limit_clause(node.limit, params)
    return text


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
        "IF NOT EXISTS " if node.if_not_exists else "",
        node.name,
        ", ".join(_column_def(c, params) for c in node.columns),
    )


def _drop_table(node, params):
    return "DROP TABLE %s%s" % (
        "IF EXISTS " if node.if_exists else "", node.name
    )


def _create_index(node, params):
    return "CREATE INDEX %s ON %s (%s)" % (node.name, node.table,
                                           node.column)


def _drop_index(node, params):
    return "DROP INDEX %s ON %s" % (node.name, node.table)


def _alter_add_column(node, params):
    return "ALTER TABLE %s ADD COLUMN %s" % (
        node.table, _column_def(node.column_def, params)
    )


def _alter_drop_column(node, params):
    return "ALTER TABLE %s DROP COLUMN %s" % (node.table, node.column)


def _truncate_table(node, params):
    return "TRUNCATE TABLE %s" % node.table


def _begin(node, params):
    return "BEGIN"


def _commit(node, params):
    return "COMMIT"


def _rollback(node, params):
    return "ROLLBACK"


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
    ast.Select: _select,
    ast.Insert: _insert,
    ast.Update: _update,
    ast.Delete: _delete,
    ast.CreateTable: _create_table,
    ast.DropTable: _drop_table,
    ast.CreateIndex: _create_index,
    ast.DropIndex: _drop_index,
    ast.AlterTableAddColumn: _alter_add_column,
    ast.AlterTableDropColumn: _alter_drop_column,
    ast.TruncateTable: _truncate_table,
    ast.Begin: _begin,
    ast.Commit: _commit,
    ast.Rollback: _rollback,
}
