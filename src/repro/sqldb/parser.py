"""Recursive-descent parser producing :mod:`repro.sqldb.ast_nodes` trees.

Grammar coverage (MySQL dialect subset): SELECT with joins, WHERE,
GROUP BY / HAVING, ORDER BY, LIMIT, UNION [ALL], subqueries; INSERT
(multi-row and ``SET`` form); UPDATE; DELETE; CREATE TABLE; DROP TABLE;
SHOW TABLES; DESCRIBE.  Multiple statements separated by ``;`` are parsed
into a list — whether the *connection* accepts more than one is decided
later (see :class:`repro.sqldb.connection.Connection`), which is exactly
how MySQL treats piggy-backed queries.
"""

from repro.sqldb import ast_nodes as ast
from repro.sqldb.errors import ParseError
from repro.sqldb.lexer import LITERALS, TokenType, tokenize

_COMPARISON_OPS = frozenset(["=", "<=>", "!=", "<>", "<", ">", "<=", ">="])
_JOIN_KEYWORDS = frozenset(["JOIN", "INNER", "LEFT", "RIGHT", "CROSS"])
_TYPE_KEYWORDS = frozenset(
    ["INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT", "VARCHAR", "TEXT",
     "CHAR", "DATETIME", "DATE", "FLOAT", "DOUBLE", "DECIMAL", "BOOLEAN",
     "BOOL"]
)


def parse_sql(sql, lexed=None, slots=False):
    """Parse *sql* (already charset-decoded) into a list of statements.

    Returns ``(statements, comments)``.  *lexed* is the text's
    :class:`~repro.sqldb.lexer.LexResult` when the caller already
    tokenized it; with *slots* (see :class:`Parser`) its ``slots``
    receives the token positions of the literals that became slots.
    """
    if lexed is None:
        lexed = tokenize(sql)
    parser = Parser(lexed.tokens, slots=slots)
    statements = parser.parse_statements()
    if slots:
        lexed.slots = tuple(parser.slots)
    return statements, lexed.comments


def parse_one(sql):
    """Parse exactly one statement; raise :class:`ParseError` otherwise."""
    statements, _ = parse_sql(sql)
    if len(statements) != 1:
        raise ParseError(
            "expected exactly one statement, got %d" % len(statements)
        )
    return statements[0]


class Parser(object):
    """Token-stream parser.  One instance parses one statement list.

    With *slots*, a data literal (INT/FLOAT/STRING/HEX token) becomes a
    ``Param`` slot and :attr:`slots` records its token position, so one
    AST serves every text that differs only in those literals.  Which
    literals become slots depends on grammar position alone, never on a
    literal's value.  The ones that stay ``Literal`` are those some
    later stage reads by value: LIMIT/OFFSET, anything under ORDER BY or
    GROUP BY (``ORDER BY 2`` is a column position), a select-list field
    that is nothing but a literal (it names its own column), and the
    lengths inside type names.  ``?`` placeholders are numbered in
    source order either way.
    """

    def __init__(self, tokens, slots=False):
        self._tokens = tokens
        self._pos = 0
        #: token positions of the literals turned into slots
        self.slots = []
        self._slotting = slots
        #: > 0 while parsing a clause whose literals stay literals
        self._pinned = 0
        #: ``?`` placeholders seen so far
        self._params = 0

    # -- token helpers --------------------------------------------------

    def _peek(self, ahead=0):
        idx = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self):
        tok = self._tokens[self._pos]
        if tok.type != TokenType.EOF:
            self._pos += 1
        return tok

    def _accept(self, type_, value=None):
        if self._peek().matches(type_, value):
            return self._advance()
        return None

    def _accept_kw(self, *words):
        tok = self._peek()
        if tok.type == TokenType.KEYWORD and tok.value in words:
            return self._advance()
        return None

    def _expect(self, type_, value=None):
        tok = self._peek()
        if not tok.matches(type_, value):
            raise ParseError(
                "expected %s %r, found %r near position %d"
                % (type_, value, tok.value, tok.pos)
            )
        return self._advance()

    def _expect_kw(self, word):
        tok = self._peek()
        if not tok.matches(TokenType.KEYWORD, word):
            raise ParseError(
                "expected %s, found %r near position %d"
                % (word, tok.value, tok.pos)
            )
        return self._advance()

    def _expect_ident(self):
        tok = self._peek()
        if tok.type == TokenType.IDENT:
            return self._advance().value
        # MySQL lets non-reserved keywords act as identifiers in a few
        # spots; we allow type keywords (e.g. a column named "date").
        if tok.type == TokenType.KEYWORD and tok.value in _TYPE_KEYWORDS:
            return self._advance().value.lower()
        raise ParseError(
            "expected identifier, found %r near position %d"
            % (tok.value, tok.pos)
        )

    def _parse_pinned_expr(self):
        """An expression whose literals stay ``Literal`` nodes."""
        self._pinned += 1
        try:
            return self._parse_expr()
        finally:
            self._pinned -= 1

    # -- statements -----------------------------------------------------

    def parse_statements(self):
        statements = []
        while True:
            while self._accept(TokenType.OP, ";"):
                pass
            if self._peek().type == TokenType.EOF:
                break
            statements.append(self._parse_statement())
            tok = self._peek()
            if tok.type == TokenType.EOF:
                break
            if not tok.matches(TokenType.OP, ";"):
                raise ParseError(
                    "unexpected %r after statement at position %d"
                    % (tok.value, tok.pos)
                )
        # comment-only/empty input parses to zero statements; callers
        # decide (mysql_query reports an empty OK result, parse_one
        # rejects it)
        return statements

    def _parse_statement(self):
        tok = self._peek()
        if tok.type != TokenType.KEYWORD and not tok.matches(TokenType.OP, "("):
            raise ParseError(
                "statement must start with a keyword, found %r" % tok.value
            )
        if tok.matches(TokenType.OP, "(") or tok.value == "SELECT":
            return self._parse_select()
        if tok.value in ("INSERT", "REPLACE"):
            return self._parse_insert()
        if tok.value == "UPDATE":
            return self._parse_update()
        if tok.value == "DELETE":
            return self._parse_delete()
        if tok.value == "CREATE":
            if self._peek(1).matches(TokenType.KEYWORD, "INDEX") or \
                    self._peek(1).matches(TokenType.KEYWORD, "UNIQUE"):
                return self._parse_create_index()
            return self._parse_create_table()
        if tok.value == "DROP":
            if self._peek(1).matches(TokenType.KEYWORD, "INDEX"):
                return self._parse_drop_index()
            return self._parse_drop_table()
        if tok.value == "ALTER":
            return self._parse_alter_table()
        if tok.value == "TRUNCATE":
            self._advance()
            self._accept_kw("TABLE")
            return ast.TruncateTable(self._expect_ident())
        if tok.value in ("BEGIN", "START"):
            self._advance()
            self._accept_kw("TRANSACTION")
            return ast.Begin()
        if tok.value == "COMMIT":
            self._advance()
            return ast.Commit()
        if tok.value == "ROLLBACK":
            self._advance()
            return ast.Rollback()
        if tok.value == "EXPLAIN":
            self._advance()
            return ast.Explain(self._parse_select())
        if tok.value == "SHOW":
            self._advance()
            self._expect_kw("TABLES")
            return ast.ShowTables()
        if tok.value == "DESCRIBE":
            self._advance()
            return ast.Describe(self._expect_ident())
        raise ParseError("unsupported statement %r" % tok.value)

    # -- SELECT ----------------------------------------------------------

    def _parse_select(self, allow_union=True):
        parenthesised = self._accept(TokenType.OP, "(")
        if parenthesised:
            select = self._parse_select()
            self._expect(TokenType.OP, ")")
        else:
            self._expect_kw("SELECT")
            distinct = bool(self._accept_kw("DISTINCT"))
            self._accept_kw("ALL")
            fields = [self._parse_select_field()]
            while self._accept(TokenType.OP, ","):
                fields.append(self._parse_select_field())
            tables, joins = [], []
            if self._accept_kw("FROM"):
                tables, joins = self._parse_from()
            where = self._parse_expr() if self._accept_kw("WHERE") else None
            group_by, having = [], None
            if self._accept_kw("GROUP"):
                self._expect_kw("BY")
                group_by.append(self._parse_pinned_expr())
                while self._accept(TokenType.OP, ","):
                    group_by.append(self._parse_pinned_expr())
                if self._accept_kw("HAVING"):
                    having = self._parse_expr()
            order_by = self._parse_order_by()
            limit = self._parse_limit()
            select = ast.Select(
                fields,
                tables=tables,
                joins=joins,
                where=where,
                group_by=group_by,
                having=having,
                order_by=order_by,
                limit=limit,
                distinct=distinct,
            )
        if allow_union and self._peek().matches(TokenType.KEYWORD, "UNION"):
            if parenthesised and (select.order_by or select.limit is not None):
                # the union's ORDER BY / LIMIT live on its first branch,
                # which therefore cannot carry clauses of its own
                raise ParseError(
                    "ORDER BY / LIMIT inside a parenthesised first UNION "
                    "branch is not supported")
            while self._accept_kw("UNION"):
                all_flag = bool(self._accept_kw("ALL"))
                self._accept_kw("DISTINCT")
                bare = not self._peek().matches(TokenType.OP, "(")
                rhs = self._parse_select(allow_union=False)
                select.unions.append((all_flag, rhs))
            last = select.unions[-1][1]
            if bare:
                # MySQL: a trailing ORDER BY / LIMIT applies to the whole
                # union; the bare last branch parsed them greedily, so
                # lift them up (a parenthesised one keeps its own)
                if last.order_by and not select.order_by:
                    select.order_by, last.order_by = last.order_by, []
                if last.limit is not None and select.limit is None:
                    select.limit, last.limit = last.limit, None
            elif self._peek().type == TokenType.KEYWORD and \
                    self._peek().value in ("ORDER", "LIMIT"):
                select.order_by = self._parse_order_by()
                select.limit = self._parse_limit()
        return select

    def _parse_select_field(self):
        if self._accept(TokenType.OP, "*"):
            return ast.SelectField(ast.Star())
        # table.* form
        tok = self._peek()
        if (
            tok.type == TokenType.IDENT
            and self._peek(1).matches(TokenType.OP, ".")
            and self._peek(2).matches(TokenType.OP, "*")
        ):
            table = self._advance().value
            self._advance()
            self._advance()
            return ast.SelectField(ast.Star(table=table))
        expr = self._parse_expr()
        if self._slotting and isinstance(expr, ast.Param):
            # the field is one literal and nothing else (the slot just
            # taken): it heads its own column, so it stays a literal
            expr = self._literal(self._tokens[self.slots.pop()])
        alias = None
        if self._accept_kw("AS"):
            alias = self._expect_ident()
        elif self._peek().type == TokenType.IDENT:
            alias = self._advance().value
        return ast.SelectField(expr, alias)

    def _parse_from(self):
        tables = [self._parse_table_ref()]
        joins = []
        while True:
            if self._accept(TokenType.OP, ","):
                tables.append(self._parse_table_ref())
                continue
            kind = self._parse_join_kind()
            if kind is None:
                break
            table = self._parse_table_ref()
            on = None
            if kind != "CROSS":
                self._expect_kw("ON")
                on = self._parse_expr()
            joins.append(ast.Join(kind, table, on))
        return tables, joins

    def _parse_join_kind(self):
        tok = self._peek()
        if tok.type != TokenType.KEYWORD or tok.value not in _JOIN_KEYWORDS:
            return None
        if self._accept_kw("JOIN"):
            return "INNER"
        if self._accept_kw("INNER"):
            self._expect_kw("JOIN")
            return "INNER"
        if self._accept_kw("CROSS"):
            self._expect_kw("JOIN")
            return "CROSS"
        side = self._advance().value  # LEFT or RIGHT
        self._accept_kw("OUTER")
        self._expect_kw("JOIN")
        return side

    def _parse_table_ref(self):
        if self._accept(TokenType.OP, "("):
            select = self._parse_select()
            self._expect(TokenType.OP, ")")
            self._accept_kw("AS")
            alias = self._expect_ident()  # MySQL: derived tables need one
            return ast.DerivedTable(select, alias)
        name = self._expect_ident()
        alias = None
        if self._accept_kw("AS"):
            alias = self._expect_ident()
        elif self._peek().type == TokenType.IDENT:
            alias = self._advance().value
        return ast.TableRef(name, alias)

    def _parse_order_by(self):
        order_by = []
        if self._accept_kw("ORDER"):
            self._expect_kw("BY")
            while True:
                expr = self._parse_pinned_expr()
                direction = "ASC"
                if self._accept_kw("DESC"):
                    direction = "DESC"
                else:
                    self._accept_kw("ASC")
                order_by.append(ast.OrderItem(expr, direction))
                if not self._accept(TokenType.OP, ","):
                    break
        return order_by

    def _parse_limit(self):
        if not self._accept_kw("LIMIT"):
            return None
        first = self._parse_pinned_expr()
        if self._accept(TokenType.OP, ","):
            second = self._parse_pinned_expr()
            return ast.Limit(second, offset=first)
        if self._accept_kw("OFFSET"):
            offset = self._parse_pinned_expr()
            return ast.Limit(first, offset=offset)
        return ast.Limit(first)

    # -- INSERT / UPDATE / DELETE ----------------------------------------

    def _parse_insert(self):
        replace = bool(self._accept_kw("REPLACE"))
        if not replace:
            self._expect_kw("INSERT")
        ignore = False
        if self._peek().matches(TokenType.IDENT, "IGNORE") or \
                self._peek().matches(TokenType.KEYWORD, "IGNORE"):
            self._advance()
            ignore = True
        self._accept_kw("INTO")
        table = self._expect_ident()
        columns = []
        if self._accept(TokenType.OP, "("):
            columns.append(self._expect_ident())
            while self._accept(TokenType.OP, ","):
                columns.append(self._expect_ident())
            self._expect(TokenType.OP, ")")
        if self._accept_kw("SET"):
            # INSERT ... SET col = expr, ...
            columns, row = [], []
            while True:
                columns.append(self._expect_ident())
                self._expect(TokenType.OP, "=")
                row.append(self._parse_expr())
                if not self._accept(TokenType.OP, ","):
                    break
            on_duplicate = self._parse_on_duplicate()
            return ast.Insert(table, columns, [row], ignore=ignore,
                              replace=replace, on_duplicate=on_duplicate)
        self._expect_kw("VALUES")
        rows = []
        while True:
            self._expect(TokenType.OP, "(")
            row = [self._parse_expr()]
            while self._accept(TokenType.OP, ","):
                row.append(self._parse_expr())
            self._expect(TokenType.OP, ")")
            rows.append(row)
            if not self._accept(TokenType.OP, ","):
                break
        on_duplicate = self._parse_on_duplicate()
        return ast.Insert(table, columns, rows, ignore=ignore,
                          replace=replace, on_duplicate=on_duplicate)

    def _parse_on_duplicate(self):
        """Optional ``ON DUPLICATE KEY UPDATE col = expr, ...`` tail."""
        if not self._accept_kw("ON"):
            return []
        self._expect_kw("DUPLICATE")
        self._expect_kw("KEY")
        self._expect_kw("UPDATE")
        assignments = []
        while True:
            col = self._expect_ident()
            self._expect(TokenType.OP, "=")
            assignments.append((col, self._parse_expr()))
            if not self._accept(TokenType.OP, ","):
                break
        return assignments

    def _parse_update(self):
        self._expect_kw("UPDATE")
        table = self._expect_ident()
        self._expect_kw("SET")
        assignments = []
        while True:
            col = self._expect_ident()
            self._expect(TokenType.OP, "=")
            assignments.append((col, self._parse_expr()))
            if not self._accept(TokenType.OP, ","):
                break
        where = self._parse_expr() if self._accept_kw("WHERE") else None
        order_by = self._parse_order_by()
        limit = self._parse_limit()
        return ast.Update(table, assignments, where, order_by, limit)

    def _parse_delete(self):
        self._expect_kw("DELETE")
        self._expect_kw("FROM")
        table = self._expect_ident()
        where = self._parse_expr() if self._accept_kw("WHERE") else None
        order_by = self._parse_order_by()
        limit = self._parse_limit()
        return ast.Delete(table, where, order_by, limit)

    # -- DDL ---------------------------------------------------------------

    def _parse_create_table(self):
        self._expect_kw("CREATE")
        self._expect_kw("TABLE")
        if_not_exists = False
        if self._accept_kw("IF"):
            self._expect_kw("NOT")
            self._expect_kw("EXISTS")
            if_not_exists = True
        name = self._expect_ident()
        self._expect(TokenType.OP, "(")
        columns = [self._parse_column_def()]
        while self._accept(TokenType.OP, ","):
            if self._accept_kw("PRIMARY"):
                self._expect_kw("KEY")
                self._expect(TokenType.OP, "(")
                pk_col = self._expect_ident()
                self._expect(TokenType.OP, ")")
                for col in columns:
                    if col.name == pk_col:
                        col.primary_key = True
                        break
                else:
                    raise ParseError("PRIMARY KEY on unknown column %r" % pk_col)
                continue
            columns.append(self._parse_column_def())
        self._expect(TokenType.OP, ")")
        return ast.CreateTable(name, columns, if_not_exists)

    def _parse_column_def(self):
        name = self._expect_ident()
        tok = self._peek()
        if tok.type == TokenType.KEYWORD and tok.value in _TYPE_KEYWORDS:
            type_name = self._advance().value
        else:
            raise ParseError("expected column type, found %r" % tok.value)
        length = None
        if self._accept(TokenType.OP, "("):
            length = int(self._expect(TokenType.INT).value)
            if self._accept(TokenType.OP, ","):
                self._expect(TokenType.INT)  # DECIMAL(p, s): scale ignored
            self._expect(TokenType.OP, ")")
        col = ast.ColumnDef(name, type_name, length)
        while True:
            if self._accept_kw("NOT"):
                self._expect_kw("NULL")
                col.not_null = True
            elif self._accept_kw("NULL"):
                pass
            elif self._accept_kw("PRIMARY"):
                self._expect_kw("KEY")
                col.primary_key = True
            elif self._accept_kw("AUTO_INCREMENT"):
                col.auto_increment = True
            elif self._accept_kw("UNIQUE"):
                col.unique = True
            elif self._accept_kw("DEFAULT"):
                col.default = self._parse_primary()
            else:
                break
        return col

    def _parse_alter_table(self):
        self._expect_kw("ALTER")
        self._expect_kw("TABLE")
        table = self._expect_ident()
        if self._accept_kw("ADD"):
            self._accept_kw("COLUMN")
            return ast.AlterTableAddColumn(table, self._parse_column_def())
        if self._accept_kw("DROP"):
            self._accept_kw("COLUMN")
            return ast.AlterTableDropColumn(table, self._expect_ident())
        raise ParseError("only ADD/DROP COLUMN are supported in ALTER")

    def _parse_create_index(self):
        self._expect_kw("CREATE")
        self._accept_kw("UNIQUE")  # uniqueness is a column property here
        self._expect_kw("INDEX")
        name = self._expect_ident()
        self._expect_kw("ON")
        table = self._expect_ident()
        self._expect(TokenType.OP, "(")
        column = self._expect_ident()
        self._expect(TokenType.OP, ")")
        return ast.CreateIndex(name, table, column)

    def _parse_drop_index(self):
        self._expect_kw("DROP")
        self._expect_kw("INDEX")
        name = self._expect_ident()
        self._expect_kw("ON")
        table = self._expect_ident()
        return ast.DropIndex(name, table)

    def _parse_drop_table(self):
        self._expect_kw("DROP")
        self._expect_kw("TABLE")
        if_exists = False
        if self._accept_kw("IF"):
            self._expect_kw("EXISTS")
            if_exists = True
        return ast.DropTable(self._expect_ident(), if_exists)

    # -- expressions -------------------------------------------------------
    #
    # Precedence, lowest to highest (MySQL):
    #   OR/|| < XOR < AND/&& < NOT < comparison/IN/LIKE/BETWEEN/IS
    #   < | < & < << >> < +- < */ DIV MOD % < unary < primary

    def _parse_expr(self):
        return self._parse_or()

    def _parse_or(self):
        operands = [self._parse_xor()]
        while self._accept_kw("OR") or self._accept(TokenType.OP, "||"):
            operands.append(self._parse_xor())
        if len(operands) == 1:
            return operands[0]
        return ast.Cond("OR", operands)

    def _parse_xor(self):
        operands = [self._parse_and()]
        while self._accept_kw("XOR"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return ast.Cond("XOR", operands)

    def _parse_and(self):
        operands = [self._parse_not()]
        while self._accept_kw("AND") or self._accept(TokenType.OP, "&&"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return operands[0]
        return ast.Cond("AND", operands)

    def _parse_not(self):
        if self._accept_kw("NOT") or self._accept(TokenType.OP, "!"):
            return ast.Not(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self):
        left = self._parse_bit_or()
        while True:
            tok = self._peek()
            if tok.type == TokenType.OP and tok.value in _COMPARISON_OPS:
                op = self._advance().value
                if op == "<>":
                    op = "!="
                right = self._parse_bit_or()
                left = ast.BinaryOp(op, left, right)
                continue
            negated = False
            save = self._pos
            if self._accept_kw("NOT"):
                negated = True
            if self._accept_kw("IN"):
                left = self._parse_in_tail(left, negated)
                continue
            if self._accept_kw("LIKE"):
                left = ast.Like(left, self._parse_bit_or(), negated, "LIKE")
                continue
            if self._accept_kw("REGEXP") or self._accept_kw("RLIKE"):
                left = ast.Like(left, self._parse_bit_or(), negated, "REGEXP")
                continue
            if self._accept_kw("BETWEEN"):
                low = self._parse_bit_or()
                self._expect_kw("AND")
                high = self._parse_bit_or()
                left = ast.Between(left, low, high, negated)
                continue
            if negated:
                self._pos = save  # bare NOT belongs to _parse_not
                break
            if self._accept_kw("IS"):
                neg = bool(self._accept_kw("NOT"))
                self._expect_kw("NULL")
                left = ast.IsNull(left, neg)
                continue
            break
        return left

    def _parse_in_tail(self, left, negated):
        self._expect(TokenType.OP, "(")
        if self._peek().matches(TokenType.KEYWORD, "SELECT"):
            sub = self._parse_select()
            self._expect(TokenType.OP, ")")
            return ast.InList(left, ast.Subquery(sub), negated)
        items = [self._parse_expr()]
        while self._accept(TokenType.OP, ","):
            items.append(self._parse_expr())
        self._expect(TokenType.OP, ")")
        return ast.InList(left, items, negated)

    def _parse_bit_or(self):
        left = self._parse_bit_and()
        while self._accept(TokenType.OP, "|"):
            left = ast.BinaryOp("|", left, self._parse_bit_and())
        return left

    def _parse_bit_and(self):
        left = self._parse_shift()
        while self._accept(TokenType.OP, "&"):
            left = ast.BinaryOp("&", left, self._parse_shift())
        return left

    def _parse_shift(self):
        left = self._parse_additive()
        while True:
            if self._accept(TokenType.OP, "<<"):
                left = ast.BinaryOp("<<", left, self._parse_additive())
            elif self._accept(TokenType.OP, ">>"):
                left = ast.BinaryOp(">>", left, self._parse_additive())
            else:
                return left

    def _parse_additive(self):
        left = self._parse_multiplicative()
        while True:
            if self._accept(TokenType.OP, "+"):
                left = ast.BinaryOp("+", left, self._parse_multiplicative())
            elif self._accept(TokenType.OP, "-"):
                left = ast.BinaryOp("-", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self):
        left = self._parse_unary()
        while True:
            if self._accept(TokenType.OP, "*"):
                left = ast.BinaryOp("*", left, self._parse_unary())
            elif self._accept(TokenType.OP, "/"):
                left = ast.BinaryOp("/", left, self._parse_unary())
            elif self._accept(TokenType.OP, "%"):
                left = ast.BinaryOp("%", left, self._parse_unary())
            elif self._accept_kw("DIV"):
                left = ast.BinaryOp("DIV", left, self._parse_unary())
            elif self._accept_kw("MOD"):
                left = ast.BinaryOp("%", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self):
        if self._accept(TokenType.OP, "-"):
            return ast.UnaryOp("-", self._parse_unary())
        if self._accept(TokenType.OP, "+"):
            return self._parse_unary()
        if self._accept(TokenType.OP, "~"):
            return ast.UnaryOp("~", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self):
        tok = self._peek()
        if tok.type in LITERALS:
            self._advance()
            if self._slotting and not self._pinned:
                self.slots.append(self._pos - 1)
                return ast.Param(len(self.slots) - 1)
            return self._literal(tok)
        if tok.type == TokenType.PARAM:
            self._advance()
            self._params += 1
            return ast.Param(self._params - 1)
        if tok.type == TokenType.KEYWORD:
            if tok.value == "NULL":
                self._advance()
                return ast.Literal(None, "null")
            if tok.value in ("TRUE", "FALSE"):
                self._advance()
                return ast.Literal(tok.value == "TRUE", "bool")
            if tok.value == "CASE":
                return self._parse_case()
            if tok.value == "EXISTS":
                self._advance()
                self._expect(TokenType.OP, "(")
                sub = self._parse_select()
                self._expect(TokenType.OP, ")")
                return ast.Exists(sub)
            if tok.value == "NOT":
                self._advance()
                return ast.Not(self._parse_primary())
            if tok.value == "CAST":
                return self._parse_cast()
            if tok.value == "CONVERT":
                return self._parse_convert()
            # IF(...), CHAR(...) and other keyword-named functions;
            # VALUES(col) is the ON DUPLICATE KEY UPDATE accessor
            if tok.value in ("IF", "MOD", "CHAR", "DATE", "REPLACE",
                             "LEFT", "RIGHT", "VALUES") and \
                    self._peek(1).matches(TokenType.OP, "("):
                name = self._advance().value
                return self._parse_func_call(name)
        if tok.matches(TokenType.OP, "("):
            self._advance()
            if self._peek().matches(TokenType.KEYWORD, "SELECT"):
                sub = self._parse_select()
                self._expect(TokenType.OP, ")")
                return ast.Subquery(sub)
            expr = self._parse_expr()
            self._expect(TokenType.OP, ")")
            return expr
        if tok.matches(TokenType.OP, "*"):
            self._advance()
            return ast.Star()
        if tok.type == TokenType.IDENT:
            self._advance()
            if self._peek().matches(TokenType.OP, "("):
                return self._parse_func_call(tok.value)
            if self._accept(TokenType.OP, "."):
                col = self._expect_ident()
                return ast.ColumnRef(col, table=tok.value)
            return ast.ColumnRef(tok.value)
        raise ParseError(
            "unexpected token %r at position %d" % (tok.value, tok.pos)
        )

    @staticmethod
    def _literal(tok):
        convert, tag = LITERALS[tok.type]
        return ast.Literal(convert(tok.value), tag)

    def _parse_func_call(self, name):
        self._expect(TokenType.OP, "(")
        if self._accept(TokenType.OP, ")"):
            return ast.FuncCall(name, [])
        distinct = bool(self._accept_kw("DISTINCT"))
        if self._accept(TokenType.OP, "*"):
            self._expect(TokenType.OP, ")")
            return ast.FuncCall(name, [ast.Star()], distinct)
        args = [self._parse_expr()]
        while self._accept(TokenType.OP, ","):
            args.append(self._parse_expr())
        self._expect(TokenType.OP, ")")
        return ast.FuncCall(name, args, distinct)

    def _parse_cast(self):
        self._expect_kw("CAST")
        self._expect(TokenType.OP, "(")
        expr = self._parse_expr()
        self._expect_kw("AS")
        type_name = self._parse_cast_type()
        self._expect(TokenType.OP, ")")
        return ast.Cast(expr, type_name)

    def _parse_convert(self):
        self._expect_kw("CONVERT")
        self._expect(TokenType.OP, "(")
        expr = self._parse_expr()
        self._expect(TokenType.OP, ",")
        type_name = self._parse_cast_type()
        self._expect(TokenType.OP, ")")
        return ast.Cast(expr, type_name)

    def _parse_cast_type(self):
        tok = self._peek()
        allowed = _TYPE_KEYWORDS | {"SIGNED", "UNSIGNED"}
        if tok.type == TokenType.KEYWORD and tok.value in allowed:
            type_name = self._advance().value
            if self._accept(TokenType.OP, "("):
                self._expect(TokenType.INT)
                self._expect(TokenType.OP, ")")
            # CAST(x AS UNSIGNED INTEGER) — swallow the optional INTEGER
            self._accept_kw("INTEGER")
            self._accept_kw("INT")
            return type_name
        raise ParseError("expected cast type, found %r" % tok.value)

    def _parse_case(self):
        self._expect_kw("CASE")
        operand = None
        if not self._peek().matches(TokenType.KEYWORD, "WHEN"):
            operand = self._parse_expr()
        whens = []
        while self._accept_kw("WHEN"):
            cond = self._parse_expr()
            self._expect_kw("THEN")
            whens.append((cond, self._parse_expr()))
        if not whens:
            raise ParseError("CASE requires at least one WHEN branch")
        default = None
        if self._accept_kw("ELSE"):
            default = self._parse_expr()
        self._expect_kw("END")
        return ast.Case(operand=operand, whens=whens, default=default)
