"""Recursive-descent parser for the prototype's SQL dialect.

The grammar mirrors what the COIN prototype's front ends emit and what its
mediation engine produces: SELECT statements with explicit joins or
comma-separated FROM lists, WHERE conditions over arithmetic expressions,
UNION / UNION ALL — an ORDER BY, LIMIT or OFFSET after the last branch
finishes the whole union (:func:`finished_union`) — and the simple DDL/DML
(``CREATE TABLE``, ``INSERT``) used to populate demo sources.  Expressions
parse by precedence climbing over the dialect's one operator table,
:data:`repro.sql.ast.BINDING`, which the printer parenthesizes by.

Entry points:

* :func:`parse` — parse a complete statement (Select, Union, CreateTable,
  Insert).
* :func:`parse_expression` — parse a standalone scalar/boolean expression
  (used by the QBE front end for condition fields).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.errors import SQLSyntaxError, SQLUnsupportedError
from repro.sql.ast import (
    BINDING,
    NEGATE,
    PREDICATE,
    Between,
    BinaryOp,
    Case,
    ColumnDef,
    ColumnRef,
    CreateTable,
    Exists,
    FunctionCall,
    InList,
    Insert,
    IsNull,
    Join,
    Like,
    Literal,
    Node,
    OrderItem,
    Select,
    SelectItem,
    Star,
    Statement,
    Subquery,
    TableRef,
    UnaryOp,
    Union,
    node_class,
)
from repro.sql.lexer import Token, TokenType, tokenize

#: The level of prefix ``NOT``.
NOT = BINDING["NOT"]


class Parser:
    """A single-use parser over a token stream."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: List[Token] = tokenize(text)
        self.index = 0

    # -- token helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def _error(self, message: str) -> SQLSyntaxError:
        token = self.current
        return SQLSyntaxError(
            f"{message} (found {token.value!r})", token.position, token.line, token.column
        )

    def _expect_keyword(self, *names: str) -> Token:
        if self.current.is_keyword(*names):
            return self._advance()
        raise self._error(f"expected {' or '.join(names)}")

    def _accept_keyword(self, *names: str) -> bool:
        if self.current.is_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> Token:
        if self.current.matches(TokenType.PUNCTUATION, value):
            return self._advance()
        raise self._error(f"expected {value!r}")

    def _accept_punct(self, value: str) -> bool:
        if self.current.matches(TokenType.PUNCTUATION, value):
            self._advance()
            return True
        return False

    def _accept_operator(self, *values: str) -> Optional[str]:
        if self.current.type is TokenType.OPERATOR and self.current.value in values:
            return self._advance().value
        return None

    def _expect_identifier(self) -> str:
        if self.current.type is TokenType.IDENTIFIER:
            return self._advance().value
        # Allow non-reserved use of some keywords as identifiers is not
        # supported: keep the grammar strict and predictable.
        raise self._error("expected identifier")

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> Statement:
        """Parse one statement and require end-of-input (optionally ``;``)."""
        statement = self._statement()
        self._accept_punct(";")
        if self.current.type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return statement

    def _statement(self) -> Statement:
        if self.current.is_keyword("SELECT"):
            return self._select_or_union()
        if self.current.is_keyword("CREATE"):
            return self._create_table()
        if self.current.is_keyword("INSERT"):
            return self._insert()
        raise self._error("expected SELECT, CREATE or INSERT")

    # -- SELECT / UNION -----------------------------------------------------

    def _select_or_union(self) -> Statement:
        selects = [self._select()]
        union_all: Optional[bool] = None
        while self._accept_keyword("UNION"):
            branch_all = bool(self._accept_keyword("ALL"))
            if union_all is None:
                union_all = branch_all
            elif union_all != branch_all:
                raise SQLUnsupportedError(
                    "mixing UNION and UNION ALL in one statement is not supported"
                )
            selects.append(self._select())
        if len(selects) == 1:
            return selects[0]
        last = selects[-1]
        if not (last.order_by or last.limit is not None or last.offset is not None):
            return Union(tuple(selects), all=bool(union_all))
        # ORDER BY, LIMIT and OFFSET after the last branch finish the whole
        # union: the one form a finish over a union takes.
        selects[-1] = last.copy(order_by=(), limit=None, offset=None)
        return Select(
            items=(SelectItem(Star()),),
            tables=(_DerivedTable(Union(tuple(selects), all=bool(union_all)), UNION_ALIAS),),
            order_by=last.order_by,
            limit=last.limit,
            offset=last.offset,
        )

    def _select(self) -> Select:
        self._expect_keyword("SELECT")
        distinct = False
        if self._accept_keyword("DISTINCT"):
            distinct = True
        elif self._accept_keyword("ALL"):
            distinct = False

        items = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())

        tables: Tuple[Node, ...] = ()
        if self._accept_keyword("FROM"):
            tables = tuple(self._table_list())

        where = self._expression() if self._accept_keyword("WHERE") else None

        group_by: Tuple[Node, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            exprs = [self._expression()]
            while self._accept_punct(","):
                exprs.append(self._expression())
            group_by = tuple(exprs)

        having = self._expression() if self._accept_keyword("HAVING") else None

        order_by: Tuple[OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            orders = [self._order_item()]
            while self._accept_punct(","):
                orders.append(self._order_item())
            order_by = tuple(orders)

        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._integer_literal()
            if self._accept_keyword("OFFSET"):
                offset = self._integer_literal()

        return Select(
            items=tuple(items),
            tables=tables,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _integer_literal(self) -> int:
        if self.current.type is not TokenType.NUMBER:
            raise self._error("expected integer literal")
        token = self._advance()
        try:
            return int(token.value)
        except ValueError as exc:
            raise SQLSyntaxError(
                f"expected integer, got {token.value!r}", token.position, token.line, token.column
            ) from exc

    def _select_item(self) -> SelectItem:
        # ``*`` and ``table.*``
        if self.current.matches(TokenType.OPERATOR, "*"):
            self._advance()
            return SelectItem(Star())
        if (
            self.current.type is TokenType.IDENTIFIER
            and self._peek().matches(TokenType.PUNCTUATION, ".")
            and self._peek(2).matches(TokenType.OPERATOR, "*")
        ):
            table = self._advance().value
            self._advance()  # .
            self._advance()  # *
            return SelectItem(Star(table))

        expr = self._expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return SelectItem(expr, alias)

    def _order_item(self) -> OrderItem:
        expr = self._expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return OrderItem(expr, ascending)

    # -- FROM clause --------------------------------------------------------

    def _table_list(self) -> List[Node]:
        tables = [self._table_expression()]
        while self._accept_punct(","):
            tables.append(self._table_expression())
        return tables

    def _table_expression(self) -> Node:
        left = self._table_primary()
        while True:
            kind = None
            if self._accept_keyword("CROSS"):
                kind = "CROSS"
                self._expect_keyword("JOIN")
            elif self._accept_keyword("INNER"):
                kind = "INNER"
                self._expect_keyword("JOIN")
            elif self._accept_keyword("LEFT"):
                self._accept_keyword("OUTER")
                kind = "LEFT"
                self._expect_keyword("JOIN")
            elif self._accept_keyword("RIGHT"):
                self._accept_keyword("OUTER")
                kind = "RIGHT"
                self._expect_keyword("JOIN")
            elif self._accept_keyword("JOIN"):
                kind = "INNER"
            if kind is None:
                return left
            right = self._table_primary()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self._expression()
            left = Join(left, right, kind, condition)

    def _table_primary(self) -> Node:
        if self._accept_punct("("):
            if self.current.is_keyword("SELECT"):
                query = self._select_or_union()
                self._expect_punct(")")
                alias = None
                if self._accept_keyword("AS"):
                    alias = self._expect_identifier()
                elif self.current.type is TokenType.IDENTIFIER:
                    alias = self._advance().value
                if alias is None:
                    raise self._error("derived table requires an alias")
                return _DerivedTable(query, alias)
            inner = self._table_expression()
            self._expect_punct(")")
            return inner

        name = self._expect_identifier()
        source = None
        if self._accept_punct("."):
            source, name = name, self._expect_identifier()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return TableRef(name=name, alias=alias, source=source)

    # -- expressions --------------------------------------------------------

    def _expression(self, floor: int = 1) -> Node:
        """An expression of operators that bind at least as tightly as
        ``floor``: precedence climbing over :data:`BINDING`.  ``ceiling``
        bounds what may follow the expression built so far: only a looser
        operator, or one of its own level on a left-associative level."""
        if floor <= NOT and self._accept_keyword("NOT"):
            left, ceiling = UnaryOp("NOT", self._expression(NOT)), NOT
        elif floor <= PREDICATE and self.current.is_keyword("EXISTS"):
            left, ceiling = self._exists(), PREDICATE
        else:
            left, ceiling = self._unary(), NEGATE
        while True:
            level = self._binding()
            if level is None or not floor <= level < ceiling:
                return left
            if level == PREDICATE:
                left, ceiling = self._predicate(left), PREDICATE
            else:
                op = self._advance().value
                left, ceiling = BinaryOp(op, left, self._expression(level + 1)), level + 1

    def _binding(self) -> Optional[int]:
        """The level of the binary operator or predicate at the current
        token, if it is one."""
        token = self.current
        if token.type is TokenType.OPERATOR:
            return BINDING.get(token.value)
        if token.type is not TokenType.KEYWORD:
            return None
        if token.value == "NOT":
            return PREDICATE if self._peek().is_keyword("IN", "BETWEEN", "LIKE") else None
        return BINDING.get(token.value)

    def _exists(self) -> Node:
        self._expect_keyword("EXISTS")
        self._expect_punct("(")
        query = self._select_or_union()
        self._expect_punct(")")
        if isinstance(query, Union):
            raise SQLUnsupportedError("UNION in EXISTS is not supported")
        return Exists(Subquery(query))

    def _predicate(self, left: Node) -> Node:
        """The comparison or predicate over ``left`` at the current token;
        its other operands bind tighter than :data:`PREDICATE`."""
        operand = PREDICATE + 1
        negated = self._accept_keyword("NOT")

        if self._accept_keyword("IN"):
            self._expect_punct("(")
            if self.current.is_keyword("SELECT"):
                query = self._select_or_union()
                self._expect_punct(")")
                if isinstance(query, Union):
                    raise SQLUnsupportedError("UNION in IN subquery is not supported")
                return InList(left, (Subquery(query),), negated)
            items = [self._expression(operand)]
            while self._accept_punct(","):
                items.append(self._expression(operand))
            self._expect_punct(")")
            return InList(left, tuple(items), negated)

        if self._accept_keyword("BETWEEN"):
            low = self._expression(operand)
            self._expect_keyword("AND")
            high = self._expression(operand)
            return Between(left, low, high, negated)

        if self._accept_keyword("LIKE"):
            return Like(left, self._expression(operand), negated)

        if self._accept_keyword("IS"):
            is_negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return IsNull(left, is_negated)

        op = self._advance().value
        return BinaryOp("<>" if op == "!=" else op, left, self._expression(operand))

    def _unary(self) -> Node:
        """Prefix ``-`` and ``+``, which bind tighter than every binary
        operator (:data:`NEGATE`)."""
        if self._accept_operator("-"):
            return UnaryOp("-", self._unary())
        if self._accept_operator("+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> Node:
        token = self.current

        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            value = float(text) if ("." in text or "e" in text or "E" in text) else int(text)
            if value.__class__ is float and not math.isfinite(value):
                # ``1e999``: no literal spells infinity, so it could not print.
                raise SQLSyntaxError(f"numeric literal out of range (found {text!r})",
                                     token.position, token.line, token.column)
            return Literal(value)

        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)

        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)

        if token.is_keyword("CASE"):
            return self._case_expression()

        if token.matches(TokenType.PUNCTUATION, "("):
            self._advance()
            if self.current.is_keyword("SELECT"):
                query = self._select_or_union()
                self._expect_punct(")")
                if isinstance(query, Union):
                    raise SQLUnsupportedError("UNION in scalar subquery is not supported")
                return Subquery(query)
            expr = self._expression()
            self._expect_punct(")")
            return expr

        if token.type is TokenType.IDENTIFIER:
            name = self._advance().value
            # Function call.
            if self.current.matches(TokenType.PUNCTUATION, "("):
                return self._function_call(name)
            # Qualified column reference.
            if self._accept_punct("."):
                column = self._expect_identifier()
                return ColumnRef(name=column, table=name)
            return ColumnRef(name=name)

        # COUNT and friends arrive as identifiers, but allow a keyword-looking
        # function name to be robust (e.g. LEFT is a keyword in the dialect).
        if token.type is TokenType.KEYWORD and self._peek().matches(TokenType.PUNCTUATION, "("):
            name = self._advance().value
            return self._function_call(name)

        raise self._error("expected expression")

    def _function_call(self, name: str) -> Node:
        self._expect_punct("(")
        distinct = bool(self._accept_keyword("DISTINCT"))
        args: List[Node] = []
        if self.current.matches(TokenType.OPERATOR, "*"):
            self._advance()
            args.append(Star())
        elif not self.current.matches(TokenType.PUNCTUATION, ")"):
            args.append(self._expression())
            while self._accept_punct(","):
                args.append(self._expression())
        self._expect_punct(")")
        return FunctionCall(name=name.upper(), args=tuple(args), distinct=distinct)

    def _case_expression(self) -> Node:
        self._expect_keyword("CASE")
        whens: List[Tuple[Node, Node]] = []
        while self._accept_keyword("WHEN"):
            condition = self._expression()
            self._expect_keyword("THEN")
            value = self._expression()
            whens.append((condition, value))
        if not whens:
            raise self._error("CASE requires at least one WHEN branch")
        default = None
        if self._accept_keyword("ELSE"):
            default = self._expression()
        self._expect_keyword("END")
        return Case(tuple(whens), default)

    # -- DDL / DML ----------------------------------------------------------

    def _create_table(self) -> CreateTable:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        name = self._expect_identifier()
        self._expect_punct("(")
        columns = [self._column_def()]
        while self._accept_punct(","):
            columns.append(self._column_def())
        self._expect_punct(")")
        return CreateTable(name=name, columns=tuple(columns))

    def _column_def(self) -> ColumnDef:
        name = self._expect_identifier()
        type_name = "string"
        if self.current.type is TokenType.IDENTIFIER:
            type_name = self._advance().value
        return ColumnDef(name=name, type_name=type_name.lower())

    def _insert(self) -> Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier()
        columns: List[str] = []
        if self._accept_punct("("):
            columns.append(self._expect_identifier())
            while self._accept_punct(","):
                columns.append(self._expect_identifier())
            self._expect_punct(")")
        self._expect_keyword("VALUES")
        rows: List[Tuple[Node, ...]] = []
        while True:
            self._expect_punct("(")
            values = [self._expression()]
            while self._accept_punct(","):
                values.append(self._expression())
            self._expect_punct(")")
            rows.append(tuple(values))
            if not self._accept_punct(","):
                break
        return Insert(table=table, columns=tuple(columns), rows=tuple(rows))


# ---------------------------------------------------------------------------
# Derived tables
# ---------------------------------------------------------------------------


@node_class
class _DerivedTable(Node):
    """A ``(SELECT ...) alias`` or ``(SELECT ... UNION ...) alias`` table
    expression.

    The local processor evaluates any derived table; the engine plans only a
    statement that finishes a union (:func:`finished_union`), and refuses
    every other derived table.
    """

    query: Node
    alias: str


DerivedTable = _DerivedTable

#: The alias a finish over a union reads the union's rows by.
UNION_ALIAS = "m"


def finished_union(statement: Statement) -> Optional[Union]:
    """The union ``statement`` finishes when it is ``SELECT … FROM (b1 UNION
    [ALL] b2 …) alias [GROUP BY …] [ORDER BY …] [LIMIT …]`` — the form the
    parser gives clauses after a union's last branch and the mediator gives
    a multi-branch statement's finish — else None."""
    if statement.__class__ is not Select or statement.where is not None:
        return None
    tables = statement.tables
    if len(tables) != 1 or tables[0].__class__ is not _DerivedTable:
        return None
    query = tables[0].query
    return query if query.__class__ is Union else None


def parse(text: str) -> Statement:
    """Parse a complete SQL statement."""
    return Parser(text).parse_statement()


def parse_expression(text: str) -> Node:
    """Parse a standalone expression (used by the QBE condition fields)."""
    parser = Parser(text)
    expr = parser._expression()
    if parser.current.type is not TokenType.EOF:
        raise parser._error("unexpected trailing input after expression")
    return expr
