"""Render SQL AST nodes back into SQL text.

The printer is used in three places in the prototype:

* the mediation engine returns the *mediated query* as SQL text so receivers
  (and demo front ends) can inspect how their query was rewritten — the paper's
  Section 3 shows exactly such a rendering;
* the multi-database access engine serializes per-source sub-queries before
  shipping them to wrappers;
* clients of the ODBC-like driver may log or display the statements they send.

The output is deterministic and single-line.  Operands are parenthesized by
the dialect's one operator table, :data:`repro.sql.ast.BINDING`, which the
parser climbs, so a tree prints to text that :func:`repro.sql.parser.parse`
reads back as the same tree.  A column, qualifier, table or alias name
prints bare when the lexer scans it as that identifier, else double-quoted;
a name holding ``"`` has no spelling and is refused (EXPLAIN's
:func:`to_text` prints every name as it is).  Three spellings come
back otherwise: a negative numeric literal parses as unary
minus over its magnitude, ``!=`` as ``<>``, and a negated ``Exists`` as
``NOT`` over ``EXISTS``.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional, Tuple

from repro.errors import SQLError, SQLUnsupportedError
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
    Subquery,
    TableRef,
    UnaryOp,
    Union,
)
from repro.sql.lexer import KEYWORDS
from repro.sql.parser import DerivedTable

#: The lexer's ``word``: an identifier when its first character is a letter
#: or ``_`` and it is no keyword.
_WORD = re.compile(r"[^\W\d]\w*\Z").match
#: The common case in one match: an ASCII identifier that is no keyword.
_BARE = re.compile(rf"(?!(?:{'|'.join(sorted(KEYWORDS))})\Z)[A-Za-z_]\w*\Z",
                   re.IGNORECASE | re.ASCII).match


def _quote_name(name: str) -> str:
    """``name`` as text the lexer reads back as that one identifier: bare
    when it scans so, else double-quoted (a reserved word, a space, a
    leading digit).  The lexer has no escape for ``"`` inside a quoted
    name, so such a name is refused."""
    if (_WORD(name) and name.upper() not in KEYWORDS
            and (name[0].isalpha() or name[0] == "_")):
        return name
    if '"' in name:
        raise SQLUnsupportedError(f"cannot print the name {name!r}: it contains '\"'")
    return f'"{name}"'


def format_literal(value: Any) -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def to_sql(node: Node) -> str:
    """Render any statement or expression node as SQL text."""
    return _Printer().render(node)


def to_text(node: Node) -> str:
    """``node`` as EXPLAIN shows it: as :func:`to_sql` prints it, but every
    name as it is, unquoted.  An operator may read a column no statement
    can spell (``Aggregate.ref``), and EXPLAIN is read, not parsed back."""
    return _AsWritten().render(node)


class _Printer:
    """Stateless rendering visitor (a class only to group the methods)."""

    #: A column, qualifier, table or alias name as printed.
    name = staticmethod(_quote_name)

    def qualified(self, qualifier: Optional[str], name: str) -> str:
        # A bare name prints as itself in either printer.
        if not _BARE(name):
            name = self.name(name)
        if not qualifier:
            return name
        return f"{qualifier if _BARE(qualifier) else self.name(qualifier)}.{name}"

    # -- statements ---------------------------------------------------------

    def render(self, node: Node) -> str:
        if isinstance(node, Union):
            return self._union(node)
        if isinstance(node, Select):
            return self._select(node)
        if isinstance(node, CreateTable):
            return self._create_table(node)
        if isinstance(node, Insert):
            return self._insert(node)
        return self.expression(node)

    def _union(self, node: Union) -> str:
        keyword = " UNION ALL " if node.all else " UNION "
        return keyword.join(self._select(select) for select in node.selects)

    def _select(self, node: Select) -> str:
        parts: List[str] = ["SELECT"]
        if node.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(self._select_item(item) for item in node.items))
        if node.tables:
            parts.append("FROM")
            parts.append(", ".join(self._table(table) for table in node.tables))
        if node.where is not None:
            parts.append("WHERE")
            parts.append(self.expression(node.where))
        if node.group_by:
            parts.append("GROUP BY")
            parts.append(", ".join(self.expression(expr) for expr in node.group_by))
        if node.having is not None:
            parts.append("HAVING")
            parts.append(self.expression(node.having))
        if node.order_by:
            parts.append("ORDER BY")
            parts.append(", ".join(self._order_item(item) for item in node.order_by))
        if node.limit is not None:
            parts.append(f"LIMIT {node.limit}")
            if node.offset is not None:
                parts.append(f"OFFSET {node.offset}")
        return " ".join(parts)

    def _select_item(self, item: SelectItem) -> str:
        text = self.expression(item.expr)
        if item.alias:
            return f"{text} AS {self.name(item.alias)}"
        return text

    def _order_item(self, item: OrderItem) -> str:
        text = self.expression(item.expr)
        return text if item.ascending else f"{text} DESC"

    def _table(self, node: Node) -> str:
        if isinstance(node, TableRef):
            name = self.qualified(node.source, node.name)
            return f"{name} {self.name(node.alias)}" if node.alias else name
        if isinstance(node, Join):
            left = self._table(node.left)
            right = self._table(node.right)
            if node.kind == "CROSS":
                return f"{left} CROSS JOIN {right}"
            join = {"INNER": "JOIN", "LEFT": "LEFT JOIN", "RIGHT": "RIGHT JOIN"}[node.kind]
            condition = self.expression(node.condition) if node.condition is not None else "TRUE"
            return f"{left} {join} {right} ON {condition}"
        if isinstance(node, DerivedTable):
            return f"({self.render(node.query)}) {self.name(node.alias)}"
        raise SQLError(f"cannot render table expression {node!r}")

    def _create_table(self, node: CreateTable) -> str:
        columns = ", ".join(self._column_def(column) for column in node.columns)
        return f"CREATE TABLE {self.name(node.name)} ({columns})"

    def _column_def(self, column: ColumnDef) -> str:
        return f"{self.name(column.name)} {column.type_name}"

    def _insert(self, node: Insert) -> str:
        columns = f" ({', '.join(map(self.name, node.columns))})" if node.columns else ""
        rows = ", ".join(
            "(" + ", ".join(self.expression(value) for value in row) + ")" for row in node.rows
        )
        return f"INSERT INTO {self.name(node.table)}{columns} VALUES {rows}"

    # -- expressions --------------------------------------------------------

    def expression(self, node: Node, floor: int = 0) -> str:
        """``node`` as text, parenthesized when it binds looser than
        ``floor`` (a level of :data:`BINDING`)."""
        if isinstance(node, Literal):
            return format_literal(node.value)
        if isinstance(node, ColumnRef):
            return self.qualified(node.table, node.name)
        if isinstance(node, Star):
            return f"{self.name(node.table)}.*" if node.table else "*"
        if isinstance(node, FunctionCall):
            return self._function(node)
        if isinstance(node, Subquery):
            return f"({self._select(node.query)})"
        if isinstance(node, Case):
            return self._case(node)
        text, level = self._operation(node)
        return f"({text})" if level < floor else text

    def _operation(self, node: Node) -> Tuple[str, int]:
        """An operator node's text and the level it binds at.  A predicate's
        operands bind tighter than it; a binary operator's left operand binds
        at least as tightly, its right operand tighter."""
        operand = PREDICATE + 1
        if isinstance(node, BinaryOp):
            op = node.op.upper()
            level = BINDING.get(op)
            if level is None:
                raise SQLError(f"cannot render operator {op!r}")
            left = self.expression(node.left, operand if level == PREDICATE else level)
            return f"{left} {op} {self.expression(node.right, level + 1)}", level
        if isinstance(node, UnaryOp):
            if node.op.upper() == "NOT":
                return f"NOT {self.expression(node.operand, BINDING['NOT'])}", BINDING["NOT"]
            text = self.expression(node.operand, NEGATE)
            # ``--`` would start a comment.
            return f"-({text})" if text.startswith("-") else f"-{text}", NEGATE
        if isinstance(node, InList):
            keyword = "NOT IN" if node.negated else "IN"
            items = ", ".join(self.expression(item, operand) for item in node.items)
            return f"{self.expression(node.expr, operand)} {keyword} ({items})", PREDICATE
        if isinstance(node, Between):
            keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
            return (f"{self.expression(node.expr, operand)} {keyword} "
                    f"{self.expression(node.low, operand)} AND "
                    f"{self.expression(node.high, operand)}"), PREDICATE
        if isinstance(node, Like):
            keyword = "NOT LIKE" if node.negated else "LIKE"
            return (f"{self.expression(node.expr, operand)} {keyword} "
                    f"{self.expression(node.pattern, operand)}"), PREDICATE
        if isinstance(node, IsNull):
            keyword = "IS NOT NULL" if node.negated else "IS NULL"
            return f"{self.expression(node.expr, operand)} {keyword}", PREDICATE
        if isinstance(node, Exists):
            if node.negated:
                return f"NOT EXISTS ({self._select(node.subquery.query)})", BINDING["NOT"]
            return f"EXISTS ({self._select(node.subquery.query)})", PREDICATE
        raise SQLError(f"cannot render expression {node!r}")

    def _function(self, node: FunctionCall) -> str:
        if not node.args:
            return f"{node.name}()"
        args = ", ".join(self.expression(arg) for arg in node.args)
        if node.distinct:
            return f"{node.name}(DISTINCT {args})"
        return f"{node.name}({args})"

    def _case(self, node: Case) -> str:
        parts = ["CASE"]
        for condition, value in node.whens:
            parts.append(f"WHEN {self.expression(condition)} THEN {self.expression(value)}")
        if node.default is not None:
            parts.append(f"ELSE {self.expression(node.default)}")
        parts.append("END")
        return " ".join(parts)


class _AsWritten(_Printer):
    """The printer of :func:`to_text`."""

    name = staticmethod(str)
