"""Render SQL AST nodes back into SQL text.

The printer is used in three places in the prototype:

* the mediation engine returns the *mediated query* as SQL text so receivers
  (and demo front ends) can inspect how their query was rewritten — the paper's
  Section 3 shows exactly such a rendering;
* the multi-database access engine serializes per-source sub-queries before
  shipping them to wrappers;
* clients of the ODBC-like driver may log or display the statements they send.

The output is deterministic, single-line and re-parseable by
:func:`repro.sql.parser.parse`, which the property-based tests rely on.
"""

from __future__ import annotations

from typing import Any, List

from repro.errors import SQLError
from repro.sql.ast import (
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
from repro.sql.parser import DerivedTable

#: Binding strength of binary operators, used to decide where parentheses are
#: required when re-rendering an expression tree.
_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "=": 4,
    "<>": 4,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "||": 5,
    "+": 6,
    "-": 6,
    "*": 7,
    "/": 7,
    "%": 7,
}


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


class _Printer:
    """Stateless rendering visitor (a class only to group the methods)."""

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
            return f"{text} AS {item.alias}"
        return text

    def _order_item(self, item: OrderItem) -> str:
        text = self.expression(item.expr)
        return text if item.ascending else f"{text} DESC"

    def _table(self, node: Node) -> str:
        if isinstance(node, TableRef):
            name = f"{node.source}.{node.name}" if node.source else node.name
            return f"{name} {node.alias}" if node.alias else name
        if isinstance(node, Join):
            left = self._table(node.left)
            right = self._table(node.right)
            if node.kind == "CROSS":
                return f"{left} CROSS JOIN {right}"
            join = {"INNER": "JOIN", "LEFT": "LEFT JOIN", "RIGHT": "RIGHT JOIN"}[node.kind]
            condition = self.expression(node.condition) if node.condition is not None else "TRUE"
            return f"{left} {join} {right} ON {condition}"
        if isinstance(node, DerivedTable):
            return f"({self.render(node.query)}) {node.alias}"
        raise SQLError(f"cannot render table expression {node!r}")

    def _create_table(self, node: CreateTable) -> str:
        columns = ", ".join(self._column_def(column) for column in node.columns)
        return f"CREATE TABLE {node.name} ({columns})"

    def _column_def(self, column: ColumnDef) -> str:
        return f"{column.name} {column.type_name}"

    def _insert(self, node: Insert) -> str:
        columns = f" ({', '.join(node.columns)})" if node.columns else ""
        rows = ", ".join(
            "(" + ", ".join(self.expression(value) for value in row) + ")" for row in node.rows
        )
        return f"INSERT INTO {node.table}{columns} VALUES {rows}"

    # -- expressions --------------------------------------------------------

    def expression(self, node: Node, parent_precedence: int = 0) -> str:
        if isinstance(node, Literal):
            return format_literal(node.value)
        if isinstance(node, ColumnRef):
            return node.qualified
        if isinstance(node, Star):
            return f"{node.table}.*" if node.table else "*"
        if isinstance(node, BinaryOp):
            return self._binary(node, parent_precedence)
        if isinstance(node, UnaryOp):
            return self._unary(node, parent_precedence)
        if isinstance(node, FunctionCall):
            return self._function(node)
        if isinstance(node, InList):
            return self._in_list(node)
        if isinstance(node, Between):
            keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
            return (
                f"{self.expression(node.expr, 8)} {keyword} "
                f"{self.expression(node.low, 8)} AND {self.expression(node.high, 8)}"
            )
        if isinstance(node, Like):
            keyword = "NOT LIKE" if node.negated else "LIKE"
            return f"{self.expression(node.expr, 8)} {keyword} {self.expression(node.pattern, 8)}"
        if isinstance(node, IsNull):
            keyword = "IS NOT NULL" if node.negated else "IS NULL"
            return f"{self.expression(node.expr, 8)} {keyword}"
        if isinstance(node, Exists):
            keyword = "NOT EXISTS" if node.negated else "EXISTS"
            return f"{keyword} ({self._select(node.subquery.query)})"
        if isinstance(node, Subquery):
            return f"({self._select(node.query)})"
        if isinstance(node, Case):
            return self._case(node)
        raise SQLError(f"cannot render expression {node!r}")

    def _binary(self, node: BinaryOp, parent_precedence: int) -> str:
        op = node.op.upper()
        precedence = _PRECEDENCE.get(op, 4)
        if precedence == 4:
            # Comparisons are non-associative in the grammar: a nested
            # comparison on either side must be parenthesized.
            left = self.expression(node.left, precedence + 1)
            right = self.expression(node.right, precedence + 1)
        else:
            left = self.expression(node.left, precedence)
            # Right operand gets precedence + 1 so that same-precedence chains
            # stay left-associative when re-parsed (a - b - c is unambiguous).
            right = self.expression(node.right, precedence + 1)
        text = f"{left} {op} {right}"
        if precedence < parent_precedence:
            return f"({text})"
        return text

    def _unary(self, node: UnaryOp, parent_precedence: int = 0) -> str:
        if node.op.upper() == "NOT":
            # NOT binds looser than comparisons: parenthesize when embedded in
            # arithmetic or a comparison, and render its operand at the
            # predicate level (so ``NOT a = 1`` stays unparenthesized).
            text = f"NOT {self.expression(node.operand, 4)}"
            if parent_precedence > 3:
                return f"({text})"
            return text
        return f"{node.op}{self.expression(node.operand, 8)}"

    def _function(self, node: FunctionCall) -> str:
        if not node.args:
            return f"{node.name}()"
        args = ", ".join(self.expression(arg) for arg in node.args)
        if node.distinct:
            return f"{node.name}(DISTINCT {args})"
        return f"{node.name}({args})"

    def _in_list(self, node: InList) -> str:
        keyword = "NOT IN" if node.negated else "IN"
        items = ", ".join(self.expression(item) for item in node.items)
        return f"{self.expression(node.expr, 8)} {keyword} ({items})"

    def _case(self, node: Case) -> str:
        parts = ["CASE"]
        for condition, value in node.whens:
            parts.append(f"WHEN {self.expression(condition)} THEN {self.expression(value)}")
        if node.default is not None:
            parts.append(f"ELSE {self.expression(node.default)}")
        parts.append("END")
        return " ".join(parts)
