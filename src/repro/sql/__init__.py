"""SQL substrate: lexer, parser, AST and printer.

The COIN prototype exposes a SQL interface at every layer: receivers pose SQL
queries, the mediator rewrites them into SQL (a union of sub-queries), the
multi-database engine decomposes them into per-source SQL, and wrappers accept
SQL against the relational views they export.  This package implements the
dialect used throughout the reproduction:

* ``SELECT [DISTINCT] <exprs> FROM <tables> [WHERE ...] [GROUP BY ...]
  [HAVING ...] [ORDER BY ...] [LIMIT n]``
* ``UNION`` / ``UNION ALL`` of select statements
* arithmetic (``+ - * /``), comparisons (``= <> < <= > >=``), ``AND``/``OR``/
  ``NOT``, ``IN``, ``BETWEEN``, ``LIKE``, ``IS [NOT] NULL``
* aggregate functions (``COUNT, SUM, AVG, MIN, MAX``) and scalar functions
* ``CREATE TABLE`` and ``INSERT INTO ... VALUES`` for loading demo sources

Typical round trip::

    >>> from repro.sql import parse, to_sql
    >>> stmt = parse("SELECT r1.cname FROM r1 WHERE r1.revenue > 10")
    >>> to_sql(stmt)
    'SELECT r1.cname FROM r1 WHERE r1.revenue > 10'
"""

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
    column_refs,
    conjoin,
    conjuncts,
    contains_aggregate,
    disjoin,
    is_aggregate_call,
    transform,
    walk,
)
from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import DerivedTable, Parser, parse, parse_expression
from repro.sql.printer import format_literal, to_sql

__all__ = [
    "Between",
    "BinaryOp",
    "Case",
    "ColumnDef",
    "ColumnRef",
    "CreateTable",
    "DerivedTable",
    "Exists",
    "FunctionCall",
    "InList",
    "Insert",
    "IsNull",
    "Join",
    "Like",
    "Literal",
    "Node",
    "OrderItem",
    "Select",
    "SelectItem",
    "Star",
    "Subquery",
    "TableRef",
    "UnaryOp",
    "Union",
    "column_refs",
    "conjoin",
    "conjuncts",
    "contains_aggregate",
    "disjoin",
    "is_aggregate_call",
    "transform",
    "walk",
    "Token",
    "TokenType",
    "tokenize",
    "Parser",
    "parse",
    "parse_expression",
    "format_literal",
    "to_sql",
]
