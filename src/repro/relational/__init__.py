"""Relational substrate: schemas, relations, evaluation, operators, storage.

This package is the data plane shared by every layer of the COIN prototype
reproduction: wrappers produce :class:`Relation` objects, the multi-database
engine combines them with the physical operators, the local SQL processor in
:mod:`repro.relational.query` provides full SELECT semantics for in-memory
sources and for local (mediator-side) operations, and the storage module
simulates the engine's temporary store (its dictionary is the engine's
catalog).
"""

from repro.relational.types import DataType, is_null, sort_key, sql_compare, sql_equal
from repro.relational.schema import Attribute, Schema, expression_type
from repro.relational.relation import Relation, Row, relation_from_rows
from repro.relational.compile import (
    ExpressionCompiler,
    compile_projection,
    evaluate_literal_expression,
    like_to_regex,
)
from repro.relational.operators import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    PhysicalOperator,
    Project,
    Sort,
    TableScan,
    UnionAll,
)
from repro.relational.query import Database, QueryProcessor
from repro.relational.storage import STORAGE_COUNTERS, TemporaryStore

__all__ = [
    "DataType",
    "is_null",
    "sort_key",
    "sql_compare",
    "sql_equal",
    "Attribute",
    "Schema",
    "Relation",
    "Row",
    "relation_from_rows",
    "ExpressionCompiler",
    "compile_projection",
    "evaluate_literal_expression",
    "expression_type",
    "like_to_regex",
    "Aggregate",
    "Distinct",
    "Filter",
    "HashJoin",
    "Limit",
    "NestedLoopJoin",
    "PhysicalOperator",
    "Project",
    "Sort",
    "TableScan",
    "UnionAll",
    "Database",
    "QueryProcessor",
    "STORAGE_COUNTERS",
    "TemporaryStore",
]
