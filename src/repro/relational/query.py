"""A local SQL query processor over in-memory relations.

This module implements the SQL semantics used in two places:

* inside :class:`repro.sources.memory.MemorySQLSource`, the stand-in for the
  paper's Oracle databases — each source runs its own local processor over its
  own tables;
* inside the multi-database access engine, which uses the same processor for
  the "local operations (e.g. joins across sources)" the paper describes,
  executing them over wrapper results staged in temporary storage.

Supported: SELECT (DISTINCT) with expressions and aliases, FROM with
comma-joins, explicit INNER/LEFT/CROSS joins and derived tables, WHERE,
GROUP BY + aggregates (COUNT/SUM/AVG/MIN/MAX) with HAVING, ORDER BY,
LIMIT/OFFSET, UNION/UNION ALL, uncorrelated IN/EXISTS/scalar subqueries, and
the CREATE TABLE / INSERT statements used to load demo data.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import EvaluationError, ExecutionError, SchemaError, SQLUnsupportedError
from repro.relational.compile import ExpressionCompiler
from repro.relational.eval import ExpressionEvaluator, expression_type
from repro.relational.relation import Relation, Row
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    CreateTable,
    FunctionCall,
    Insert,
    Join,
    Literal,
    Node,
    Select,
    SelectItem,
    Star,
    Statement,
    TableRef,
    Union,
    is_aggregate_call,
    walk,
)
from repro.sql.parser import DerivedTable, parse
from repro.sql.printer import to_sql


class QueryProcessor:
    """Executes parsed SQL statements against a table provider.

    ``resolver`` maps a table name (and optional source qualifier) to a
    :class:`Relation`; a plain mapping of names to relations also works via
    :meth:`over_tables`.
    """

    def __init__(self, resolver: Callable[[str, Optional[str]], Relation]):
        self._resolve_table = resolver

    # -- constructors -------------------------------------------------------

    @classmethod
    def over_tables(cls, tables: Mapping[str, Relation]) -> "QueryProcessor":
        """Build a processor over a case-insensitive name → relation mapping."""
        lowered = {name.lower(): relation for name, relation in tables.items()}

        def resolver(name: str, source: Optional[str]) -> Relation:
            try:
                return lowered[name.lower()]
            except KeyError as exc:
                raise ExecutionError(f"unknown table {name!r}") from exc

        return cls(resolver)

    # -- public API ---------------------------------------------------------

    def execute(self, statement) -> Relation:
        """Execute a Select or Union statement (or SQL text) and return a Relation."""
        if isinstance(statement, str):
            statement = parse(statement)
        if isinstance(statement, Select):
            return self._execute_select(statement)
        if isinstance(statement, Union):
            return self._execute_union(statement)
        raise SQLUnsupportedError(f"cannot execute statement of type {type(statement).__name__}")

    def finalize_select(self, select: Select, rows: List[Row], schema: Schema) -> Relation:
        """Finish a SELECT whose FROM/WHERE phases were evaluated elsewhere.

        The multi-database engine stages and joins source results itself (its
        "local operations"); it then hands the joined rows plus their combined
        schema to this method, which applies the remaining phases — grouping
        and aggregates, HAVING, the select list, DISTINCT, ORDER BY and
        LIMIT — with semantics identical to :meth:`execute`.
        """
        has_aggregates = any(
            is_aggregate_call(node)
            for item in select.items
            for node in walk(item.expr)
        ) or (select.having is not None and any(is_aggregate_call(n) for n in walk(select.having)))

        if select.group_by or has_aggregates:
            output_rows, output_schema, _context = self._execute_grouped(select, rows, schema)
        else:
            output_rows, output_schema, _context = self._execute_flat(select, rows, schema)

        if select.order_by:
            output_rows = self._order_rows(select, output_rows, output_schema, schema)
        if select.distinct:
            output_rows = _distinct_rows(output_rows)
        if select.limit is not None or select.offset is not None:
            offset = select.offset or 0
            end = None if select.limit is None else offset + select.limit
            output_rows = output_rows[offset:end]

        result = Relation(output_schema)
        result.rows = [row for row, _context_row in output_rows]
        return result

    # -- UNION ---------------------------------------------------------------

    def _execute_union(self, statement: Union) -> Relation:
        results = [self._execute_select(select) for select in statement.selects]
        combined = results[0]
        for result in results[1:]:
            combined = combined.union(result, all=True)
        if not statement.all:
            combined = combined.distinct()
        # Column names come from the first branch, per SQL convention.
        return combined.rename(results[0].schema.names)

    # -- SELECT ---------------------------------------------------------------

    def _execute_select(self, select: Select) -> Relation:
        rows, source_schema = self._build_from(select)
        if select.where is not None:
            predicate = ExpressionCompiler(
                source_schema, self._subquery_executor
            ).predicate(select.where)
            rows = [row for row in rows if predicate(row) is True]
        return self.finalize_select(select, rows, source_schema)

    # -- FROM clause -----------------------------------------------------------

    def _build_from(self, select: Select) -> Tuple[List[Row], Schema]:
        """Evaluate the FROM clause into (rows, schema) of the joined input."""
        if not select.tables:
            # SELECT without FROM: a single empty row lets literal expressions evaluate.
            return [()], Schema([])

        rows: Optional[List[Row]] = None
        schema: Optional[Schema] = None
        for table in select.tables:
            table_rows, table_schema = self._table_rows(table)
            if rows is None:
                rows, schema = table_rows, table_schema
            else:
                rows = [left + right for left in rows for right in table_rows]
                schema = schema.concat(table_schema)
        assert rows is not None and schema is not None
        return rows, schema

    def _table_rows(self, node: Node) -> Tuple[List[Row], Schema]:
        if isinstance(node, TableRef):
            relation = self._resolve_table(node.name, node.source)
            schema = relation.schema.with_qualifier(node.binding)
            return list(relation.rows), schema
        if isinstance(node, DerivedTable):
            relation = self._execute_select(node.query)
            schema = relation.schema.with_qualifier(node.alias)
            return list(relation.rows), schema
        if isinstance(node, Join):
            return self._join_rows(node)
        raise SQLUnsupportedError(f"unsupported FROM item {node!r}")

    def _join_rows(self, node: Join) -> Tuple[List[Row], Schema]:
        left_rows, left_schema = self._table_rows(node.left)
        right_rows, right_schema = self._table_rows(node.right)
        schema = left_schema.concat(right_schema)

        if node.kind == "INNER" and node.condition is not None:
            hashed = self._hash_join_rows(
                node.condition, left_rows, left_schema, right_rows, right_schema
            )
            if hashed is not None:
                return hashed, schema

        predicate = (
            ExpressionCompiler(schema, self._subquery_executor).predicate(node.condition)
            if node.condition is not None else None
        )

        if node.kind in ("INNER", "CROSS"):
            combined = []
            for left in left_rows:
                for right in right_rows:
                    row = left + right
                    if predicate is None or predicate(row) is True:
                        combined.append(row)
            return combined, schema

        if node.kind == "LEFT":
            combined = []
            null_right = tuple([None] * len(right_schema))
            for left in left_rows:
                matched = False
                for right in right_rows:
                    row = left + right
                    if predicate is None or predicate(row) is True:
                        combined.append(row)
                        matched = True
                if not matched:
                    combined.append(left + null_right)
            return combined, schema

        if node.kind == "RIGHT":
            combined = []
            null_left = tuple([None] * len(left_schema))
            for right in right_rows:
                matched = False
                for left in left_rows:
                    row = left + right
                    if predicate is None or predicate(row) is True:
                        combined.append(row)
                        matched = True
                if not matched:
                    combined.append(null_left + right)
            return combined, schema

        raise SQLUnsupportedError(f"unsupported join kind {node.kind!r}")

    def _hash_join_rows(self, condition: Node, left_rows: List[Row], left_schema: Schema,
                        right_rows: List[Row], right_schema: Schema) -> Optional[List[Row]]:
        """Evaluate an INNER join through a hash join when the condition has
        equi-join conjuncts; returns None when no conjunct qualifies (the
        caller falls back to the nested loop).

        The full ON condition is re-evaluated on every bucket match, so the
        hash buckets are purely a prefilter and the accepted rows are exactly
        the nested loop's.  Boolean key values force the nested-loop fallback:
        SQL equality coerces booleans against *any* number (``True = 2`` is
        true), which no bucket normalization can reproduce."""
        from repro.relational.operators import HashJoin, TableScan
        from repro.sql.ast import conjuncts

        combined_schema = left_schema.concat(right_schema)

        def side_of(ref: ColumnRef) -> Optional[str]:
            # The ref must resolve on exactly one side, and unambiguously in
            # the combined schema (otherwise evaluation would raise anyway).
            if not combined_schema.has(ref.name, ref.table):
                return None
            in_left = left_schema.has(ref.name, ref.table)
            in_right = right_schema.has(ref.name, ref.table)
            if in_left and not in_right:
                return "left"
            if in_right and not in_left:
                return "right"
            return None

        left_keys: List[ColumnRef] = []
        right_keys: List[ColumnRef] = []
        for conjunct in conjuncts(condition):
            if (
                isinstance(conjunct, BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                first, second = side_of(conjunct.left), side_of(conjunct.right)
                if first == "left" and second == "right":
                    left_keys.append(conjunct.left)
                    right_keys.append(conjunct.right)
                elif first == "right" and second == "left":
                    left_keys.append(conjunct.right)
                    right_keys.append(conjunct.left)
        if not left_keys:
            return None

        left_positions = [left_schema.index_of(ref.name, ref.table) for ref in left_keys]
        right_positions = [right_schema.index_of(ref.name, ref.table) for ref in right_keys]
        if any(
            type(row[position]) is bool
            for rows, positions in ((left_rows, left_positions), (right_rows, right_positions))
            for row in rows
            for position in positions
        ):
            return None

        left_relation = Relation(left_schema, name="join_left", validate=False)
        left_relation.rows = list(left_rows)
        right_relation = Relation(right_schema, name="join_right", validate=False)
        right_relation.rows = list(right_rows)
        join = HashJoin(
            TableScan(left_relation), TableScan(right_relation),
            left_keys, right_keys, residual=condition,
            subquery_executor=self._subquery_executor,
        )
        return list(join)

    # -- flat (non-grouped) SELECT ----------------------------------------------

    def _execute_flat(self, select: Select, rows: List[Row], schema: Schema):
        items = self._expand_stars(select.items, schema)
        project = ExpressionCompiler(schema, self._subquery_executor).projection(
            [item.expr for item in items]
        )
        names = _output_names(items)
        output_schema = Schema(
            Attribute(name=name, type=expression_type(item.expr, schema))
            for name, item in zip(names, items)
        )
        return [(project(row), row) for row in rows], output_schema, schema

    # -- grouped SELECT -----------------------------------------------------------

    def _execute_grouped(self, select: Select, rows: List[Row], schema: Schema):
        items = self._expand_stars(select.items, schema)
        compiler = ExpressionCompiler(schema, self._subquery_executor)
        key_fns = [compiler.compile(expr) for expr in select.group_by]

        # Group rows by the GROUP BY key (a single global group when absent).
        groups: Dict[Tuple, List[Row]] = {}
        group_order: List[Tuple] = []
        for row in rows:
            key = tuple(_group_key(fn(row)) for fn in key_fns)
            if key not in groups:
                groups[key] = []
                group_order.append(key)
            groups[key].append(row)
        if not select.group_by and not groups:
            # Aggregates over an empty input still produce one row (COUNT = 0).
            groups[()] = []
            group_order.append(())

        # Collect every aggregate call appearing in the outputs and HAVING.
        aggregate_calls: List[FunctionCall] = []
        for item in items:
            aggregate_calls.extend(n for n in walk(item.expr) if is_aggregate_call(n))
        if select.having is not None:
            aggregate_calls.extend(n for n in walk(select.having) if is_aggregate_call(n))

        names = _output_names(items)
        output_schema = Schema(
            Attribute(name=name, type=expression_type(item.expr, schema))
            for name, item in zip(names, items)
        )

        # Compile each distinct aggregate's argument once, not once per group.
        compiled_calls = []
        for call in aggregate_calls:
            signature = _call_signature(call)
            arg_fn = (
                compiler.compile(call.args[0])
                if call.args and not isinstance(call.args[0], Star) else None
            )
            compiled_calls.append((signature, call, arg_fn))

        output: List[Tuple[Row, Row]] = []
        for key in group_order:
            group_rows = groups[key]
            aggregates = {
                signature: _compute_aggregate(call, group_rows, arg_fn)
                for signature, call, arg_fn in compiled_calls
            }
            group_evaluator = _GroupEvaluator(schema, aggregates, group_rows, self._subquery_executor)

            if select.having is not None:
                keep = group_evaluator.predicate(select.having)(_representative(group_rows, schema))
                if keep is not True:
                    continue

            representative = _representative(group_rows, schema)
            values = tuple(
                group_evaluator.evaluate(item.expr, representative) for item in items
            )
            output.append((values, representative))
        return output, output_schema, schema

    # -- ORDER BY -------------------------------------------------------------------

    def _order_rows(self, select: Select, output_rows, output_schema: Schema, schema: Schema):
        from repro.relational.types import sort_key as value_sort_key

        alias_positions = {name.lower(): index for index, name in enumerate(output_schema.names)}
        compiler = ExpressionCompiler(schema, self._subquery_executor)

        def key_fn_for(order_expr: Node) -> Callable[[Tuple[Row, Row]], Any]:
            """Resolve one ORDER BY key to a (output_row, context_row) -> key."""
            # An unqualified column name matching an output alias refers to it.
            if isinstance(order_expr, ColumnRef) and order_expr.table is None:
                position = alias_positions.get(order_expr.name.lower())
                if position is not None:
                    return lambda pair: value_sort_key(pair[0][position])
            # A literal integer is a 1-based output position, per SQL
            # convention — but TRUE/FALSE are constants, not positions.
            if (isinstance(order_expr, Literal) and isinstance(order_expr.value, int)
                    and not isinstance(order_expr.value, bool)):
                literal_position = order_expr.value - 1

                def positional(pair):
                    if 0 <= literal_position < len(pair[0]):
                        return value_sort_key(pair[0][literal_position])
                    return value_sort_key(order_expr.value)

                return positional
            compiled = compiler.compile(order_expr)
            return lambda pair: value_sort_key(compiled(pair[1]))

        rows = list(output_rows)
        for order_item in reversed(select.order_by):
            rows.sort(key=key_fn_for(order_item.expr), reverse=not order_item.ascending)
        return rows

    # -- helpers ---------------------------------------------------------------------

    def _expand_stars(self, items: Sequence[SelectItem], schema: Schema) -> List[SelectItem]:
        return expand_star_items(items, schema)

    def _subquery_executor(self, select: Select) -> Relation:
        """Execute an uncorrelated subquery (correlation is not supported)."""
        return self._execute_select(select)


# ---------------------------------------------------------------------------
# Finalization helpers shared with the streaming executor
# ---------------------------------------------------------------------------


def expand_star_items(items: Sequence[SelectItem], schema: Schema) -> List[SelectItem]:
    """Expand ``*`` / ``t.*`` select items against the input schema."""
    expanded: List[SelectItem] = []
    for item in items:
        if isinstance(item.expr, Star):
            table = item.expr.table
            for attribute in schema:
                if table is None or (attribute.qualifier or "").lower() == table.lower():
                    expanded.append(
                        SelectItem(ColumnRef(name=attribute.name, table=attribute.qualifier))
                    )
            if not expanded:
                raise SchemaError(f"'*' expansion found no columns for {table!r}")
        else:
            expanded.append(item)
    return expanded


def output_names(items: Sequence[SelectItem]) -> List[str]:
    """Public name of :func:`_output_names` (select-list output columns)."""
    return _output_names(items)


def finalize_distinct_key(row: Sequence[Any]) -> Tuple:
    """The duplicate-detection key SELECT DISTINCT finalization uses.

    The streaming executor's Distinct operator must use exactly this key so
    streamed answers are byte-identical to the materialized finalizer's.
    """
    return tuple(_group_key(value) for value in row)


# ---------------------------------------------------------------------------
# Aggregation helpers
# ---------------------------------------------------------------------------


def _call_signature(call: FunctionCall) -> str:
    """A structural key identifying an aggregate call (COUNT(*) vs COUNT(x)...)."""
    return to_sql(call)


def _compute_aggregate(call: FunctionCall, rows: List[Row], arg_fn) -> Any:
    """Compute one aggregate over a group; ``arg_fn`` is the compiled argument
    expression (None for COUNT(*) / argument-less calls)."""
    name = call.name.upper()
    if name == "COUNT" and (not call.args or isinstance(call.args[0], Star)):
        return len(rows)

    if not call.args:
        raise EvaluationError(f"aggregate {name} requires an argument")
    if arg_fn is None:
        raise EvaluationError("'*' is only valid inside COUNT(*) or a select list")
    values = [value for value in (arg_fn(row) for row in rows) if value is not None]
    if call.distinct:
        seen = []
        for value in values:
            if value not in seen:
                seen.append(value)
        values = seen

    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name == "SUM":
        return sum(values)
    if name == "AVG":
        return sum(values) / len(values)
    if name == "MIN":
        return min(values)
    if name == "MAX":
        return max(values)
    raise EvaluationError(f"unknown aggregate {name}")


class _GroupEvaluator(ExpressionEvaluator):
    """An evaluator that substitutes pre-computed values for aggregate calls."""

    def __init__(self, schema: Schema, aggregates: Dict[str, Any], group_rows: List[Row],
                 subquery_executor=None):
        super().__init__(schema, subquery_executor)
        self._aggregates = aggregates
        self._group_rows = group_rows

    def _eval(self, node: Node, row: Row) -> Any:
        if is_aggregate_call(node):
            signature = _call_signature(node)  # type: ignore[arg-type]
            if signature in self._aggregates:
                return self._aggregates[signature]
        return super()._eval(node, row)


def _representative(group_rows: List[Row], schema: Schema) -> Row:
    """A row standing in for the group when evaluating non-aggregate expressions."""
    if group_rows:
        return group_rows[0]
    return tuple([None] * len(schema))


def _group_key(value: Any) -> Any:
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float, Decimal)):
        return ("n", float(value))
    if value is None:
        return ("null",)
    return ("s", str(value))


def _output_names(items: Sequence[SelectItem]) -> List[str]:
    names: List[str] = []
    for index, item in enumerate(items):
        if item.alias:
            names.append(item.alias)
        elif isinstance(item.expr, ColumnRef):
            names.append(item.expr.name)
        else:
            names.append(f"col_{index + 1}")
    return names


def _distinct_rows(output_rows):
    seen = set()
    result = []
    for values, context in output_rows:
        key = tuple(_group_key(value) for value in values)
        if key not in seen:
            seen.add(key)
            result.append((values, context))
    return result


# ---------------------------------------------------------------------------
# A tiny updatable database: CREATE TABLE / INSERT / SELECT
# ---------------------------------------------------------------------------


class Database:
    """A named collection of relations with DDL/DML support.

    This is the storage behind :class:`repro.sources.memory.MemorySQLSource`
    and the engine's temporary store.  It intentionally supports only what the
    prototype needs: creating tables, bulk-inserting rows and querying.
    """

    def __init__(self, name: str = "db"):
        self.name = name
        self.tables: Dict[str, Relation] = {}

    # -- catalog ---------------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> Relation:
        key = name.lower()
        if key in self.tables:
            raise ExecutionError(f"table {name!r} already exists")
        relation = Relation(schema.with_qualifier(None), name=name)
        self.tables[key] = relation
        return relation

    def drop_table(self, name: str) -> None:
        self.tables.pop(name.lower(), None)

    def register(self, relation: Relation, name: Optional[str] = None) -> None:
        """Register an existing relation under a (new) name."""
        key = (name or relation.name or "").lower()
        if not key:
            raise ExecutionError("cannot register an unnamed relation")
        self.tables[key] = relation

    def table(self, name: str) -> Relation:
        try:
            return self.tables[name.lower()]
        except KeyError as exc:
            raise ExecutionError(f"unknown table {name!r} in database {self.name!r}") from exc

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    @property
    def table_names(self) -> List[str]:
        return [relation.name or key for key, relation in sorted(self.tables.items())]

    # -- statement execution -----------------------------------------------------

    def execute(self, statement) -> Relation:
        """Execute SQL text or a parsed statement; DML returns an empty relation."""
        if isinstance(statement, str):
            statement = parse(statement)
        if isinstance(statement, CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, Insert):
            return self._execute_insert(statement)
        processor = QueryProcessor.over_tables(self.tables)
        return processor.execute(statement)

    def _execute_create(self, statement: CreateTable) -> Relation:
        schema = Schema(
            Attribute(name=column.name, type=DataType.from_name(column.type_name))
            for column in statement.columns
        )
        return self.create_table(statement.name, schema)

    def _execute_insert(self, statement: Insert) -> Relation:
        from repro.relational.eval import evaluate_literal_expression

        relation = self.table(statement.table)
        if statement.columns:
            # Guard the column list up front: a typo'd or extra column would
            # otherwise silently drop values into the void.
            known = {attribute.name.lower() for attribute in relation.schema}
            unknown = [name for name in statement.columns if name.lower() not in known]
            if unknown:
                raise SchemaError(
                    f"INSERT into {statement.table!r} names unknown column(s) "
                    f"{', '.join(repr(name) for name in unknown)}"
                )
            lowered_names = [name.lower() for name in statement.columns]
            if len(set(lowered_names)) != len(lowered_names):
                duplicates = sorted({
                    name for name in lowered_names if lowered_names.count(name) > 1
                })
                raise SchemaError(
                    f"INSERT into {statement.table!r} names column(s) "
                    f"{', '.join(repr(name) for name in duplicates)} more than once"
                )
        for row_number, row_exprs in enumerate(statement.rows, start=1):
            values = [evaluate_literal_expression(expr) for expr in row_exprs]
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise SchemaError(
                        f"INSERT row {row_number} has {len(values)} value(s) "
                        f"for {len(statement.columns)} column(s)"
                    )
                lowered = {
                    name.lower(): value
                    for name, value in zip(statement.columns, values)
                }
                row = [lowered.get(attribute.name.lower()) for attribute in relation.schema]
            else:
                # Schema.validate_row rejects arity mismatches with a clear
                # SchemaError; nothing reaches the operators malformed.
                row = values
            relation.append(row)
        return Relation(relation.schema)
