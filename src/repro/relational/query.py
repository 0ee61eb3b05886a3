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

from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import EvaluationError, ExecutionError, SchemaError, SQLUnsupportedError
from repro.relational.compile import (
    ExpressionCompiler,
    KernelScope,
    evaluate_literal_expression,
)
from repro.relational.operators import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    PhysicalOperator,
    Project,
    Sort,
    TableScan,
    _group_keys,
)
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
    Subquery,
    TableRef,
    Union,
    conjuncts,
    is_aggregate_call,
    transform,
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

    @property
    def _scope(self) -> KernelScope:
        # Per use, not kept: a scope holds this processor's bound method, and
        # sources build a processor per query — each would be a reference
        # cycle only the cycle collector frees.
        return KernelScope(self._subquery_executor)

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
        LIMIT — with semantics identical to :meth:`execute`: it lowers the
        SELECT over a scan of ``rows`` (:func:`lower_select`) and drains it.
        """
        relation = Relation(schema)
        relation.rows = rows
        return lower_select(select, TableScan(relation), self._scope).to_relation()

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
            predicate = ExpressionCompiler(source_schema, scope=self._scope).predicate(select.where)
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
            ExpressionCompiler(schema, scope=self._scope).predicate(node.condition)
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
            left_keys, right_keys, residual=condition, scope=self._scope,
        )
        return list(join)

    def _subquery_executor(self, select: Select) -> Relation:
        """Execute an uncorrelated subquery (correlation is not supported)."""
        return self._execute_select(select)


# ---------------------------------------------------------------------------
# Lowering a SELECT's finish: the one implementation of grouping, projection,
# ORDER BY, DISTINCT and LIMIT, for the local processor and the mediator's
# plans alike
# ---------------------------------------------------------------------------


def lower_select(select: Select, child: PhysicalOperator, scope: KernelScope,
                 fetch_limit: Optional[int] = None) -> PhysicalOperator:
    """The operators finishing ``select`` over ``child``, its joined input:
    [``Aggregate`` → ``Filter``] → ``Project`` → ``Sort`` → ``Distinct`` →
    ``Limit``, each only where the statement asks for it.

    GROUP BY, an aggregate call or a HAVING — which groups even without
    either: one implicit group — put an :class:`Aggregate` beneath the
    finish; the calls in the select list, HAVING and ORDER BY then read its
    columns (:class:`_Finish`), so HAVING is a ``Filter`` and the select list
    a ``Project`` like any other.  ORDER BY keys that all sit in the output
    row (an alias, a 1-based position, or an expression identical to a select
    item) sort above ``Project``, by position; a key that reads the row
    beneath the select list moves the ``Sort`` below it, every key an
    expression over that row.  ``fetch_limit`` (a row bound that commutes
    with the finish) turns the sort into a top-k.
    """
    memo, finish = scope.memo, None
    if memo is not None:
        key = ("finish", id(select), child.schema.memo_token)
        finish = memo.get(key, (select,))
    if finish is None:
        finish = _Finish.of(select, child.schema)
        if memo is not None:
            finish = memo.put(key, (select,), finish)[0]

    operator = child
    if finish.calls or select.group_by or finish.having is not None:
        operator = Aggregate(operator, select.group_by, finish.calls, scope)
        if finish.having is not None:
            operator = Filter(operator, finish.having, scope)
    top = fetch_limit if not select.distinct else None
    if finish.sort_beneath:
        operator = Sort(operator, finish.sort_beneath, scope, limit=top)
    operator = Project(operator, finish.expressions, finish.names, scope)
    if finish.sort_output:
        operator = Sort(operator, finish.sort_output, scope, limit=top)
    if select.distinct:
        operator = Distinct(operator, key=_group_keys)
    if select.limit is not None or select.offset is not None:
        operator = Limit(operator, select.limit, select.offset or 0)
    return operator


class _Finish(NamedTuple):
    """What :func:`lower_select` derives from the statement alone.  A scope
    with a memo of its own (a plan's) keeps it there, so every lowering of
    one ``select`` hands the operators the same nodes and finds their kernels
    by identity."""

    #: The select list, stars expanded, and its output names.
    expressions: Tuple[Node, ...]
    names: List[str]
    #: The distinct aggregate calls of the select list, HAVING and ORDER BY —
    #: a subquery's are its own — which ``expressions``, ``having`` and the
    #: sort keys read as the columns of an :class:`Aggregate` over ``calls``.
    calls: List[FunctionCall]
    having: Optional[Node]
    #: ORDER BY as ``(output position, ascending)`` keys or, when a key reads
    #: the row beneath the select list, all as expressions over that row.
    sort_output: List[Tuple[int, bool]]
    sort_beneath: List[Tuple[Node, bool]]

    @classmethod
    def of(cls, select: Select, schema: Schema) -> "_Finish":
        items = expand_star_items(select.items, schema)
        calls: Dict[str, FunctionCall] = {}  # by text, as written: SUM(1) is not SUM(1.0)

        def column_of(node: Node) -> Node:
            if not is_aggregate_call(node):
                return node
            if any(isinstance(inner, ColumnRef) and inner.table == Aggregate.QUALIFIER
                   for argument in node.args for inner in walk(argument)):
                raise EvaluationError("aggregate calls cannot be nested")
            text = to_sql(node)
            calls.setdefault(text, node)
            return Aggregate.ref(list(calls).index(text))

        def rewritten(node: Node) -> Node:
            return transform(node, column_of, leave=(Subquery,))

        expressions = tuple(rewritten(item.expr) for item in items)
        names = output_names(items)
        having = rewritten(select.having) if select.having is not None else None
        order = _order_keys(
            [(rewritten(item.expr), item.ascending) for item in select.order_by],
            expressions, names)
        if any(position is None for position, _expr, _ascending in order):
            beneath = [(expr if position is None else expressions[position], ascending)
                       for position, expr, ascending in order]
            return cls(expressions, names, list(calls.values()), having, [], beneath)
        return cls(expressions, names, list(calls.values()), having,
                   [(position, ascending) for position, _expr, ascending in order], [])


def _order_keys(order_by: Sequence[Tuple[Node, bool]], expressions: Sequence[Node],
                names: Sequence[str]) -> List[Tuple[Optional[int], Node, bool]]:
    """Resolve ORDER BY to ``(output position, expression, ascending)`` keys.

    An unqualified name matching an output alias is that output column; an
    integer literal is a 1-based output position, per SQL convention (but
    TRUE/FALSE are constants, and so is a position outside the select list —
    a constant key orders nothing and is dropped); a key identical to a
    select item is that item's column.  Any other key must be evaluated
    against the row beneath the select list: position None.
    """
    aliases = {name.lower(): index for index, name in enumerate(names)}
    positions: Dict[Node, int] = {}
    for index, expression in enumerate(expressions):
        positions.setdefault(expression, index)
    keys: List[Tuple[Optional[int], Node, bool]] = []
    for expr, ascending in order_by:
        if isinstance(expr, ColumnRef) and expr.table is None and expr.name.lower() in aliases:
            position: Optional[int] = aliases[expr.name.lower()]
        elif isinstance(expr, Literal) and type(expr.value) is int:
            position = expr.value - 1
            if not 0 <= position < len(expressions):
                continue
        else:
            position = positions.get(expr)
        keys.append((position, expr, ascending))
    return keys


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
    """The output column names of a (star-expanded) select list."""
    names: List[str] = []
    for index, item in enumerate(items):
        if item.alias:
            names.append(item.alias)
        elif isinstance(item.expr, ColumnRef):
            names.append(item.expr.name)
        else:
            names.append(f"col_{index + 1}")
    return names


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
