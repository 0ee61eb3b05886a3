"""A local SQL query processor over in-memory relations.

It stands in for the SQL engine of every source the engine wraps: the
paper's Oracle databases (:class:`repro.sources.memory.MemorySQLSource`), the
pushed SQL of :class:`~repro.wrappers.wrapper.RelationalWrapper` and
``WebWrapper``, the tight-coupling baseline, and each repair of consistent
query answering's enumeration.  It is not the engine's executor: the
engine's "local operations (e.g. joins across sources)" are its plan's
algebra tree, lowered by :func:`repro.relational.algebra.lower`.

Both run on the same operators.  :meth:`QueryProcessor.lower` builds one
operator tree per statement by the rules plans lower by — FROM items are
scans joined left-deep in FROM order, hash joins where the key types may
hash, WHERE conjuncts filter the leaf they name — finished by
:func:`lower_select`, and UNION is :func:`lower_union`.

Supported: SELECT (DISTINCT) with expressions and aliases, FROM with
comma-joins, explicit INNER/LEFT/RIGHT/CROSS joins and derived tables, WHERE,
GROUP BY + aggregates (COUNT/SUM/AVG/MIN/MAX) with HAVING, ORDER BY,
LIMIT/OFFSET, UNION/UNION ALL, uncorrelated IN/EXISTS/scalar subqueries, and
the CREATE TABLE / INSERT statements used to load demo data.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from contextlib import closing
from typing import (
    Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.errors import (
    EvaluationError, ExecutionError, RepairEnumerationError, SchemaError, SQLUnsupportedError,
)
from repro.relational.budget import MemoryBudget
from repro.relational.compile import KernelScope, evaluate_literal_expression
from repro.relational.operators import (
    Aggregate,
    Batch,
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
    _group_key as value_key,
    _group_keys,
    _ramp_batches,
)
from repro.relational.relation import Relation, Row
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType, may_hash
from repro.sql.ast import (
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
    conjoin,
    is_aggregate_call,
    transform,
    walk,
)
from repro.sql.facts import ConjunctFacts, analyse_conjuncts
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
        """Execute a Select or Union statement (or SQL text) and return a
        Relation: its operator tree (:meth:`lower`), drained."""
        return self.lower(statement).to_relation()

    def lower(self, statement) -> PhysicalOperator:
        """The operator tree computing a Select or Union statement (or SQL
        text).  Derived tables and the subqueries folded into its kernels run
        while it is built; its joins, filters and finish run when drained."""
        if isinstance(statement, str):
            statement = parse(statement)
        if not isinstance(statement, (Select, Union)):
            raise SQLUnsupportedError(
                f"cannot execute statement of type {type(statement).__name__}")
        # Per statement, not kept: a scope holds this processor's bound
        # method, and sources build a processor per query — each would be a
        # reference cycle only the cycle collector frees.
        scope = KernelScope(self._subquery_executor)
        if isinstance(statement, Union):
            return lower_union([self._lower_select(select, scope)
                                for select in statement.selects], statement.all)
        return self._lower_select(statement, scope)

    # -- SELECT ---------------------------------------------------------------

    def _lower_select(self, select: Select, scope: KernelScope) -> PhysicalOperator:
        """FROM and WHERE as scans, filters and joins, then the finish.

        Each FROM item is one leaf.  A WHERE conjunct naming one leaf filters
        it; one naming several joins at the step its last leaf joins in; the
        others — a subquery, no column, a column no leaf resolves — filter
        the joined row, where a bad column raises as it always did."""
        leaves = [self._leaf(table, scope) for table in select.tables]
        if len(leaves) <= 1:
            # SELECT without FROM: one empty row lets literal expressions evaluate.
            operator = leaves[0] if leaves else TableScan(Relation(Schema(()), [()]))
            if select.where is not None:
                operator = Filter(operator, select.where, scope)
            return lower_select(select, operator, scope)

        combined = leaves[0].schema
        ends = [len(combined)]
        for leaf in leaves[1:]:
            combined = combined.concat(leaf.schema)
            ends.append(len(combined))
        filters: List[List[Node]] = [[] for _ in leaves]
        steps: List[List[ConjunctFacts]] = [[] for _ in leaves]
        top: List[Node] = []
        for facts in analyse_conjuncts(select.where):
            named = set()
            for ref in () if facts.has_subquery else facts.refs:
                try:
                    named.add(bisect_right(ends, combined.index_of(ref.name, ref.table)))
                except SchemaError:
                    named = set()
                    break
            if not named:
                top.append(facts.condition)
            elif len(named) == 1:
                filters[named.pop()].append(facts.condition)
            else:
                steps[max(named)].append(facts)

        operator = None
        for leaf, conditions, step in zip(leaves, filters, steps):
            if conditions:
                leaf = Filter(leaf, conjoin(conditions), scope)
            operator = leaf if operator is None else _join(operator, leaf, step, scope)
        if top:
            operator = Filter(operator, conjoin(top), scope)
        return lower_select(select, operator, scope)

    def _leaf(self, node: Node, scope: KernelScope) -> PhysicalOperator:
        """The operator of one FROM item."""
        if isinstance(node, TableRef):
            return TableScan(self._resolve_table(node.name, node.source), node.binding)
        if isinstance(node, DerivedTable):
            return TableScan(self.execute(node.query), node.alias)
        if isinstance(node, Join):
            left, right = self._leaf(node.left, scope), self._leaf(node.right, scope)
            if node.kind == "INNER":
                return _join(left, right, analyse_conjuncts(node.condition), scope)
            if node.kind in ("LEFT", "RIGHT", "CROSS"):
                return NestedLoopJoin(left, right, node.condition, scope,
                                      outer=None if node.kind == "CROSS" else node.kind)
            raise SQLUnsupportedError(f"unsupported join kind {node.kind!r}")
        raise SQLUnsupportedError(f"unsupported FROM item {node!r}")

    def _subquery_executor(self, select: Select) -> Relation:
        """Execute an uncorrelated subquery (correlation is not supported)."""
        return self.execute(select)


def _join(left: PhysicalOperator, right: PhysicalOperator,
          condition: Sequence[ConjunctFacts], scope: KernelScope) -> PhysicalOperator:
    """``left`` ⋈ ``right`` on the conjuncts ``condition``: a hash join on
    its ``a.x = b.y`` conjuncts between the sides whose key types may hash
    (``types.may_hash``), else a nested loop.  The whole condition is the
    hash join's residual, so its buckets only prefilter: the rows, and their
    order, are the nested loop's."""
    schema = left.schema.concat(right.schema)
    split = len(left.schema)
    whole = conjoin([facts.condition for facts in condition])
    keys: List[Tuple[ColumnRef, ColumnRef]] = []
    for facts in condition:
        if facts.equi_pair is None:
            continue
        first, second = facts.equi_pair
        try:
            at = schema.index_of(first.name, first.table)
            to = schema.index_of(second.name, second.table)
        except SchemaError:
            continue
        if at > to:
            first, second, at, to = second, first, to, at
        if at < split <= to and may_hash(schema[at].type) and may_hash(schema[to].type):
            keys.append((first, second))
    if keys:
        left_keys, right_keys = zip(*keys)
        return HashJoin(left, right, left_keys, right_keys, residual=whole, scope=scope)
    return NestedLoopJoin(left, right, whole, scope)


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


def lower_union(inputs: Sequence[PhysicalOperator], all: bool,
                budget: Optional[MemoryBudget] = None) -> PhysicalOperator:
    """UNION [ALL] of ``inputs``, one per branch: their rows in branch order
    and, unless ``all``, without a row equal to an earlier one — exact row
    equality, its seen-set drawing on ``budget`` like any ``Distinct``.  The
    first input names the columns."""
    union = UnionAll(inputs)
    return union if all else Distinct(union, budget=budget, key=tuple)


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
        items = expand_star_items(select.items, schema, select.tables)
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


def expand_star_items(items: Sequence[SelectItem], schema: Schema,
                      tables: Sequence[Node] = ()) -> List[SelectItem]:
    """Expand ``*`` / ``t.*`` select items against the input schema.  An
    unqualified ``*`` lists the columns of the FROM items ``tables`` in FROM
    order, whatever order the input joined them in."""
    expanded: List[SelectItem] = []
    for item in items:
        if isinstance(item.expr, Star):
            table = item.expr.table
            for attribute in schema if table is not None else _in_from_order(schema, tables):
                if table is None or (attribute.qualifier or "").lower() == table.lower():
                    expanded.append(
                        SelectItem(ColumnRef(name=attribute.name, table=attribute.qualifier))
                    )
            if not expanded:
                raise SchemaError(f"'*' expansion found no columns for {table!r}")
        else:
            expanded.append(item)
    return expanded


def _in_from_order(schema: Schema, tables: Sequence[Node]) -> Sequence[Attribute]:
    """``schema``'s attributes stably sorted by the FROM position of their
    table.  An input over explicit joins or derived tables is the local
    processor's, joined in FROM order already."""
    position = {table.binding.lower(): index for index, table in enumerate(tables)
                if isinstance(table, TableRef)}
    try:
        return sorted(schema, key=lambda attribute: position[(attribute.qualifier or "").lower()])
    except KeyError:
        return schema.attributes


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
# Repair enumeration: a statement run on every repair of its relations
# ---------------------------------------------------------------------------


class RepairEnumeration(PhysicalOperator):
    """The rows ``statement`` gives in every repair (``certain``), or in at
    least one, of the relations its ``inputs`` read in full: one input per
    relation of ``names``, whose ``keys`` entry lists its key columns (``()``:
    no key constraint).

    Blocking: the first pull drains every input into an extent.  A repair is
    a set of tuples, so a keyed extent first collapses exact duplicates; its
    conflict clusters — distinct tuples sharing a key — span the repairs,
    more than ``max_repairs`` of which are refused.  Each repair is lowered
    and run by a :class:`QueryProcessor` of its own (its derived tables and
    subqueries run while it is lowered, so no lowering serves two repairs).
    Certain rows are the intersection, in the first repair's order; possible
    rows the union in repair order, sorted again on the statement's ORDER BY
    when every key is an output column.  What it found goes into ``counts``.
    """

    operator_name = "RepairEnumeration"

    def __init__(self, names: Sequence[str], keys: Sequence[Tuple[str, ...]],
                 inputs: Sequence[PhysicalOperator], statement, certain: bool,
                 max_repairs: int, counts: Optional[Dict[str, object]] = None):
        self.names, self.keys, self.inputs = list(names), list(keys), list(inputs)
        self.statement, self.certain, self.max_repairs = statement, certain, max_repairs
        self.counts = {} if counts is None else counts
        self._schema: Optional[Schema] = None

    @property
    def schema(self) -> Schema:
        """The statement's columns over empty extents: known before any pull."""
        if self._schema is None:
            self._schema = QueryProcessor.over_tables(
                {name: Relation(child.schema.with_qualifier(None))
                 for name, child in zip(self.names, self.inputs)}
            ).lower(self.statement).schema
        return self._schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return tuple(self.inputs)

    def batches(self) -> Iterator[Batch]:
        tables: Dict[str, Relation] = {}
        for name, child in zip(self.names, self.inputs):
            extent = tables[name] = Relation(child.schema.with_qualifier(None), name=name)
            with closing(child.batches()) as batches:
                for batch in batches:
                    extent.rows.extend(batch)
        yield from _ramp_batches(self._enumerate(tables))

    def _enumerate(self, tables: Dict[str, Relation]) -> List[Row]:
        clusters: List[Tuple[str, List[Row]]] = []  # (relation, its variants)
        repair_space = 1
        for name, key in zip(self.names, self.keys):
            if not key:
                continue
            extent = tables[name] = _dedup(tables[name])
            positions = [extent.schema.index_of(column) for column in key]
            by_key: Dict[Tuple, List[Row]] = {}
            for row in extent.rows:
                by_key.setdefault(tuple(value_key(row[at]) for at in positions), []).append(row)
            for variants in by_key.values():
                if len(variants) > 1:
                    clusters.append((name, variants))
                    repair_space *= len(variants)
                    if repair_space > self.max_repairs:
                        raise RepairEnumerationError(
                            f"the conflict clusters admit more than "
                            f"{self.max_repairs} repairs; narrow the query, "
                            "clean the sources, or raise max_repairs"
                        )
        # Per conflicted relation, every variant of its clusters: a repair
        # keeps the chosen one of each and the relation's other rows.
        conflicted: Dict[str, Set[Tuple]] = {}
        for name, variants in clusters:
            conflicted.setdefault(name, set()).update(map(_row_key, variants))

        raw = QueryProcessor.over_tables(tables).execute(self.statement)
        certain: Optional[Set[Tuple]] = None
        possible_rows: List[Row] = []
        possible: Set[Tuple] = set()
        repairs = 0
        for choice in itertools.product(*(variants for _name, variants in clusters)):
            repairs += 1
            repaired = dict(tables)
            for name, members in conflicted.items():
                chosen = {_row_key(row) for (of, _v), row in zip(clusters, choice) if of == name}
                repaired[name] = _repair_relation(tables[name], chosen, members)
            # Without a conflict the instance is its own unique repair.
            result = (QueryProcessor.over_tables(repaired).execute(self.statement)
                      if clusters else raw)
            keys = [_row_key(row) for row in result.rows]
            certain = set(keys) if certain is None else certain.intersection(keys)
            for row, key in zip(result.rows, keys):
                if key not in possible:
                    possible.add(key)
                    possible_rows.append(row)
        rows_raw = len({_row_key(row) for row in raw.rows})
        self.counts.update(constrained_relations=len(conflicted), clusters=len(clusters),
                           repairs_enumerated=repairs, rows_raw=rows_raw,
                           tuples_dropped=rows_raw - len(certain))
        if self.certain:
            # The first repair's rows lead the union, in its order.
            return [row for row in possible_rows if _row_key(row) in certain]
        relation = Relation(self.schema)
        relation.rows = possible_rows
        return relation.sorted_on(_output_order(self.statement)).rows


def _row_key(row: Row) -> Tuple:
    return tuple(map(value_key, row))


def _dedup(relation: Relation) -> Relation:
    """``relation`` with each row equal to an earlier one dropped."""
    first: Dict[Tuple, Row] = {}
    for row in relation.rows:
        first.setdefault(_row_key(row), row)
    result = Relation(relation.schema, name=relation.name)
    result.rows = list(first.values())
    return result


def _repair_relation(extent: Relation, chosen: Set[Tuple],
                     variants: Set[Tuple]) -> Relation:
    """``extent`` with each of its conflict clusters (``variants``) reduced
    to its ``chosen`` tuple."""
    repaired = Relation(extent.schema, name=extent.name)
    repaired.rows = [row for row, key in zip(extent.rows, map(_row_key, extent.rows))
                     if key in chosen or key not in variants]
    return repaired


def _output_order(statement) -> List[Tuple[int, bool]]:
    """``statement``'s ORDER BY (a finished union's is its finish's) as
    ``(output position, ascending)`` keys — none unless every key
    resolves to a position of an explicit select list."""
    if statement.__class__ is not Select or not statement.order_by or any(
            isinstance(item.expr, Star) for item in statement.items):
        return []
    keys = _order_keys([(item.expr, item.ascending) for item in statement.order_by],
                       [item.expr for item in statement.items],
                       output_names(statement.items))
    if any(position is None for position, _expr, _ascending in keys):
        return []
    return [(position, ascending) for position, _expr, ascending in keys]


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
