"""The interpreted reference: evaluation of SQL AST expressions over rows.

This is the executable specification the generated kernels of
:mod:`repro.relational.compile` are held to (``test_compile*.py``,
``test_batch_equivalence.py``, the interpreted baselines of
``benchmarks/bench_hotpath.py``); nothing under ``src/`` runs it.

:class:`ExpressionEvaluator` binds column references against a
:class:`Schema` (whose attribute qualifiers are the table bindings of the
enclosing query) and evaluates arithmetic, comparisons, boolean connectives,
predicates (IN, BETWEEN, LIKE, IS NULL, CASE) and scalar functions with SQL
three-valued logic: NULL propagates through arithmetic and comparisons, and
``AND``/``OR`` follow Kleene semantics.  It re-walks the AST for every row.

Aggregate calls are not evaluated by it; :class:`GroupEvaluator` substitutes
values computed per group, and :func:`reference_select` finishes a SELECT the
materializing way over it: the specification of the ``Aggregate`` operator and
of what ``lower_select`` builds.  :func:`reference_from` evaluates a whole
statement over named tables — FROM as a cartesian product, WHERE over every
combined row — the specification of what ``QueryProcessor`` builds.
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.relational.compile import _SCALAR_FUNCTIONS, like_to_regex
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import sql_compare, sql_equal
from repro.sql.ast import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Exists,
    FunctionCall,
    InList,
    IsNull,
    Join,
    Like,
    Literal,
    Node,
    Star,
    Subquery,
    TableRef,
    UnaryOp,
    Union,
    is_aggregate_call,
    walk,
)
from repro.sql.parser import DerivedTable
from repro.sql.printer import to_sql

Row = Sequence[Any]


class ExpressionEvaluator:
    """Evaluates expressions against rows of a fixed schema.

    The evaluator pre-resolves nothing: resolution happens per column
    reference at evaluation time, which keeps it usable on the concatenated
    schemas produced by joins.  A per-instance memo of resolved positions
    avoids repeated lookups on hot paths.
    """

    def __init__(self, schema: Schema,
                 subquery_executor: Optional[Callable[[Node], "object"]] = None):
        self.schema = schema
        self._positions: Dict[ColumnRef, int] = {}
        self._like_cache: Dict[str, "re.Pattern[str]"] = {}
        #: Optional callback used to evaluate scalar/EXISTS/IN subqueries.
        #: It receives the Select AST and must return a Relation.
        self._subquery_executor = subquery_executor

    # -- public API ----------------------------------------------------------

    def evaluate(self, node: Node, row: Row) -> Any:
        """Evaluate an expression over one row, returning a value or None."""
        return self._eval(node, row)

    def predicate(self, node: Node) -> Callable[[Row], Optional[bool]]:
        """Wrap an expression as a row predicate (returns True/False/None)."""

        def check(row: Row) -> Optional[bool]:
            value = self._eval(node, row)
            if value is None:
                return None
            return bool(value)

        return check

    # -- dispatch -------------------------------------------------------------

    def _eval(self, node: Node, row: Row) -> Any:
        if isinstance(node, Literal):
            return node.value
        if isinstance(node, ColumnRef):
            return row[self._position(node)]
        if isinstance(node, BinaryOp):
            return self._binary(node, row)
        if isinstance(node, UnaryOp):
            return self._unary(node, row)
        if isinstance(node, FunctionCall):
            return self._function(node, row)
        if isinstance(node, InList):
            return self._in_list(node, row)
        if isinstance(node, Between):
            return self._between(node, row)
        if isinstance(node, Like):
            return self._like(node, row)
        if isinstance(node, IsNull):
            value = self._eval(node.expr, row)
            return (value is not None) if node.negated else (value is None)
        if isinstance(node, Case):
            return self._case(node, row)
        if isinstance(node, Subquery):
            return self._scalar_subquery(node, row)
        if isinstance(node, Exists):
            return self._exists(node, row)
        if isinstance(node, Star):
            raise EvaluationError("'*' is only valid inside COUNT(*) or a select list")
        raise EvaluationError(f"cannot evaluate expression {node!r}")

    # -- pieces ---------------------------------------------------------------

    def _position(self, ref: ColumnRef) -> int:
        position = self._positions.get(ref)
        if position is None:
            position = self.schema.index_of(ref.name, ref.table)
            self._positions[ref] = position
        return position

    def _binary(self, node: BinaryOp, row: Row) -> Any:
        op = node.op.upper()

        if op == "AND":
            left = self._as_bool(self._eval(node.left, row))
            if left is False:
                return False
            right = self._as_bool(self._eval(node.right, row))
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self._as_bool(self._eval(node.left, row))
            if left is True:
                return True
            right = self._as_bool(self._eval(node.right, row))
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False

        left = self._eval(node.left, row)
        right = self._eval(node.right, row)

        if op == "=":
            return sql_equal(left, right)
        if op == "<>":
            equal = sql_equal(left, right)
            return None if equal is None else not equal
        if op in ("<", "<=", ">", ">="):
            comparison = sql_compare(left, right)
            if comparison is None:
                return None
            return {
                "<": comparison < 0,
                "<=": comparison <= 0,
                ">": comparison > 0,
                ">=": comparison >= 0,
            }[op]

        if left is None or right is None:
            return None
        if op == "+":
            return self._arith(left, right, lambda a, b: a + b)
        if op == "-":
            return self._arith(left, right, lambda a, b: a - b)
        if op == "*":
            return self._arith(left, right, lambda a, b: a * b)
        if op == "/":
            try:
                return self._arith(left, right, lambda a, b: a / b)
            except ZeroDivisionError:
                return None
        if op == "%":
            try:
                return self._arith(left, right, lambda a, b: a % b)
            except ZeroDivisionError:
                return None
        if op == "||":
            return f"{left}{right}"
        raise EvaluationError(f"unsupported operator {node.op!r}")

    @staticmethod
    def _arith(left: Any, right: Any, fn: Callable[[Any, Any], Any]) -> Any:
        if not isinstance(left, (int, float)) or isinstance(left, bool):
            raise EvaluationError(f"arithmetic on non-numeric value {left!r}")
        if not isinstance(right, (int, float)) or isinstance(right, bool):
            raise EvaluationError(f"arithmetic on non-numeric value {right!r}")
        return fn(left, right)

    @staticmethod
    def _as_bool(value: Any) -> Optional[bool]:
        if value is None:
            return None
        return bool(value)

    def _unary(self, node: UnaryOp, row: Row) -> Any:
        value = self._eval(node.operand, row)
        if node.op.upper() == "NOT":
            as_bool = self._as_bool(value)
            return None if as_bool is None else not as_bool
        if node.op == "-":
            if value is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise EvaluationError(f"cannot negate {value!r}")
            return -value
        raise EvaluationError(f"unsupported unary operator {node.op!r}")

    def _function(self, node: FunctionCall, row: Row) -> Any:
        name = node.name.upper()
        fn = _SCALAR_FUNCTIONS.get(name)
        if fn is None:
            raise EvaluationError(
                f"unknown function {name!r} (aggregates are only valid with GROUP BY handling)"
            )
        args = [self._eval(arg, row) for arg in node.args]
        try:
            return fn(*args)
        except EvaluationError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            raise EvaluationError(f"error evaluating {name}: {exc}") from exc

    def _in_list(self, node: InList, row: Row) -> Optional[bool]:
        value = self._eval(node.expr, row)

        # IN (SELECT ...) — delegate to the subquery executor.
        if len(node.items) == 1 and isinstance(node.items[0], Subquery):
            relation = self._run_subquery(node.items[0], row)
            members = [r[0] for r in relation.rows]
        else:
            members = [self._eval(item, row) for item in node.items]

        if value is None:
            return None
        saw_null = False
        for member in members:
            equal = sql_equal(value, member)
            if equal is True:
                return False if node.negated else True
            if equal is None:
                saw_null = True
        if saw_null:
            return None
        return True if node.negated else False

    def _between(self, node: Between, row: Row) -> Optional[bool]:
        value = self._eval(node.expr, row)
        low = self._eval(node.low, row)
        high = self._eval(node.high, row)
        low_cmp = sql_compare(value, low) if value is not None and low is not None else None
        high_cmp = sql_compare(value, high) if value is not None and high is not None else None
        if low_cmp is None or high_cmp is None:
            return None
        inside = low_cmp >= 0 and high_cmp <= 0
        return not inside if node.negated else inside

    def _like(self, node: Like, row: Row) -> Optional[bool]:
        value = self._eval(node.expr, row)
        pattern = self._eval(node.pattern, row)
        if value is None or pattern is None:
            return None
        # Keyed by the pattern's text: 0 and False hash alike, '0' and 'False'
        # do not match alike.
        text = str(pattern)
        regex = self._like_cache.get(text)
        if regex is None:
            regex = like_to_regex(text)
            self._like_cache[text] = regex
        matched = bool(regex.match(str(value)))
        return not matched if node.negated else matched

    def _case(self, node: Case, row: Row) -> Any:
        for condition, value in node.whens:
            if self._as_bool(self._eval(condition, row)) is True:
                return self._eval(value, row)
        if node.default is not None:
            return self._eval(node.default, row)
        return None

    # -- subqueries ------------------------------------------------------------

    def _run_subquery(self, node: Subquery, row: Row):
        if self._subquery_executor is None:
            raise EvaluationError("subqueries are not supported in this evaluation context")
        return self._subquery_executor(node.query)

    def _scalar_subquery(self, node: Subquery, row: Row) -> Any:
        relation = self._run_subquery(node, row)
        if len(relation.rows) == 0:
            return None
        if len(relation.rows) > 1 or len(relation.schema) != 1:
            raise EvaluationError("scalar subquery must return a single value")
        return relation.rows[0][0]

    def _exists(self, node: Exists, row: Row) -> bool:
        relation = self._run_subquery(node.subquery, row)
        result = len(relation.rows) > 0
        return not result if node.negated else result


# ---------------------------------------------------------------------------
# Grouping and the finish of a SELECT, in plain Python over the interpreter
# ---------------------------------------------------------------------------


class GroupEvaluator(ExpressionEvaluator):
    """An evaluator that substitutes pre-computed values for aggregate calls."""

    def __init__(self, schema: Schema, aggregates: Dict[str, Any], subquery_executor=None):
        super().__init__(schema, subquery_executor)
        self._aggregates = aggregates

    def _eval(self, node: Node, row: Row) -> Any:
        if is_aggregate_call(node):
            for argument in node.args:  # type: ignore[attr-defined]
                if any(is_aggregate_call(inner) for inner in walk(argument)):
                    raise EvaluationError("aggregate calls cannot be nested")
            return self._aggregates[to_sql(node)]
        return super()._eval(node, row)


def group_key(value: Any) -> Any:
    """GROUP BY / DISTINCT equivalence: numbers by value, NULLs together."""
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float, Decimal)):
        return ("n", float(value))
    if value is None:
        return ("null",)
    return ("s", str(value))


def reference_aggregate(call: FunctionCall, rows: Sequence[Row],
                        evaluator: ExpressionEvaluator) -> Any:
    """One aggregate over one group, the slow and obvious way."""
    name = call.name.upper()
    if name == "COUNT" and (not call.args or isinstance(call.args[0], Star)):
        return len(rows)
    if not call.args:
        raise EvaluationError(f"aggregate {name} requires an argument")
    values = [value for value in (evaluator.evaluate(call.args[0], row) for row in rows)
              if value is not None]
    if call.distinct:
        seen: List[Any] = []
        for value in values:
            if value not in seen:
                seen.append(value)
        values = seen
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name in ("SUM", "AVG"):
        total = 0
        for value in values:
            total = total + value
        return total if name == "SUM" else total / len(values)
    return min(values) if name == "MIN" else max(values)


def reference_groups(rows: Sequence[Row], schema: Schema,
                     group_by: Sequence[Node]) -> List[List[Row]]:
    """The groups of ``rows`` in first-seen order; without GROUP BY one
    group, an empty input included."""
    if not group_by:
        return [list(rows)]
    evaluator = ExpressionEvaluator(schema)
    groups: Dict[Tuple, List[Row]] = {}
    for row in rows:
        key = tuple(group_key(evaluator.evaluate(expr, row)) for expr in group_by)
        groups.setdefault(key, []).append(row)
    return list(groups.values())


def reference_select(select, rows: Sequence[Row], schema: Schema,
                     subquery_executor=None) -> List[Row]:
    """The finish of ``select`` over its joined, filtered input ``rows``:
    grouping, HAVING, the select list, ORDER BY (output columns by alias or
    position, anything else over the row beneath), DISTINCT, LIMIT — the
    materializing way, every expression interpreted."""
    from repro.relational.query import expand_star_items, output_names
    from repro.relational.types import sort_key

    items = expand_star_items(select.items, schema)
    names = [name.lower() for name in output_names(items)]
    clauses = [item.expr for item in items] + [item.expr for item in select.order_by]
    if select.having is not None:
        clauses.append(select.having)
    calls = {to_sql(node): node for clause in clauses for node in _own_nodes(clause)
             if is_aggregate_call(node)}

    # (output row, evaluator of the row beneath it, that row)
    finished: List[Tuple[Row, ExpressionEvaluator, Row]] = []
    if calls or select.group_by or select.having is not None:
        plain = ExpressionEvaluator(schema, subquery_executor)
        for group in reference_groups(rows, schema, select.group_by):
            evaluator = GroupEvaluator(
                schema,
                {text: reference_aggregate(call, group, plain) for text, call in calls.items()},
                subquery_executor)
            representative = group[0] if group else (None,) * len(schema)
            if select.having is not None:
                if evaluator.predicate(select.having)(representative) is not True:
                    continue
            finished.append((
                tuple(evaluator.evaluate(item.expr, representative) for item in items),
                evaluator, representative))
    else:
        evaluator = ExpressionEvaluator(schema, subquery_executor)
        finished = [(tuple(evaluator.evaluate(item.expr, row) for item in items),
                     evaluator, row) for row in rows]

    for order in reversed(select.order_by):
        expr = order.expr
        if isinstance(expr, ColumnRef) and expr.table is None and expr.name.lower() in names:
            position = names.index(expr.name.lower())
        elif isinstance(expr, Literal) and type(expr.value) is int:
            position = expr.value - 1
            if not 0 <= position < len(items):
                continue
        else:
            position = None
        finished.sort(
            key=lambda entry: sort_key(
                entry[0][position] if position is not None
                else entry[1].evaluate(expr, entry[2])),
            reverse=not order.ascending)

    output = [entry[0] for entry in finished]
    if select.distinct:
        seen = set()
        output = [row for row in output
                  if (key := tuple(map(group_key, row))) not in seen and not seen.add(key)]
    if select.limit is not None or select.offset is not None:
        offset = select.offset or 0
        output = output[offset:None if select.limit is None else offset + select.limit]
    return output


def _own_nodes(node: Node):
    """``walk`` that stays out of subqueries: their aggregates are their own."""
    yield node
    if not isinstance(node, Subquery):
        for child in node.children():
            yield from _own_nodes(child)


# ---------------------------------------------------------------------------
# A whole statement, FROM first, the brute-force way
# ---------------------------------------------------------------------------


def reference_from(statement, tables: Dict[str, Relation]) -> List[Row]:
    """The rows of ``statement`` — a Select or a Union — over ``tables``
    (name → relation), in order.

    FROM is the cartesian product of its items in FROM order, an explicit
    join a nested loop over its sides (LEFT/RIGHT padding an unmatched row of
    that side with NULLs, in that side's order), and a derived table its
    query's rows.  WHERE is interpreted over every combined row, subqueries
    evaluated the same way, and :func:`reference_select` finishes.  A UNION
    concatenates its branches and, unless ALL, drops a row equal to an
    earlier one."""
    named = {name.lower(): relation for name, relation in tables.items()}
    return _reference_query(statement, named).rows


def _reference_query(statement, tables: Dict[str, Relation]) -> Relation:
    from repro.relational.query import expand_star_items, output_names

    if isinstance(statement, Union):
        branches = [_reference_query(select, tables) for select in statement.selects]
        rows = [row for branch in branches for row in branch.rows]
        if not statement.all:
            seen = set()
            rows = [row for row in rows if row not in seen and not seen.add(row)]
        return _relation(branches[0].schema, rows)

    def run(query):
        return _reference_query(query, tables)

    rows: List[Row] = [()]
    schema = Schema(())
    for item in statement.tables:
        item_rows, item_schema = _reference_item(item, tables, run)
        rows = [left + right for left in rows for right in item_rows]
        schema = schema.concat(item_schema)
    if statement.where is not None:
        keep = ExpressionEvaluator(schema, run).predicate(statement.where)
        rows = [row for row in rows if keep(row) is True]
    names = output_names(expand_star_items(statement.items, schema))
    return _relation(Schema(Attribute(name) for name in names),
                     reference_select(statement, rows, schema, run))


def _reference_item(node: Node, tables: Dict[str, Relation],
                    run) -> Tuple[List[Row], Schema]:
    """One FROM item's rows and its schema, qualified by its binding."""
    if isinstance(node, TableRef):
        relation = tables[node.name.lower()]
        return list(relation.rows), relation.schema.with_qualifier(node.binding)
    if isinstance(node, DerivedTable):
        relation = run(node.query)
        return relation.rows, relation.schema.with_qualifier(node.alias)
    assert isinstance(node, Join)
    left_rows, left_schema = _reference_item(node.left, tables, run)
    right_rows, right_schema = _reference_item(node.right, tables, run)
    schema = left_schema.concat(right_schema)
    keep = (ExpressionEvaluator(schema, run).predicate(node.condition)
            if node.condition is not None else lambda row: True)
    rows: List[Row] = []
    if node.kind == "RIGHT":
        for right in right_rows:
            matched = [left + right for left in left_rows if keep(left + right) is True]
            rows.extend(matched or [(None,) * len(left_schema) + right])
    else:
        for left in left_rows:
            matched = [left + right for right in right_rows if keep(left + right) is True]
            if not matched and node.kind == "LEFT":
                matched = [left + (None,) * len(right_schema)]
            rows.extend(matched)
    return rows, schema


def _relation(schema: Schema, rows: List[Row]) -> Relation:
    relation = Relation(schema)
    relation.rows = list(rows)
    return relation
