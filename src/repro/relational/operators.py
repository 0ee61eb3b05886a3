"""Physical operators: batch-at-a-time building blocks for query execution.

The multi-database access engine composes these operators into execution
plans for the *local* part of a mediated query — the part that cannot be
pushed down to any single source (typically cross-source joins, final
projections and ordering).  The local SQL processor in
:mod:`repro.relational.query` uses the same operators so that source-side and
mediator-side execution share one code path.

Every operator exposes:

* ``schema`` — the output schema;
* ``batches()`` — a generator of **row batches**: non-empty plain lists of
  row tuples, the unit operators exchange.  A batch belongs to whoever
  receives it (producers never reuse one), its size is whatever the producer
  found convenient, and answers never depend on it: rows and row order equal
  those of one-row batches.  ``__iter__`` is derived — defined once, on
  :class:`PhysicalOperator`, as the flattening of ``batches()`` — so
  ``list(operator)`` keeps working;
* ``explain(indent)`` — a human-readable plan rendering;
* ``estimated_rows`` — a cheap cardinality guess used by the cost model;
* ``rebind(children, budget)`` — a copy over other inputs that shares what
  the constructor derived from the AST (schemas, kernels).  A constructor is
  the *lowering* of its node, ``rebind`` the per-execution *binding*: a tree
  built once is the template every execution of a cached plan copies.

Operators that start a batch sequence (scans, sorted output, spill readers)
size it by :data:`BATCH_RAMP`; everything else maps input batches to output
batches.  Budgeted operators reserve a batch's rows in one step that stops at
the row a row-at-a-time engine would have been refused at
(``MemoryBudget.reserve_prefix``), so that is the row they start spilling at
(PERFORMANCE.md, "Batch-at-a-time execution").  Every ``batches()`` generator closes its children's generators
when it finishes *or is closed*, so closing the root releases every budget
reservation and spill file in the tree deterministically.
"""

from __future__ import annotations

import heapq
import weakref
from contextlib import closing
from decimal import Decimal
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import EvaluationError, ExecutionError, SchemaError
from repro.relational.budget import MemoryBudget, SpillFile, SpillPartitions
from repro.relational.compile import (
    CompiledExpr, ExpressionCompiler, KernelScope, _hash_key, row_sizes,
)
from repro.relational.relation import Relation, Row
from repro.relational.schema import Attribute, Schema, expression_type
from repro.sql.ast import ColumnRef, FunctionCall, Node, Star

#: Row counts of the first batches a batch sequence produces; the last entry
#: repeats.  The ramp keeps a ``LIMIT k`` or a cursor's first ``fetchmany``
#: from paying for much more than it reads, while long scans settle on
#: batches big enough that per-batch bookkeeping vanishes.
BATCH_RAMP = (64, 256, 1024)

#: Most left x right pairs one nested-loop batch covers, so a
#: wide probe batch against a big inner side never materializes (or grinds
#: through) millions of combinations between two yields.
CROSS_PAIRS_PER_BATCH = 64 * 1024

Batch = List[Row]


def _ramp_batches(rows: Iterable[Row]) -> Iterator[Batch]:
    """Cut a row sequence (a list, a spill reader, a merge) into fresh
    batches sized by :data:`BATCH_RAMP`, its last entry repeating."""
    iterator = iter(rows)
    for size in chain(BATCH_RAMP[:-1], repeat(BATCH_RAMP[-1])):
        batch = list(islice(iterator, size))
        if not batch:
            return
        yield batch


def _pair_chunks(batch: Batch, inner_rows: int) -> Iterator[Batch]:
    """Slices of a probe batch covering at most CROSS_PAIRS_PER_BATCH pairs."""
    step = max(1, CROSS_PAIRS_PER_BATCH // max(inner_rows, 1))
    if step >= len(batch):
        yield batch
        return
    for start in range(0, len(batch), step):
        yield batch[start:start + step]


def _partitions(keys: Iterable[Any], fanout: int) -> Iterator[int]:
    """The hash partition of each key (``hash(key) % fanout``), mapped in C:
    the indices a spilled operator hands ``SpillPartitions.scatter``."""
    return map(fanout.__rmod__, map(hash, keys))


class PhysicalOperator:
    """Base class of all physical operators."""

    #: Short name used in EXPLAIN output.
    operator_name = "operator"
    #: Names of the attributes holding the input operators, in order.
    _inputs: Tuple[str, ...] = ()

    @property
    def schema(self) -> Schema:
        """The output schema; unless overridden, the first input's."""
        return getattr(self, self._inputs[0]).schema

    def batches(self) -> Iterator[Batch]:
        """Yield the output as non-empty row batches (see the module docstring)."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Row]:
        return chain.from_iterable(self.batches())

    @property
    def children(self) -> Sequence["PhysicalOperator"]:
        return tuple(getattr(self, name) for name in self._inputs)

    def rebind(self, children: Sequence["PhysicalOperator"],
               budget: Optional[MemoryBudget] = None) -> "PhysicalOperator":
        """A copy of this operator over other inputs, drawing on ``budget``.

        What the constructor derived from the AST — schemas, kernels, the
        nodes EXPLAIN renders — is shared with the copy, so an operator tree
        built once serves as the template of any number of (concurrent)
        executions: each binds its own copies and only those ever run.  The
        new inputs must have the schemas the template was built over.
        """
        clone = object.__new__(self.__class__)
        state = clone.__dict__
        state.update(self.__dict__)
        state.update(zip(self._inputs, children))
        if "budget" in state:
            state["budget"] = budget
        return clone

    @property
    def estimated_rows(self) -> int:
        """A crude cardinality estimate (children's product by default)."""
        estimate = 1
        for child in self.children:
            estimate *= max(child.estimated_rows, 1)
        return estimate

    def explain(self, indent: int = 0) -> str:
        """Render this operator subtree as an indented plan."""
        line = "  " * indent + f"{self.operator_name}{self._explain_details()}"
        lines = [line]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _explain_details(self) -> str:
        return ""

    def to_relation(self, name: Optional[str] = None) -> Relation:
        """Fully materialize the operator's output."""
        relation = Relation(self.schema, name=name)
        relation.rows = list(self)
        return relation


class TableScan(PhysicalOperator):
    """Scan a materialized relation, optionally re-qualifying its schema."""

    operator_name = "Scan"

    def __init__(self, relation: Relation, binding: Optional[str] = None,
                 leaf: Optional[int] = None):
        self.relation = relation
        self.binding = binding
        #: Which input of its plan a template's scan stands for (see ``over``).
        self.leaf = leaf
        self._schema = relation.schema.with_qualifier(binding) if binding else relation.schema

    def over(self, relation: Relation) -> "TableScan":
        """A copy of this scan reading ``relation`` (which has its schema)."""
        clone = self.rebind(())
        clone.relation = relation
        return clone

    @property
    def schema(self) -> Schema:
        return self._schema

    def batches(self) -> Iterator[Batch]:
        return _ramp_batches(self.relation.rows)

    @property
    def estimated_rows(self) -> int:
        return len(self.relation)

    def _explain_details(self) -> str:
        label = self.relation.name or "<anonymous>"
        alias = f" AS {self.binding}" if self.binding and self.binding != label else ""
        return f"({label}{alias}, {len(self.relation)} rows)"


class Filter(PhysicalOperator):
    """Keep rows satisfying a SQL predicate (three-valued: NULL drops the row)."""

    operator_name = "Filter"
    _inputs = ("child",)

    def __init__(self, child: PhysicalOperator, condition: Node,
                 scope: Optional[KernelScope] = None):
        self.child = child
        self.condition = condition
        self._predicate = ExpressionCompiler(child.schema, scope=scope).predicate(condition)

    def batches(self) -> Iterator[Batch]:
        predicate = self._predicate
        with closing(self.child.batches()) as child_batches:
            for batch in child_batches:
                kept = [row for row in batch if predicate(row) is True]
                if kept:
                    yield kept

    @property
    def estimated_rows(self) -> int:
        # Default filter selectivity of 1/3, floor of 1.
        return max(self.child.estimated_rows // 3, 1)

    def _explain_details(self) -> str:
        from repro.sql.printer import to_text

        return f"({to_text(self.condition)})"


class Project(PhysicalOperator):
    """Compute output expressions for every input row."""

    operator_name = "Project"
    _inputs = ("child",)

    def __init__(self, child: PhysicalOperator, expressions: Sequence[Node],
                 names: Sequence[str], scope: Optional[KernelScope] = None):
        if len(expressions) != len(names):
            raise ExecutionError("projection expressions and names must align")
        self.child = child
        self.expressions = list(expressions)
        self.names = list(names)
        self._project = ExpressionCompiler(child.schema, scope=scope).projection(self.expressions)
        self._schema = Schema(
            Attribute(name=name, type=expression_type(expr, child.schema))
            for name, expr in zip(self.names, self.expressions)
        )

    @property
    def schema(self) -> Schema:
        return self._schema

    def batches(self) -> Iterator[Batch]:
        project = self._project
        with closing(self.child.batches()) as child_batches:
            for batch in child_batches:
                yield list(map(project, batch))

    @property
    def estimated_rows(self) -> int:
        return self.child.estimated_rows

    def _explain_details(self) -> str:
        return f"({', '.join(self.names)})"


def _group_key(value: Any) -> Any:
    """What GROUP BY and SELECT DISTINCT compare: 1, 1.0 and Decimal(1) are
    one value, and so are all NULLs."""
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float, Decimal)):
        return ("n", float(value))
    if value is None:
        return ("null",)
    return ("s", str(value))


def _group_keys(values: Sequence[Any]) -> Tuple:
    """:func:`_group_key`, value by value: the key of a GROUP BY group and
    of a SELECT DISTINCT row."""
    return tuple(map(_group_key, values))


def _compute_aggregate(call: FunctionCall, rows: List[Row],
                       arg_fn: Optional[CompiledExpr]) -> Any:
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
        values = list(dict.fromkeys(values))  # first occurrences, in order

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


class Aggregate(PhysicalOperator):
    """Group the input on ``group_by`` and compute the aggregate ``calls``.

    One row leaves per group, in first-seen order: the group's first input
    row — the representative the expressions above read plain columns from —
    followed by one value per call.  The schema is the child's plus one
    column per call (:meth:`ref` names column ``position``), which is how a
    HAVING or a select list over aggregates is an ordinary ``Filter`` or
    ``Project`` above this operator.  Without ``group_by`` the input is one
    group, an empty input included: an all-NULL representative, ``COUNT`` 0.
    The input is buffered, outside any budget; a group's aggregates are
    computed when its row is pulled.
    """

    operator_name = "Aggregate"
    _inputs = ("child",)

    #: Qualifier of the appended columns.
    QUALIFIER = "#aggregate"

    @classmethod
    def ref(cls, position: int) -> ColumnRef:
        """A reference to the value of call ``position``, for use above.  No
        statement can spell its name (a double quote ends a quoted
        identifier), so no unqualified reference of a statement meets it."""
        return ColumnRef(name=f'"{position + 1}', table=cls.QUALIFIER)

    def __init__(self, child: PhysicalOperator, group_by: Sequence[Node],
                 calls: Sequence[FunctionCall], scope: Optional[KernelScope] = None):
        schema = child.schema
        compiler = ExpressionCompiler(schema, scope=scope)
        self.child = child
        self.group_by = list(group_by)
        self.calls = list(calls)
        self._group_values = compiler.projection(self.group_by) if self.group_by else None
        # A call's argument is compiled once, not once per group.
        self._arguments = [
            compiler.compile(call.args[0])
            if call.args and not isinstance(call.args[0], Star) else None
            for call in self.calls
        ]
        self._schema = schema.extended(tuple(
            Attribute(name=self.ref(position).name, type=expression_type(call, schema),
                      qualifier=self.QUALIFIER)
            for position, call in enumerate(self.calls)
        ))

    @property
    def schema(self) -> Schema:
        return self._schema

    def batches(self) -> Iterator[Batch]:
        group_values = self._group_values
        if group_values is None:
            groups = [list(self.child)]
        else:
            keyed: Dict[Tuple, List[Row]] = {}
            with closing(self.child.batches()) as child_batches:
                for batch in child_batches:
                    for row in batch:
                        keyed.setdefault(_group_keys(group_values(row)), []).append(row)
            groups = list(keyed.values())
        nulls = (None,) * len(self.child.schema)
        aggregates = list(zip(self.calls, self._arguments))
        return _ramp_batches(
            (rows[0] if rows else nulls)
            + tuple([_compute_aggregate(call, rows, argument)
                     for call, argument in aggregates])
            for rows in groups
        )

    def _explain_details(self) -> str:
        from repro.sql.printer import to_text

        calls = ", ".join(f"{self.ref(position).name} = {to_text(call)}"
                          for position, call in enumerate(self.calls))
        keys = ", ".join(to_text(expr) for expr in self.group_by)
        return f"({'; '.join(part for part in (keys, calls) if part)})"


class NestedLoopJoin(PhysicalOperator):
    """Theta join evaluated as a filtered cross product.

    With ``outer`` "LEFT" ("RIGHT") that side drives the loop, and a row of
    it that matches nothing leaves once, NULLs standing for the other side.
    Rows leave in driving-side order, each one's matches in the order of the
    other side."""

    operator_name = "NestedLoopJoin"
    _inputs = ("left", "right")

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator, condition: Optional[Node],
                 scope: Optional[KernelScope] = None, outer: Optional[str] = None):
        self.left = left
        self.right = right
        self.condition = condition
        self.outer = outer
        self._schema = left.schema.concat(right.schema)
        self._predicate = (
            ExpressionCompiler(self._schema, scope=scope).predicate(condition)
            if condition is not None else None
        )

    @property
    def schema(self) -> Schema:
        return self._schema

    def batches(self) -> Iterator[Batch]:
        outer, predicate = self.outer, self._predicate
        driving, inner = (self.right, self.left) if outer == "RIGHT" else (self.left, self.right)
        inner_rows = list(inner)
        nulls = (None,) * len(inner.schema)
        with closing(driving.batches()) as driving_batches:
            for batch in driving_batches:
                for chunk in _pair_chunks(batch, len(inner_rows)):
                    if outer is not None:
                        joined = [joined_row for row in chunk
                                  for joined_row in self._outer_rows(row, inner_rows, nulls)]
                    elif predicate is None:
                        joined = [left_row + right_row
                                  for left_row in chunk for right_row in inner_rows]
                    else:
                        joined = [combined
                                  for left_row in chunk for right_row in inner_rows
                                  if predicate(combined := left_row + right_row) is True]
                    if joined:
                        yield joined

    def _outer_rows(self, row: Row, inner_rows: List[Row], nulls: Row) -> List[Row]:
        """Driving-side ``row`` joined to its matches, or padded once."""
        predicate = self._predicate or (lambda _row: True)
        if self.outer == "RIGHT":
            return ([combined for other in inner_rows if predicate(combined := other + row) is True]
                    or [nulls + row])
        return ([combined for other in inner_rows if predicate(combined := row + other) is True]
                or [row + nulls])

    @property
    def estimated_rows(self) -> int:
        estimate = self.left.estimated_rows * self.right.estimated_rows
        return max(estimate // 3, 1) if self.condition is not None else estimate

    def _explain_details(self) -> str:
        if self.condition is None:
            return ""
        from repro.sql.printer import to_text

        kind = f"{self.outer} " if self.outer is not None else ""
        return f"({kind}{to_text(self.condition)})"


class _KeptBuild:
    """The one slot a :class:`HashJoin` and its ``rebind`` copies share, for
    in-memory builds over a build input that names its origin, as
    ``(origin ref, buckets, rows, bytes)``.  The first such build only names
    its origin (buckets None): a plan that runs once keeps nothing.  A later
    build over that same origin keeps its buckets, read-only from then on.
    The slot empties when the origin dies — when the request cache drops or
    replaces that entry — and dies itself with the cached plan."""

    __slots__ = ("build", "__weakref__")

    def __init__(self) -> None:
        self.build: Optional[Tuple[Any, Optional[Dict[Any, List[Row]]], int, int]] = None

    def offer(self, origin: Relation, buckets: Dict[Any, List[Row]],
              rows: int, nbytes: int) -> None:
        """Note a finished in-memory build over ``origin``."""
        held = self.build
        if held is None or held[0]() is not origin:
            buckets, rows, nbytes = None, 0, 0
        slot = weakref.ref(self)  # weak: the callback must not pin the buckets

        def forget(dead: "weakref.ref") -> None:
            kept = slot()
            if kept is not None and kept.build is not None and kept.build[0] is dead:
                kept.build = None

        self.build = (weakref.ref(origin, forget), buckets, rows, nbytes)


class HashJoin(PhysicalOperator):
    """Equi-join on one or more key expressions per side, with an optional
    residual filter.

    ``left_key``/``right_key`` accept a single expression (the historical
    signature) or an aligned sequence of expressions forming a composite key;
    the planner emits composite keys when a join step carries several
    equi-join conjuncts, so none of them degrade into per-pair residual
    evaluation.

    When the build input is a bare scan of a relation that names its
    ``origin`` (a staged request-cache hit) and the build stayed in memory,
    the template notes the origin; the second such build over the same
    origin is kept, and every execution over it after that reserves its
    bytes in one piece and probes it.  Anything else — another or no origin,
    a refused reservation, a spilled build — builds as ever.

    With ``anti`` the join is an anti-join: the probe emits, with the left
    schema, each left row that no right row matches — a NULL key matches
    nothing, so such a row is emitted — under the same budget, kept build and
    Grace spill."""

    operator_name = "HashJoin"
    _inputs = ("left", "right")

    #: Build-side partitions used by the spilled (Grace) fallback.
    SPILL_PARTITIONS = 32

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_key, right_key, residual: Optional[Node] = None,
                 scope: Optional[KernelScope] = None,
                 budget: Optional[MemoryBudget] = None, anti: bool = False):
        self.left = left
        self.right = right
        self.budget = budget
        self.anti = anti
        #: Whether the last iteration fell back to partitioned spilling.
        self.spilled = False
        #: Whether the last iteration probed the kept build.
        self.build_shared = False
        self._kept = _KeptBuild()
        self.left_keys: List[Node] = list(left_key) if not isinstance(left_key, Node) else [left_key]
        self.right_keys: List[Node] = list(right_key) if not isinstance(right_key, Node) else [right_key]
        if len(self.left_keys) != len(self.right_keys) or not self.left_keys:
            raise ExecutionError("hash join requires aligned, non-empty key lists")
        if anti and residual is not None:
            raise ExecutionError("an anti-join takes no residual")
        self.residual = residual
        joined = left.schema.concat(right.schema)
        self._schema = left.schema if anti else joined
        # The build kernel keys (and sizes) a right batch into the buckets,
        # skipping a row whose key has a NULL or NaN part (it can match
        # nothing); the probe kernel keys a left batch the same way, looks it
        # up and applies the residual in one loop.
        self._build = ExpressionCompiler(right.schema, scope=scope).build(self.right_keys)
        self._probe = ExpressionCompiler(joined, scope=scope).probe(
            self.left_keys, len(left.schema), residual, anti)

    @property
    def schema(self) -> Schema:
        return self._schema

    def batches(self) -> Iterator[Batch]:
        budget = self.budget
        fanout = self.SPILL_PARTITIONS
        build = self._build
        self.spilled = self.build_shared = False
        buckets: Dict[Any, List[Row]] = {}
        build_bytes = 0
        build_rows = 0
        build_spill: Optional[SpillPartitions] = None
        probe_spill: Optional[SpillPartitions] = None
        right = self.right
        origin = right.relation.origin if right.__class__ is TableScan else None
        kept = self._kept.build if origin is not None else None
        try:
            if (kept is not None and kept[1] is not None and kept[0]() is origin
                    and (budget is None or budget.try_reserve(kept[3]))):
                buckets, build_rows, build_bytes = kept[1:]
                self.build_shared = True
            with closing(right.batches()) as right_batches:
                # A shared build reads nothing: the scan is closed unstarted.
                for batch in () if self.build_shared else right_batches:
                    if build_spill is None:
                        if budget is None:
                            build(batch, buckets, None)
                            continue
                        sizes = []
                        build(batch, buckets, sizes)
                        fitted, reserved = budget.reserve_prefix(sizes)
                        build_bytes += reserved
                        build_rows += fitted
                        if fitted == len(sizes):
                            continue
                        # The build side outgrew the budget at keyed row
                        # ``fitted``: take it and the rows after it back out
                        # of the buckets, switch to Grace partitioning — flush
                        # the buckets built so far to the build partitions —
                        # and keep partitioning.
                        keys, rows = build(batch, None, None)
                        keys, rows = keys[fitted:], rows[fitted:]
                        for key in reversed(keys):
                            bucket = buckets[key]
                            bucket.pop()
                            if not bucket:
                                del buckets[key]
                        build_spill = SpillPartitions(fanout, "hashjoin-build-")
                        build_spill.scatter(
                            _partitions([key for key, bucket in buckets.items() for _ in bucket],
                                        fanout),
                            chain.from_iterable(buckets.values()))
                        budget.record_spill(build_rows, build_bytes)
                        budget.release(build_bytes)
                        build_bytes = 0
                        buckets = {}
                        self.spilled = True
                    else:
                        keys, rows = build(batch, None, None)
                    build_spill.scatter(_partitions(keys, fanout), rows)

            probe = self._probe
            anti = self.anti
            if build_spill is None:
                if origin is not None and budget is not None and not self.build_shared:
                    self._kept.offer(origin, buckets, build_rows, build_bytes)
                matches = buckets.get
                with closing(self.left.batches()) as left_batches:
                    for batch in left_batches:
                        joined = probe(batch, matches)
                        if joined:
                            yield joined
                return

            # Grace fallback: partition the (streamed-once) probe side by the
            # same hash, then join partition by partition.  Output order is
            # deterministic — partitions in index order, probe order within
            # each — but differs from the in-memory build's probe order.  An
            # anti-join's NULL-key row lands in ``hash(None)``'s partition,
            # where it matches nothing.
            probe_spill = SpillPartitions(fanout, "hashjoin-probe-")
            with closing(self.left.batches()) as left_batches:
                for batch in left_batches:
                    keys, rows = probe(batch, None)
                    probe_spill.scatter(_partitions(keys, fanout), rows)

            def partition_joins() -> Iterator[Batch]:
                for index in range(fanout):
                    partition_buckets: Dict[Any, List[Row]] = {}
                    for frame in build_spill.read(index):
                        build(frame, partition_buckets, None)
                    matches = partition_buckets.get
                    for frame in probe_spill.read(index) if partition_buckets or anti else ():
                        yield probe(frame, matches)

            yield from _ramp_batches(chain.from_iterable(partition_joins()))
        finally:
            for spill in (build_spill, probe_spill):
                if spill is not None:
                    spill.close()
            if budget is not None and build_bytes:
                budget.release(build_bytes)

    @property
    def estimated_rows(self) -> int:
        if self.anti:
            return self.left.estimated_rows
        return max(self.left.estimated_rows, self.right.estimated_rows)

    def _explain_details(self) -> str:
        from repro.sql.printer import to_text

        keys = " AND ".join(
            f"{to_text(lk)} = {to_text(rk)}"
            for lk, rk in zip(self.left_keys, self.right_keys)
        )
        detail = f"({'anti ' if self.anti else ''}{keys}"
        if self.residual is not None:
            detail += f", residual {to_text(self.residual)}"
        return detail + ")"


def _default_distinct_key(row: Row) -> Tuple:
    return tuple(_hash_key(value) if value is not None else None for value in row)


class Distinct(PhysicalOperator):
    """Remove duplicate rows, preserving first-occurrence order.

    ``key`` customizes the duplicate test (a callable mapping a row to a
    hashable, picklable key); the default normalizes numerics the same way the
    hash join does.  With a :class:`MemoryBudget`, a seen-set that outgrows
    the budget triggers an external two-phase dedup: seen keys and the
    remaining input are hash-partitioned into one spill file, each partition is
    deduplicated independently, and survivors merge back **in original input
    order** — the spilled path yields exactly the rows, in exactly the order,
    of the in-memory path.
    """

    operator_name = "Distinct"
    _inputs = ("child",)

    #: Partition fan-out of the spilled dedup.
    SPILL_PARTITIONS = 32

    def __init__(self, child: PhysicalOperator,
                 budget: Optional[MemoryBudget] = None,
                 key: Optional[Callable[[Row], Tuple]] = None):
        self.child = child
        self.budget = budget
        self._key = key or _default_distinct_key
        self._sizes = row_sizes(len(child.schema))
        #: Whether the last iteration fell back to partitioned spilling.
        self.spilled = False

    def batches(self) -> Iterator[Batch]:
        key_fn = self._key
        budget = self.budget
        self.spilled = False
        seen = set()
        seen_bytes = 0
        consumed = 0  # input rows of the batches before the current one
        child_batches = self.child.batches()
        try:
            for batch in child_batches:
                fresh: Batch = []
                keys = []
                positions = []
                for position, row in enumerate(batch):
                    key = key_fn(row)
                    if key not in seen:
                        seen.add(key)
                        fresh.append(row)
                        keys.append(key)
                        positions.append(position)
                consumed += len(batch)
                if not fresh:
                    continue
                if budget is None:
                    yield fresh
                    continue
                fitted, reserved = budget.reserve_prefix(self._sizes(fresh))
                seen_bytes += reserved
                if fitted == len(fresh):
                    yield fresh
                    continue
                # Row ``fitted`` of the fresh ones was refused: the rows before
                # it leave as usual, it and everything after it (the rest of
                # this batch included) dedup externally.
                seen.difference_update(keys[fitted:])
                if fitted:
                    yield fresh[:fitted]
                at = positions[fitted]
                # The spill path releases (and re-accounts) the seen-set
                # itself; zero the local so the finally does not double-release.
                spill_bytes, seen_bytes = seen_bytes, 0
                yield from self._spill_remainder(
                    chain([batch[at:]], child_batches), consumed - len(batch) + at,
                    seen, spill_bytes)
                return
        finally:
            # Runs on exhaustion *and* on early termination (a downstream
            # LIMIT closing this generator): the reservation never outlives
            # the operator, and the child is closed with it.
            child_batches.close()
            if budget is not None and seen_bytes:
                budget.release(seen_bytes)

    def _spill_remainder(self, remainder: Iterator[Batch], sequence: int,
                         seen, seen_bytes: int) -> Iterator[Batch]:
        """External dedup of everything not yet emitted: the ``remainder``
        batches, whose first row is input row ``sequence``.

        Keys already emitted become suppression markers in their partitions
        (they sort before any row, being written first); remaining rows carry
        their input sequence number so the surviving first occurrences can be
        merged back into global input order.
        """
        budget = self.budget
        key_fn = self._key
        fanout = self.SPILL_PARTITIONS
        self.spilled = True
        partitions = SpillPartitions(fanout, "distinct-")
        survivors = SpillPartitions(fanout, "distinct-out-")
        try:
            emitted = list(seen)
            partitions.scatter(_partitions(emitted, fanout), zip(repeat(None), emitted))
            budget.record_spill(len(seen), seen_bytes)
            budget.release(seen_bytes)
            seen.clear()

            for batch in remainder:
                keys = list(map(key_fn, batch))
                partitions.scatter(
                    _partitions(keys, fanout),
                    zip(range(sequence, sequence + len(batch)), batch, keys))
                sequence += len(batch)

            # Phase 2: per-partition dedup (markers first, then rows in input
            # order); survivors stream out per partition, already
            # sequence-sorted because partitions preserve write order.
            for index in range(fanout):
                local_seen = set()
                for frame in partitions.read(index):
                    kept = []
                    for item in frame:
                        if item[0] is None:
                            local_seen.add(item[1])
                        elif item[2] not in local_seen:
                            local_seen.add(item[2])
                            kept.append(item[:2])
                    survivors.scatter(repeat(index), kept)
            partitions.close()

            merged = heapq.merge(
                *[chain.from_iterable(survivors.read(index)) for index in range(fanout)],
                key=itemgetter(0),
            )
            yield from _ramp_batches(map(itemgetter(1), merged))
        finally:
            partitions.close()
            survivors.close()

    @property
    def estimated_rows(self) -> int:
        return self.child.estimated_rows


class Sort(PhysicalOperator):
    """Sort on a list of ``(source, ascending)`` keys, a source an expression
    over the input row or an ``int`` position of it (how a SELECT's lowering
    orders by output columns).

    The whole ORDER BY is one generated key (``ExpressionCompiler.order_key``):
    the in-memory sort, the sort of a run, the external merge and the top-k
    heap all compare its flat tuples.  By default the input is buffered and
    sorted in memory.  Two extensions serve the streaming execution core:

    * ``budget`` — a shared :class:`MemoryBudget`; when buffering the input
      would exceed it, the buffered prefix is sorted and spilled as a run,
      and the final output is an external merge over the (sorted) runs.  The
      merged order is byte-identical to the in-memory sort, including
      stability: runs partition the input by arrival time and
      :func:`heapq.merge` is stable across its inputs.
    * ``limit`` — a top-k bound (LIMIT + OFFSET already combined by the
      caller): only the ``limit`` smallest rows are kept, in a bounded heap
      that never spills.
    """

    operator_name = "Sort"
    _inputs = ("child",)

    #: Smallest buffer worth spilling as a run.  Without a floor, a budget
    #: pinned by *another* operator would degenerate into one run (one open
    #: temp file) per input row; with it, runs are at least
    #: ``min(this, limit/2)`` bytes, bounding open files to input/run size.
    MIN_SPILL_RUN_BYTES = 32 * 1024

    def __init__(self, child: PhysicalOperator,
                 keys: Sequence[Tuple[Union[Node, int], bool]],
                 scope: Optional[KernelScope] = None,
                 budget: Optional[MemoryBudget] = None,
                 limit: Optional[int] = None):
        self.child = child
        self.keys = list(keys)
        self.budget = budget
        self.limit = limit
        self._key = ExpressionCompiler(child.schema, scope=scope).order_key(self.keys)
        self._sizes = row_sizes(len(child.schema))
        #: How many sorted runs the last iteration spilled (0 = in memory).
        self.spill_runs = 0

    def batches(self) -> Iterator[Batch]:
        key = self._key
        budget = self.budget
        buffer: List[Row] = []
        buffer_bytes = 0
        runs: List[SpillFile] = []
        self.spill_runs = 0
        child_batches = self.child.batches()
        try:
            if self.limit is not None:
                # Top-k: nsmallest is stable (documented equivalent to
                # sorted(...)[:n]) and holds at most ``limit`` rows.
                buffer = heapq.nsmallest(
                    self.limit, chain.from_iterable(child_batches), key=key
                )
                if budget is not None:
                    buffer_bytes = sum(self._sizes(buffer))
                    budget.reserve(buffer_bytes)
                yield from _ramp_batches(buffer)
                return

            min_run_bytes = self.MIN_SPILL_RUN_BYTES
            if budget is not None and budget.limit_bytes is not None:
                min_run_bytes = min(min_run_bytes, max(1, budget.limit_bytes // 2))
            for batch in child_batches:
                if budget is None:
                    buffer.extend(batch)
                    continue
                sizes = self._sizes(batch)
                start = 0
                while start < len(batch):
                    # As many rows as fit; a refused row cuts a run where a
                    # row-at-a-time sort would cut it.
                    fitted, reserved = budget.reserve_prefix(sizes, start)
                    buffer += batch[start:start + fitted]
                    buffer_bytes += reserved
                    start += fitted
                    if start == len(batch):
                        break
                    if buffer_bytes >= min_run_bytes:
                        buffer.sort(key=key)
                        run = SpillFile("sort-run-")
                        runs.append(run)
                        run.extend(buffer)
                        self.spill_runs += 1
                        budget.record_spill(len(buffer), buffer_bytes)
                        budget.release(buffer_bytes)
                        buffer = []
                        buffer_bytes = 0
                    # The row must be held somewhere even when other
                    # operators occupy the whole budget (or the buffer is
                    # still below a useful run size).
                    budget.reserve(sizes[start])
                    buffer.append(batch[start])
                    buffer_bytes += sizes[start]
                    start += 1

            buffer.sort(key=key)
            if not runs:
                yield from _ramp_batches(buffer)
                return
            # Stable k-way merge: runs in spill order, the in-memory tail
            # last, mirrors one stable sort of the whole input.
            streams = [run.read() for run in runs]
            streams.append(iter(buffer))
            yield from _ramp_batches(heapq.merge(*streams, key=key))
        finally:
            child_batches.close()
            for run in runs:
                run.close()
            if budget is not None and buffer_bytes:
                budget.release(buffer_bytes)

    @property
    def estimated_rows(self) -> int:
        if self.limit is not None:
            return min(self.child.estimated_rows, self.limit)
        return self.child.estimated_rows

    def _explain_details(self) -> str:
        from repro.sql.printer import to_text

        parts = [(self.child.schema[source].name if source.__class__ is int
                  else to_text(source)) + ("" if ascending else " DESC")
                 for source, ascending in self.keys]
        if self.limit is not None:
            parts.append(f"top {self.limit}")
        return f"({', '.join(parts)})"


class Limit(PhysicalOperator):
    """LIMIT/OFFSET."""

    operator_name = "Limit"
    _inputs = ("child",)

    def __init__(self, child: PhysicalOperator, count: Optional[int], offset: int = 0):
        self.child = child
        self.count = count
        self.offset = offset or 0

    def batches(self) -> Iterator[Batch]:
        remaining = self.count  # None = unbounded
        if remaining is not None and remaining <= 0:
            return  # LIMIT 0 never asks its child for anything
        to_skip = self.offset
        with closing(self.child.batches()) as child_batches:
            for batch in child_batches:
                if to_skip:
                    if to_skip >= len(batch):
                        to_skip -= len(batch)
                        continue
                    batch = batch[to_skip:]
                    to_skip = 0
                if remaining is not None:
                    if len(batch) >= remaining:
                        # The count is reached: no further batch is requested.
                        yield batch[:remaining]
                        return
                    remaining -= len(batch)
                yield batch

    @property
    def estimated_rows(self) -> int:
        # Rows skipped by OFFSET never reach the output.
        available = max(self.child.estimated_rows - self.offset, 0)
        if self.count is None:
            return available
        return min(available, self.count)

    def _explain_details(self) -> str:
        return f"({self.count}, offset {self.offset})"


class UnionAll(PhysicalOperator):
    """Concatenate the outputs of several children, in order.

    An input is asked for its schema when its turn comes and no earlier, so
    an input may be lazy: the engine's are UNION branches that fetch from
    their sources on first use.
    """

    operator_name = "UnionAll"

    def __init__(self, inputs: Sequence[PhysicalOperator]):
        if not inputs:
            raise ExecutionError("UnionAll requires at least one input")
        self.inputs = list(inputs)

    @property
    def schema(self) -> Schema:
        return self.inputs[0].schema

    @property
    def children(self) -> Sequence[PhysicalOperator]:
        return tuple(self.inputs)

    def rebind(self, children, budget=None) -> "UnionAll":
        clone = super().rebind((), budget)
        clone.inputs = list(children)
        return clone

    def batches(self) -> Iterator[Batch]:
        arity = len(self.schema)
        for child in self.inputs:
            if len(child.schema) != arity:
                raise SchemaError("UNION requires relations of the same arity")
            with closing(child.batches()) as child_batches:
                yield from child_batches

    @property
    def estimated_rows(self) -> int:
        return sum(child.estimated_rows for child in self.inputs)
