"""The plan algebra: the immutable tree the planner emits, lowered once to
operators.

A mediated statement is *what* to compute — relations shipped by sources,
brought across to the mediator, joined, filtered, finished by a SELECT and,
for a mediated UNION, united; for a consistent answer the first-order
rewrite cannot give, the statement over every repair of the relations it
reads; or, for a constraint check, the rows of one branch no other branch
matches.  The nodes below say exactly that and nothing
about *how*: they are frozen, hashable trees of operations over the
relations sources ship.  Each leaf is a :class:`Scan`, the part of the tree a
source evaluates — the request it is sent is read off it — under the
:class:`Transfer` marking the boundary between that source and the mediator.
The tree **is** the plan: ``QueryPlanner._emit_steps`` builds
a branch's joins as :class:`Join` nodes, left-deep in the order it chose,
and whatever reads that order back — ``EXPLAIN``, the plan signature,
cardinality feedback, bind-join selection — reads it through
:func:`left_deep`.

:func:`lower` turns a tree into physical operators — resolved schemas, bound
kernels, the hash-or-loop decision, where a sort goes — over what stands for
its leaves.  The result is a *template*: nothing in it is per-execution
state, so one lowering — of each branch, and of the root above them — serves
every execution of a cached plan, each binding its own copies
(``PhysicalOperator.rebind``, ``TableScan.over``) to the relations it staged
and the branches it runs.  The AST-taking operator constructors are the
lowering of their node.  The local processor (``QueryProcessor.lower``)
builds its trees from the same constructors by the same rules, and shares
:func:`~repro.relational.query.lower_select` and
:func:`~repro.relational.query.lower_union` with :func:`lower`.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.relational.compile import ExpressionCompiler, KernelScope
from repro.relational.operators import (
    Filter,
    HashJoin,
    NestedLoopJoin,
    PhysicalOperator,
    TableScan,
)
from repro.relational.query import RepairEnumeration, lower_select, lower_union
from repro.relational.relation import Relation, Row
from repro.relational.schema import Schema
from repro.sql.ast import ColumnRef, Node, OrderItem, Select, SelectItem, TableRef, conjoin
from repro.sql.printer import to_sql


@dataclass(frozen=True)
class Scan:
    """What one source evaluates for the mediator: ``columns`` of
    ``relation``, the rows satisfying every one of ``conditions``, in
    ``order_by`` and at most ``limit`` of them.

    A scan whose source is sent SQL (``takes_sql``) is sent :attr:`query`,
    the SELECT saying exactly that over ``relation`` aliased ``alias``; any
    other asks for the whole relation (``FETCH``) and has no conditions,
    order or limit.  Derived once, beside :attr:`query`: :attr:`text`, the
    request as the wrapper is sent it — what fetches are deduplicated and
    cached on — and, unless given, :attr:`fingerprint`, the conditions in
    canonical form ("" when there are none), the key runtime feedback
    records the scan's observed rows under.  ``dataclasses.replace`` hands
    the fingerprint on, so only the scans the planner builds derive one: a
    bind join's batch keeps its planned scan's (batches feed no feedback).
    Scans equal in their fields are equal.
    """

    relation: str
    alias: Optional[str]
    #: The shipped columns: those the branch reads when the source projects
    #: them, otherwise the relation's whole schema.
    columns: Tuple[str, ...]
    conditions: Tuple[Node, ...] = ()
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    takes_sql: bool = True
    query: Optional[Select] = field(init=False, compare=False, repr=False)
    text: str = field(init=False, compare=False, repr=False)
    fingerprint: Optional[str] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        query = None
        if self.takes_sql:
            qualifier = self.alias or self.relation
            query = Select(
                items=tuple(SelectItem(ColumnRef(name=column, table=qualifier))
                            for column in self.columns),
                tables=(TableRef(name=self.relation, alias=self.alias),),
                where=conjoin(self.conditions),
                order_by=self.order_by,
                limit=self.limit,
            )
        derive = object.__setattr__
        derive(self, "query", query)
        derive(self, "text", f"FETCH {self.relation}" if query is None else to_sql(query))
        if self.fingerprint is None:
            derive(self, "fingerprint", " AND ".join(
                sorted(to_sql(condition) for condition in self.conditions)))


@dataclass(frozen=True)
class Transfer:
    """Source → mediator: the rows ``target`` ships, with its columns
    qualified by ``binding`` and the single-binding ``filters`` its source
    could not evaluate applied.  A branch's bindings are distinct."""

    target: Scan
    binding: str
    filters: Tuple[Node, ...] = ()


@dataclass(frozen=True)
class Selection:
    """Keep the rows satisfying every one of ``conditions``."""

    target: "RelationNode"
    conditions: Tuple[Node, ...]


@dataclass(frozen=True)
class Join:
    """``left`` ⋈ ``right`` on ``conditions``.  With ``hash_join`` the planner
    split them into ``equi_keys`` — (key over left, key over right) pairs of
    types whose bucket equality is SQL equality — and the ``residual``.

    The fields after ``residual`` are the planner's expectations of the step,
    not part of what it computes: joins differing only there are equal.
    """

    left: "RelationNode"
    right: "RelationNode"
    conditions: Tuple[Node, ...] = ()
    hash_join: bool = False
    equi_keys: Tuple[Tuple[ColumnRef, ColumnRef], ...] = ()
    residual: Tuple[Node, ...] = ()
    estimated_rows: int = field(default=0, compare=False)
    #: The cost model's price of the step (an ``engine.cost.CostEstimate``).
    cost: Optional[object] = field(default=None, compare=False)
    #: Order-insensitive fingerprint of the (relation, predicate) set joined
    #: so far: the key runtime feedback records the observed cardinality under.
    feedback_key: str = field(default="", compare=False)
    #: Where ``estimated_rows`` came from: "feedback" or "default".
    estimate_source: str = field(default="default", compare=False)


@dataclass(frozen=True)
class Finish:
    """The remaining phases of ``select`` over its joined, filtered input —
    a branch's, or the :class:`Union` a statement finishes: grouping, select
    list, ORDER BY, DISTINCT, LIMIT.  ``fetch_limit`` is the row bound that
    provably commutes with them, when there is one."""

    target: "RelationNode"
    select: Select
    fetch_limit: Optional[int] = None


@dataclass(frozen=True)
class Union:
    """The rows of ``branches`` in branch order; unless ``all``, a row equal
    to an earlier one is dropped.  Each branch binds its own names."""

    branches: Tuple[Finish, ...]
    all: bool = False


@dataclass(frozen=True)
class Repairs:
    """The rows ``statement`` gives in every repair (``certain``), or in at
    least one, of the relations ``branches`` read in full, one each.

    A repair keeps one tuple of each conflict cluster: the distinct tuples of
    a relation that agree on its ``keys`` entry (``()``: no key, no cluster).
    More than ``max_repairs`` repairs are refused, not enumerated."""

    branches: Tuple[Finish, ...]
    statement: Node
    keys: Tuple[Tuple[str, ...], ...]
    certain: bool
    max_repairs: int


@dataclass(frozen=True)
class Unmatched:
    """The rows of ``branches[0]`` that no row of a later branch matches: a
    row of branch ``i`` matches when both expressions of every pair in
    ``keys[i - 1]`` — one over the first branch's columns, one over branch
    ``i``'s — are equal, and a NULL equals nothing.  This is how a
    constraint check asks for the rows that violate it (NOT EXISTS)."""

    branches: Tuple[Finish, ...]
    keys: Tuple[Tuple[Tuple[Node, Node], ...], ...]


RelationNode = typing.Union[Transfer, Selection, Join, Finish, Union, Repairs, Unmatched]


def left_deep(node: RelationNode) -> Tuple[List[Transfer], List[Join]]:
    """A branch read in join order: its transfers — the one the pipeline
    starts from, then the ``right`` of each join — and its joins, innermost
    first."""
    while isinstance(node, (Finish, Selection)):
        node = node.target
    joins: List[Join] = []
    while isinstance(node, Join):
        joins.append(node)
        node = node.left
    joins.reverse()
    return [node, *(join.right for join in joins)], joins


class Stage:
    """The lowered form of one :class:`Transfer`.

    ``source`` is the schema the kernels were bound against — the columns
    the source is catalogued to ship, which every shipment is fitted to
    before it is staged — and ``scan`` the template scan standing for the
    staged relation in its plan's operator tree, at ``leaf``: the position
    an execution stages the relation at.
    """

    def __init__(self, node: Transfer, leaf: int, source: Schema, scope: KernelScope):
        self.source = source
        #: The last shipped schema found to list ``source``'s names in order:
        #: a shipment carrying this very object is staged as it is.
        self.accepted = source
        self.schema = source.with_qualifier(node.binding)
        self.name = f"{node.binding}_staged"
        self.label = f"{node.binding}_stage"
        self.predicate = (
            ExpressionCompiler(self.schema, scope=scope).predicate(
                conjoin(list(node.filters)))
            if node.filters else None
        )
        self.scan = TableScan(Relation(self.schema, name=self.name), leaf=leaf)

    def relation(self, rows: List[Row], frozen: bool) -> Relation:
        """The staged form of shipped ``rows``, copied at most once: filtered
        rows are their own list, a ``frozen`` (private) list is adopted."""
        staged = Relation(self.schema, name=self.name)
        predicate = self.predicate
        if predicate is not None:
            staged.rows = [row for row in rows if predicate(row) is True]
        else:
            staged.rows = rows if frozen else list(rows)
        return staged


def lower(node: RelationNode, inputs: typing.Union[Mapping[str, Stage], Sequence],
          scope: Optional[KernelScope] = None) -> PhysicalOperator:
    """The operator template computing ``node`` over what stands for its
    inputs: for a branch, its :class:`Stage` s by binding; for a
    :class:`Union`, :class:`Repairs` or :class:`Unmatched`, one operator per
    branch — a plan's template lowers a root over placeholder scans, under a
    statement's :class:`Finish` with the columns qualified by the alias that
    finish reads the union by.  The template draws on no memory budget and a
    repair enumeration records into no report: an execution binds copies of
    it (``rebind``) to its own inputs, budget and report."""
    if isinstance(node, (Union, Repairs, Unmatched)):
        if node.__class__ is Union:
            return lower_union(inputs, node.all)
        if node.__class__ is Unmatched:
            operator = inputs[0]
            for right, pairs in zip(inputs[1:], node.keys):
                operator = HashJoin(operator, right, [pair[0] for pair in pairs],
                                    [pair[1] for pair in pairs], scope=scope, anti=True)
            return operator
        return RepairEnumeration(
            [branch.select.tables[0].name for branch in node.branches], node.keys,
            inputs, node.statement, node.certain, node.max_repairs)
    if isinstance(node, Transfer):
        return inputs[node.binding].scan
    if isinstance(node, Selection):
        return Filter(lower(node.target, inputs, scope),
                      conjoin(list(node.conditions)), scope)
    if isinstance(node, Finish):
        return lower_select(node.select, lower(node.target, inputs, scope), scope,
                            node.fetch_limit)
    left = lower(node.left, inputs, scope)
    right = lower(node.right, inputs, scope)
    if node.hash_join and node.equi_keys:
        # Oriented and type-checked by the planner: all pairs form one
        # composite key.  A step without them keeps every condition in a
        # nested loop — same rows, no guessing at key types here.
        return HashJoin(
            left, right,
            [pair[0] for pair in node.equi_keys], [pair[1] for pair in node.equi_keys],
            residual=conjoin(list(node.residual)), scope=scope,
        )
    return NestedLoopJoin(left, right, conjoin(list(node.conditions)), scope)
