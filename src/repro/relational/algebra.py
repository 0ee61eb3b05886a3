"""The plan algebra: an immutable relation tree, lowered once to operators.

A mediated branch is *what* to compute — relations shipped by sources,
brought across to the mediator, joined, filtered and finished by a SELECT.
The nodes below say exactly that and nothing about *how*: they are frozen,
hashable trees of unary and binary operations over leaf relations, built
from a branch plan alone (``BranchPlan.relation``), with :class:`Transfer`
marking the boundary between a source and the mediator.

:func:`lower` turns a tree into physical operators — resolved schemas, bound
kernels, the hash-or-loop decision, where a sort goes — over scans
that stand for its leaves.  The result is a *template*: nothing in it is
per-execution state, so one lowering serves every execution of a cached plan,
each binding its own copies (``PhysicalOperator.rebind``, ``TableScan.over``)
to the relations it staged.  The AST-taking operator constructors are the
lowering of their node, and ``QueryProcessor.finalize_select`` is ``lower`` of
a :class:`Finish` over a scan, drained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.relational.compile import ExpressionCompiler, KernelScope
from repro.relational.operators import (
    Filter,
    HashJoin,
    NestedLoopJoin,
    PhysicalOperator,
    TableScan,
)
from repro.relational.query import lower_select
from repro.relational.relation import Relation, Row
from repro.relational.schema import Schema
from repro.sql.ast import ColumnRef, Node, Select, conjoin


@dataclass(frozen=True)
class Leaf:
    """Input ``index`` of the plan, as its source ships it."""

    index: int


@dataclass(frozen=True)
class Transfer:
    """Source → mediator: qualify the shipped columns with ``binding`` and
    apply the single-binding ``filters`` the source could not evaluate."""

    target: Leaf
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
    types whose bucket equality is SQL equality — and the ``residual``."""

    left: "RelationNode"
    right: "RelationNode"
    conditions: Tuple[Node, ...] = ()
    hash_join: bool = False
    equi_keys: Tuple[Tuple[ColumnRef, ColumnRef], ...] = ()
    residual: Tuple[Node, ...] = ()


@dataclass(frozen=True)
class Finish:
    """The remaining phases of ``select`` over its joined, filtered input:
    grouping, select list, ORDER BY, DISTINCT, LIMIT.  ``fetch_limit`` is the
    row bound that provably commutes with them, when there is one."""

    target: "RelationNode"
    select: Select
    fetch_limit: Optional[int] = None


RelationNode = Union[Transfer, Selection, Join, Finish]


class Stage:
    """The lowered form of one :class:`Transfer`.

    ``source`` is the schema the kernels were bound against — the guard a
    later execution's shipment is checked with — and ``scan`` the template
    scan standing for the staged relation in its plan's operator tree.
    """

    def __init__(self, node: Transfer, source: Schema, scope: KernelScope):
        self.source = source
        self.schema = source.with_qualifier(node.binding)
        self.name = f"{node.binding}_staged"
        self.label = f"{node.binding}_stage"
        self.predicate = (
            ExpressionCompiler(self.schema, scope=scope).predicate(
                conjoin(list(node.filters)))
            if node.filters else None
        )
        self.scan = TableScan(Relation(self.schema, name=self.name), leaf=node.target.index)

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


def lower(node: RelationNode, stages: Sequence[Stage],
          scope: KernelScope) -> PhysicalOperator:
    """The operator tree computing ``node`` over the scans of ``stages`` (one
    per plan input, by index).
    It draws on no memory budget: an execution's copies do (``rebind``)."""
    if isinstance(node, Transfer):
        return stages[node.target.index].scan
    if isinstance(node, Selection):
        return Filter(lower(node.target, stages, scope),
                      conjoin(list(node.conditions)), scope)
    if isinstance(node, Finish):
        return lower_select(node.select, lower(node.target, stages, scope),
                            scope, node.fetch_limit)
    left = lower(node.left, stages, scope)
    right = lower(node.right, stages, scope)
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
