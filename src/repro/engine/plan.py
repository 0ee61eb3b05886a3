"""Plan representation for the multi-database access engine.

A :class:`QueryPlan` is one tree of the plan algebra
(:mod:`repro.relational.algebra`) — ``QueryPlan.root``: a branch's
:class:`~repro.relational.algebra.Finish`, the
:class:`~repro.relational.algebra.Union` of several, the statement's
``Finish`` over that ``Union``, for a consistent answer only repair
enumeration gives, the :class:`~repro.relational.algebra.Repairs` of the
relations its branches read in full, or, for a constraint check, the
:class:`~repro.relational.algebra.Unmatched` rows of its first branch —
plus, per branch:

* the branch's tree: one :class:`~repro.relational.algebra.Transfer` per
  table binding, whose target :class:`~repro.relational.algebra.Scan` is
  what the wrapper serving that binding's relation evaluates — its pushed
  conditions, its columns, any pushed ORDER BY and LIMIT; the SQL it is sent,
  or a plain fetch when the source is sent no SQL, is read off the scan —
  and the filters the engine applies locally where the rows cross over;
  then the transfers joined left-deep in the order the planner chose, each
  :class:`~repro.relational.algebra.Join` carrying its conditions, hash keys
  and the planner's estimates (the engine performs all cross-source joins
  itself, as the paper describes), then the conditions no join could take
  and the SELECT's finish (projection, aggregation, ordering).  There is no
  second description of the join order: ``EXPLAIN``, ``signature()``, the
  optimizer report and cardinality feedback all read the tree
  (``algebra.left_deep``);
* one :class:`SourceRequest` per binding, holding that binding's transfer
  and only what is not a relation: the wrapper, the planner's estimates and
  cost, and a bind join's spec.

Plans are pure descriptions: building one never touches a source.  A
:class:`~repro.engine.stream.ResultStream` runs one; ``explain()`` renders
them for humans and for the planner benchmarks.

What executing a plan derives from it and the catalog — request keys, the
optimizer report's preamble, the operators each branch's tree lowers to
over the schemas its requests are catalogued to ship and those its root
lowers to over the branches — is kept in the plan's :class:`PlanTemplate`,
so it is derived once per cached plan and dies with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.engine.cost import CostEstimate
from repro.engine.request_cache import RequestKey, request_key
from repro.relational import algebra
from repro.relational.algebra import Stage
from repro.relational.compile import KernelScope, SubqueryExecutor
from repro.relational.operators import PhysicalOperator, TableScan
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sql.ast import Select, Statement
from repro.sql.printer import to_sql


@dataclass(frozen=True)
class BindJoinSpec:
    """Fetch this request as a bind join: ship the driver's key set.

    Instead of fetching the whole (filtered) relation and joining locally,
    the executor first stages the *driver* request, collects the distinct
    values of ``driver_columns`` from it, and fetches this relation with
    batched ``IN``-list predicates over ``bound_columns``.  The fetched rows
    are a superset of what the equi join keeps (per-column ``IN`` lists are
    independent), so the local HashJoin stays in place as the oracle.
    """

    #: Index (within the branch's request list) of the already-staged request
    #: whose column values bound this fetch.
    driver_index: int
    driver_binding: str
    #: Key columns on the driver side, positionally paired with
    #: ``bound_columns`` on this request's side.
    driver_columns: Tuple[str, ...]
    bound_columns: Tuple[str, ...]
    #: Maximum keys per shipped ``IN`` list (first key column is chunked).
    batch_size: int
    estimated_keys: int = 0
    #: What the planner expected an unbound fetch to transfer — the baseline
    #: for the report's ``bind_rows_avoided`` accounting.
    estimated_unbound_rows: int = 0

    def describe(self) -> str:
        keys = ", ".join(self.bound_columns)
        return (f"bind join on ({keys}) from {self.driver_binding} "
                f"[~{self.estimated_keys} keys, batch {self.batch_size}]")


@dataclass
class SourceRequest:
    """What the engine asks one wrapper for, on behalf of one table binding:
    the branch's ``transfer`` of that binding, whose target is the scan the
    wrapper evaluates, and what the planner expects of it."""

    transfer: algebra.Transfer
    wrapper_name: str
    estimated_base_rows: int = 0
    estimated_result_rows: int = 0
    cost: CostEstimate = field(default_factory=CostEstimate)
    #: Where ``estimated_result_rows`` came from: "feedback" or "default".
    estimate_source: str = "default"
    #: Last observed row count for this (relation, predicate) shape, when
    #: runtime feedback had one at plan time.
    observed_rows: Optional[int] = None
    #: When set, the executor fetches this request as a bind join instead of
    #: sending its scan as it is.
    bind: Optional[BindJoinSpec] = None
    #: True only on the synthetic per-batch requests the executor derives
    #: from a bound request; they carry IN-list key sets and must not feed
    #: cardinality feedback or catalog estimates.
    bind_batch: bool = False

    def describe(self) -> str:
        transfer = self.transfer
        parts = [f"{self.wrapper_name}: {transfer.target.text}"]
        if self.bind is not None:
            parts.append(f"via {self.bind.describe()}")
        if transfer.filters:
            filters = " AND ".join(to_sql(node) for node in transfer.filters)
            parts.append(f"then filter locally: {filters}")
        estimate = f"(~{self.estimated_result_rows} rows, est={self.estimate_source}"
        if self.observed_rows is not None:
            estimate += f", observed {self.observed_rows}"
        parts.append(estimate + ")")
        return " ".join(parts)


def describe_join(join: algebra.Join) -> str:
    """One EXPLAIN line for a join step of a branch."""
    binding = join.right.binding
    method = "hash join" if join.hash_join else "nested-loop join"
    estimate = f"(~{join.estimated_rows} rows, est={join.estimate_source})"
    if join.hash_join and join.equi_keys:
        keys = " AND ".join(
            f"{to_sql(left)} = {to_sql(right)}" for left, right in join.equi_keys
        )
        text = f"{method} {binding} ON {keys}"
        if join.residual:
            residual = " AND ".join(to_sql(node) for node in join.residual)
            text += f" residual {residual}"
        return f"{text} {estimate}"
    if join.conditions:
        condition_text = " AND ".join(to_sql(node) for node in join.conditions)
        return f"{method} {binding} ON {condition_text} {estimate}"
    return f"cartesian product with {binding} {estimate}"


@dataclass
class BranchPlan:
    """The plan of one SELECT branch."""

    #: One per binding, in binding order: each holds its transfer of the tree.
    requests: List[SourceRequest]
    #: Transfers joined left-deep in plan order, the conditions no join step
    #: could take (a ``Selection``), the SELECT and its safe row bound — LIMIT
    #: + OFFSET of a branch whose limit provably commutes with finalization,
    #: which lowering turns into a bounded top-k Sort and which the planner
    #: also pushes into the request SQL of a single-request branch.
    tree: algebra.Finish
    estimated_rows: int = 0
    cost: CostEstimate = field(default_factory=CostEstimate)

    @property
    def select(self) -> Select:
        return self.tree.select

    @property
    def fetch_limit(self) -> Optional[int]:
        return self.tree.fetch_limit

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        transfers, joins = algebra.left_deep(self.tree)
        lines = [f"{pad}branch: {to_sql(self.select)}"]
        lines.append(f"{pad}  source requests:")
        for request in self.requests:
            marker = "*" if request.transfer.binding == transfers[0].binding else "-"
            lines.append(f"{pad}    {marker} {request.describe()}")
        if joins:
            lines.append(f"{pad}  local joins:")
            for join in joins:
                lines.append(f"{pad}    - {describe_join(join)}")
        if isinstance(self.tree.target, algebra.Selection):
            residual = " AND ".join(to_sql(node) for node in self.tree.target.conditions)
            lines.append(f"{pad}  residual filter: {residual}")
        if self.fetch_limit is not None:
            lines.append(f"{pad}  fetch limit: {self.fetch_limit}")
        lines.append(
            f"{pad}  estimated rows: {self.estimated_rows}, cost: {self.cost.snapshot()}"
        )
        return "\n".join(lines)


@dataclass
class QueryPlan:
    """The complete plan of a (possibly UNION) statement."""

    statement: Statement
    branches: List[BranchPlan]
    union_all: bool = False
    #: The statement when it finishes the union of the branches (``SELECT …
    #: FROM (b1 UNION ALL b2 …) m ORDER BY …``): its grouping, select list,
    #: ORDER BY, DISTINCT and LIMIT run once, over that union.
    finish: Optional[Select] = None
    cost: CostEstimate = field(default_factory=CostEstimate)
    #: How many branch requests were recognized at plan time as identical to a
    #: request of an earlier branch (common subplans of the mediated UNION)
    #: and share one :class:`SourceRequest` object with it.
    shared_requests: int = 0
    #: The feedback epoch the plan was priced under, and the feedback keys
    #: its planner looked up, found or not: a material error on one of them
    #: after that epoch retires the cached plan (``QueryPipeline.is_current``).
    feedback_epoch: int = 0
    feedback_keys: FrozenSet[Hashable] = frozenset()
    #: Of a certain or possible answer: the report's ``consistency`` block
    #: (mode and strategy first; an enumeration adds what it found).
    consistency: Optional[Dict[str, object]] = None

    @cached_property
    def root(self) -> algebra.RelationNode:
        """The statement's tree: its lone branch, the UNION of several or
        :attr:`finish` over that UNION.  The plan of an answer only repair
        enumeration gives sets it to an :class:`~repro.relational.algebra.Repairs`
        over its branches instead, and a constraint check's to an
        :class:`~repro.relational.algebra.Unmatched`."""
        trees = tuple(branch.tree for branch in self.branches)
        if len(trees) == 1 and self.finish is None:
            return trees[0]
        union = algebra.Union(trees, self.union_all)
        return union if self.finish is None else algebra.Finish(union, self.finish)

    @cached_property
    def template(self) -> "PlanTemplate":
        """What every execution of this plan shares (lives and dies with it)."""
        return PlanTemplate(self)

    @property
    def request_count(self) -> int:
        return sum(len(branch.requests) for branch in self.branches)

    @property
    def estimated_rows(self) -> int:
        return sum(branch.estimated_rows for branch in self.branches)

    def signature(self) -> Tuple:
        """Plan shape for change detection: join orders and bind decisions."""
        branches = []
        for branch in self.branches:
            order = tuple(transfer.binding.lower()
                          for transfer in algebra.left_deep(branch.tree)[0])
            bound = tuple(sorted(
                request.transfer.binding.lower()
                for request in branch.requests if request.bind is not None
            ))
            branches.append((order, bound))
        return tuple(branches)

    def explain(self) -> str:
        lines = [f"query plan ({len(self.branches)} branch(es), "
                 f"estimated cost {round(self.cost.total, 2)}, "
                 f"feedback epoch {self.feedback_epoch}):"]
        for index, branch in enumerate(self.branches, start=1):
            lines.append(f"[branch {index}]")
            lines.append(branch.explain(indent=1))
        if self.finish is not None:
            keyword = "UNION ALL" if self.union_all else "UNION"
            finish = to_sql(self.finish.copy(tables=()))
            lines.append(f"[finish over the {keyword} of the branches] {finish}")
        if isinstance(self.root, algebra.Repairs):
            mode = "certain" if self.root.certain else "possible"
            lines.append(f"[{mode} rows over at most {self.root.max_repairs} repairs "
                         f"of the branches] {to_sql(self.root.statement)}")
        if isinstance(self.root, algebra.Unmatched):
            for index, pairs in enumerate(self.root.keys, start=2):
                keys = " AND ".join(f"{to_sql(left)} = {to_sql(right)}"
                                    for left, right in pairs)
                lines.append(f"[rows of branch 1 matching no row of branch {index}] {keys}")
        return "\n".join(lines)


def shipped_schema(catalog, scan: algebra.Scan) -> Schema:
    """The schema ``scan`` is catalogued to ship: its relation's, projected
    to the scan's columns when they are fewer."""
    schema = catalog.schema_of(scan.relation)
    if len(scan.columns) < len(schema):
        schema = Schema(schema.attribute(name) for name in scan.columns)
    return schema


class BranchTemplate:
    """The lowered form of one branch, filled in by its first execution.

    A branch lowers from the schemas its requests are catalogued to ship
    (:func:`shipped_schema`), so its stages and operator tree are fixed
    before any source is asked; a shipment is fitted to them when it is
    staged.  A lowering that folded a subquery into a kernel is handed out
    but not kept: such kernels are good for one execution.  Executions share
    what is kept read-only; racing first executions both lower and one
    result stays.
    """

    def __init__(self, branch: BranchPlan, bounded_above: bool):
        self._branch = branch
        self._lowered: Optional[Tuple[Tuple[Stage, ...], PhysicalOperator]] = None
        #: The tree in join order: its transfers and its joins.
        self.transfers, self.joins = algebra.left_deep(branch.tree)
        #: (position among the branch's instrumented operators, join node)
        #: of the joins whose drained row count is cardinality feedback: none
        #: when a LIMIT, the branch's or one above it, may stop pulling early.
        unlimited = (branch.select.limit is None and branch.fetch_limit is None
                     and not bounded_above)
        self.watched = [(position, join)
                        for position, join in enumerate(self.joins, start=1)
                        if join.feedback_key and unlimited]

    def lowered(self, catalog, subquery_executor: SubqueryExecutor
                ) -> Tuple[Tuple[Stage, ...], PhysicalOperator]:
        """The branch's stages (one per request) and its operator template."""
        kept = self._lowered
        if kept is not None:
            return kept
        scope = KernelScope(subquery_executor)
        transfers = [request.transfer for request in self._branch.requests]
        stages = tuple(Stage(transfer, leaf, shipped_schema(catalog, transfer.target), scope)
                       for leaf, transfer in enumerate(transfers))
        by_binding = {transfer.binding: stage for transfer, stage in zip(transfers, stages)}
        lowered = stages, algebra.lower(self._branch.tree, by_binding, scope)
        if not scope.private:
            self._lowered = lowered
        return lowered


class PlanTemplate:
    """What executions of one :class:`QueryPlan` share: its branches'
    templates and the operator template of its root above them.

    Hanging off the plan object, it retires exactly when the plan does: a
    bump of the catalog or knowledge generation, or a material error on a
    feedback key the plan consulted, yields a new plan and, with it, a new
    template.
    """

    def __init__(self, plan: QueryPlan):
        bounded = plan.finish is not None and plan.finish.limit is not None
        self.branches = [BranchTemplate(branch, bounded) for branch in plan.branches]
        self._root = plan.root
        #: The alias the statement's finish reads the union of the branches by.
        self._alias = None if plan.finish is None else plan.finish.tables[0].alias
        self._lowered_root: Optional[PhysicalOperator] = None
        #: The optimizer report's preamble: per branch the binding join
        #: order, and how many estimates came from feedback vs defaults.
        self.join_orders = [[transfer.binding for transfer in branch.transfers]
                            for branch in self.branches]
        sources = [estimated.estimate_source
                   for branch, template in zip(plan.branches, self.branches)
                   for estimated in (*branch.requests, *template.joins)]
        self.estimates_from_feedback = sources.count("feedback")
        self.estimates_from_defaults = len(sources) - self.estimates_from_feedback
        #: Per branch and request, the dedup key of an unbound request (a
        #: bound one has no final SQL until its driver is staged: None), and
        #: the distinct fetches they collapse into, in plan order.
        self.keys = [[request_key(request) if request.bind is None else None
                      for request in branch.requests] for branch in plan.branches]
        self.distinct: Dict[RequestKey, SourceRequest] = {}
        self.units = 0
        for branch, keys in zip(plan.branches, self.keys):
            for request, key in zip(branch.requests, keys):
                if key is not None:
                    self.units += 1
                    self.distinct.setdefault(key, request)

    def lowered_root(self, subquery_executor: SubqueryExecutor,
                     branch_schema: Callable[[int], Schema]) -> PhysicalOperator:
        """The operator template of a root above the branches — their union,
        the statement's finish over it, their repair enumeration or anti-join
        — lowered once over placeholder scans: the scan at ``leaf`` ``i``
        stands for branch ``i``, in the columns ``branch_schema(i)`` gives
        (known before any fetch), qualified by the union's alias under a
        finish.  A lowering that folded a subquery is handed out, not kept,
        as a branch's is."""
        kept = self._lowered_root
        if kept is not None:
            return kept
        scope = KernelScope(subquery_executor)
        placeholders = [TableScan(Relation(branch_schema(index)), self._alias, leaf=index)
                        for index in range(len(self.branches))]
        lowered = algebra.lower(self._root, placeholders, scope)
        if not scope.private:
            self._lowered_root = lowered
        return lowered
