"""Planning and optimization of multi-source queries.

The planner decomposes each SELECT branch of a (mediated) statement into

* per-binding **source requests** — pushing selections and projections down to
  each source as far as its capabilities allow, and
* a **local join pipeline** — a cost-ordered sequence of joins over the
  staged source results, with the remaining (cross-source) conditions
  attached to the steps that can evaluate them.

Join orders are chosen adaptively: cardinalities come from the cost model,
which consults runtime feedback (observed rows per (relation, predicate)
shape and per join set — :mod:`repro.engine.feedback`) before textbook
defaults.  Small branches run a left-deep dynamic program over the equi-join
graph and keep its order only when it beats the greedy baseline; larger
branches stay greedy.  ``join_order="syntax"`` (FROM-clause order) and
``"worst"`` (cost-maximizing) exist as baselines for benchmarks and the
equivalence test suite.

When the chosen order makes a staged intermediate small, the planner can
convert a later request into a **bind join** (:class:`BindJoinSpec`): the
executor ships the driver's observed key set as batched ``IN`` lists instead
of fetching the whole relation.

Two switches drive the ablation benchmarks: ``push_selections`` and
``push_projections`` can be disabled to measure how much capability-aware
push-down saves compared to fetching whole relations and doing everything
locally.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PlanningError
from repro.engine.catalog import Catalog
from repro.engine.cost import CostEstimate, CostModel
from repro.engine.plan import BindJoinSpec, BranchPlan, QueryPlan, SourceRequest
from repro.relational import algebra
from repro.relational.types import may_hash
from repro.sql.ast import (
    ColumnRef,
    Join,
    Node,
    Select,
    Statement,
    TableRef,
    Union,
)
from repro.sql.facts import ConjunctFacts, SelectFacts, analyse_select
from repro.sql.parser import DerivedTable, finished_union

#: An oriented-to-be equi-join key: ``(left ref, left request, right ref,
#: right request)`` of a hash-safe ``a.x = b.y`` conjunct.
_EquiKey = Tuple[ColumnRef, int, ColumnRef, int]
#: A cross-request condition: the requests it needs (a bit mask over request
#: positions), the conjunct, and its equi key when it can be one.
_JoinCondition = Tuple[int, Node, Optional[_EquiKey]]
_StepParts = Tuple[Tuple[Node, ...], Tuple[Tuple[ColumnRef, ColumnRef], ...],
                   Tuple[Node, ...]]

#: Most table bindings one branch may join.
MAX_BRANCH_TABLES = 12
#: Most requests a branch's joins are ordered by dynamic programming under
#: ``join_order="auto"``; a larger branch is ordered greedily.
DP_JOIN_THRESHOLD = 8
#: Never bind when the driver's estimated key set exceeds this.
BIND_JOIN_MAX_KEYS = 1000
#: Never bind a relation estimated below this — tiny fetches aren't worth the
#: extra round-trip bookkeeping (and demo workloads stay put).
BIND_JOIN_MIN_ROWS = 200
#: Required estimated transfer reduction (unbound rows / bound rows).
BIND_JOIN_MIN_REDUCTION = 5.0


@dataclass
class PlannerConfig:
    """Tunable planner behaviour (ablation switches included)."""

    push_selections: bool = True
    push_projections: bool = True
    #: Push safe LIMIT/OFFSET bounds into branch plans (top-k sorts) and, when
    #: a branch is a single fully-pushed request, into the request SQL itself.
    push_fetch_limits: bool = True
    #: Join-order strategy: "auto" (DP up to ``DP_JOIN_THRESHOLD`` relations,
    #: greedy beyond), "dp", "greedy", "syntax" (FROM-clause order, the
    #: baseline) or "worst" (cost-maximizing, for equivalence tests).
    join_order: str = "auto"
    #: Allow converting requests into bind joins (batched IN-list key sets).
    bind_joins: bool = True
    #: Keys per shipped IN list (the first key column is chunked).
    bind_join_batch_size: int = 200


class _JoinGraph:
    """One branch's cross-request conditions, and what joining asks of them.

    Every join-order strategy asks the same questions over and over: joining
    request ``candidate`` onto the set ``mask``, which conditions become
    evaluable, which of them are hash keys and how are they oriented
    (:meth:`step`); and what is the feedback key of a joined set
    (:meth:`fingerprint`).  The answers depend on the set, never on the order
    it was reached in, so each is worked out once per branch — for the
    greedy pass, every transition of the dynamic program and the steps
    finally emitted alike.
    """

    def __init__(self, requests: Sequence[SourceRequest],
                 conditions: Sequence[_JoinCondition]):
        self.conditions = conditions
        self._items = [f"{scan.relation.lower()}|{scan.fingerprint}"
                       for scan in (request.transfer.target for request in requests)]
        self._steps: Dict[Tuple[int, int], _StepParts] = {}
        self._fingerprints: Dict[int, str] = {}

    def step(self, mask: int, candidate: int) -> _StepParts:
        """``(conditions, equi keys, residual)`` of joining ``candidate`` onto
        ``mask``: the conditions that need the candidate and nothing outside
        the joined set, in WHERE order, split into equi-join key pairs
        oriented (intermediate side, staged side) and the rest.

        Every qualifying ``a.x = b.y`` conjunct becomes part of the composite
        hash key instead of degrading into a per-pair residual check.
        """
        parts = self._steps.get((mask, candidate))
        if parts is None:
            bit = 1 << candidate
            outside = ~(mask | bit)
            conditions: List[Node] = []
            equi_keys: List[Tuple[ColumnRef, ColumnRef]] = []
            residual: List[Node] = []
            for needs, condition, equi in self.conditions:
                if not needs & bit or needs & outside:
                    continue
                conditions.append(condition)
                if equi is not None:
                    left_ref, left, right_ref, right = equi
                    if right == candidate and mask >> left & 1:
                        equi_keys.append((left_ref, right_ref))
                        continue
                    if left == candidate and mask >> right & 1:
                        equi_keys.append((right_ref, left_ref))
                        continue
                residual.append(condition)
            parts = self._steps[mask, candidate] = (
                tuple(conditions), tuple(equi_keys), tuple(residual))
        return parts

    def fingerprint(self, mask: int) -> str:
        """Order-insensitive digest of a joined (relation, predicate) set.

        The output cardinality of joining a set of filtered relations does
        not depend on the join order, so the fingerprint sorts the items —
        feedback recorded under one order prices every order of the same set.
        """
        fingerprint = self._fingerprints.get(mask)
        if fingerprint is None:
            items = sorted(item for index, item in enumerate(self._items)
                           if mask >> index & 1)
            digest = hashlib.sha256("&&".join(items).encode("utf-8"))
            fingerprint = self._fingerprints[mask] = digest.hexdigest()[:16]
        return fingerprint


class QueryPlanner:
    """Builds :class:`QueryPlan` objects from statements and catalog metadata."""

    def __init__(self, catalog: Catalog, cost_model: Optional[CostModel] = None,
                 config: Optional[PlannerConfig] = None):
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()
        self.config = config or PlannerConfig()
        if self.cost_model.feedback is None:
            self.cost_model.feedback = catalog.feedback

    # -- public API -------------------------------------------------------------

    def plan(self, statement: Statement) -> QueryPlan:
        """Plan a SELECT or UNION statement, or a finish over a UNION."""
        union = statement if isinstance(statement, Union) else finished_union(statement)
        if union is not None:
            return self.plan_branches(union.selects, statement=statement)
        if isinstance(statement, Select):
            return self.plan_branches([statement], statement=statement)
        raise PlanningError(
            f"cannot plan statement of type {type(statement).__name__}"
        )

    def plan_branches(self, selects: Sequence[Select], union_all: bool = False,
                      statement: Optional[Statement] = None) -> QueryPlan:
        """Plan each SELECT branch individually and combine with UNION semantics.

        This is the structured entry point the query pipeline uses: the
        mediator already knows the branch boundaries of the mediated UNION,
        so its :class:`~repro.mediation.mediator.BranchQuery` selects flow in
        directly — no SQL round trip, no re-discovery of branch structure.

        Branches are planned against a shared request pool: when a branch's
        source request is structurally identical to one an earlier branch
        built (same relation, pushed conditions, residual filters and
        projection — the common conversion joins of a mediated UNION), the
        two branches share one :class:`SourceRequest` object.  The executor's
        scheduler then recognizes the shared round trip without re-rendering
        and re-comparing request SQL, and ``plan.shared_requests`` records
        how much of the UNION was common subplans.

        A ``statement`` that is a UNION, or a finish over one (the mediated
        form of a multi-branch statement with DISTINCT, grouping, aggregates,
        ORDER BY or LIMIT — :func:`~repro.sql.parser.finished_union`), decides
        whether the union keeps duplicates, whatever ``union_all`` says:
        ``union_all`` serves only a call naming no such statement.  A finish
        becomes ``plan.finish``, and the plan's root that finish over the
        union of ``selects``.
        """
        union = statement if isinstance(statement, Union) else finished_union(statement)
        if union is not None:
            union_all = union.all
        finish = None if union is None or union is statement else statement
        if not selects:
            raise PlanningError("cannot plan a statement with no SELECT branches")
        request_pool: Dict[tuple, SourceRequest] = {}
        shared = [0]
        # The epoch is read before the first lookup, so an estimate retired
        # while this plan is being priced retires the plan too.
        feedback = self.catalog.feedback
        epoch = feedback.epoch
        with feedback.consulting() as consulted:
            branches = [
                self._plan_branch(select, request_pool, shared) for select in selects
            ]
        if statement is None:
            if len(selects) == 1:
                statement = selects[0]
            else:
                statement = Union(tuple(selects), all=union_all)
        total = CostEstimate()
        for branch in branches:
            total = total.add(branch.cost)
        return QueryPlan(statement=statement, branches=branches, union_all=union_all,
                         finish=finish, cost=total, shared_requests=shared[0],
                         feedback_epoch=epoch, feedback_keys=frozenset(consulted))

    # -- branch planning ------------------------------------------------------------

    def _plan_branch(self, select: Select,
                     request_pool: Optional[Dict[tuple, SourceRequest]] = None,
                     shared_counter: Optional[List[int]] = None) -> BranchPlan:
        bindings = self._bindings(select)
        if not bindings:
            raise PlanningError("queries without a FROM clause are not executable by the engine")
        if len(bindings) > MAX_BRANCH_TABLES:
            raise PlanningError(
                f"branch references {len(bindings)} tables; the planner limit is "
                f"{MAX_BRANCH_TABLES}"
            )

        # One walk of the branch answers every question asked of its tree below.
        facts = analyse_select(select)
        ordered_bindings = sorted(bindings)
        request_index = {binding: index for index, binding in enumerate(ordered_bindings)}
        join_conditions, per_binding_conditions, constant_conditions = self._classify_conditions(
            facts, bindings, request_index
        )
        needed_columns = self._needed_columns(select, facts, bindings)

        requests: List[SourceRequest] = []
        for binding in ordered_bindings:
            request = self._build_request(
                binding, bindings[binding],
                per_binding_conditions.get(binding, ()),
                needed_columns[binding],
            )
            if request_pool is not None:
                request = self._pool_request(request, request_pool, shared_counter)
            requests.append(request)

        fetch_limit = self._branch_fetch_limit(select, facts)
        transfer = requests[0].transfer
        # A lone request that leaves no condition behind can ship the bound.
        if (fetch_limit is not None and len(requests) == 1 and not join_conditions
                and not constant_conditions and not transfer.filters
                and transfer.target.takes_sql):
            limited = self._push_fetch_limit(select, requests[0], fetch_limit, bindings)
            if limited is not None:
                if request_pool is not None:
                    # Re-pool under the limited request's identity so other
                    # branches with the same bound still share the round trip
                    # (no shared_counter: this is the same logical request).
                    limited = self._pool_request(limited, request_pool, None)
                requests[0] = limited

        syntax_order: List[str] = []
        for table in select.tables:
            table_binding = table.binding.lower()
            if table_binding not in syntax_order:
                syntax_order.append(table_binding)

        joined, post_join = self._order_joins(
            requests, request_index, _JoinGraph(requests, join_conditions), syntax_order
        )
        post_join = post_join + tuple(constant_conditions)
        transfers, joins = algebra.left_deep(joined)
        if joins:
            self._apply_bind_joins(requests, request_index, joins, bindings)

        estimated_rows = requests[request_index[transfers[0].binding]].estimated_result_rows
        cost = CostEstimate()
        for request in requests:
            cost = cost.add(request.cost)
            cost = cost.add(self.cost_model.staging_cost(request.estimated_result_rows))
        for join in joins:
            cost = cost.add(join.cost)
            estimated_rows = join.estimated_rows
        cost = cost.add(self.cost_model.local_scan_cost(estimated_rows))

        if post_join:
            joined = algebra.Selection(joined, post_join)
        return BranchPlan(
            requests=requests,
            tree=algebra.Finish(joined, select, fetch_limit),
            estimated_rows=estimated_rows,
            cost=cost,
        )

    # -- fetch-limit push-down -------------------------------------------------------

    def _branch_fetch_limit(self, select: Select, facts: SelectFacts) -> Optional[int]:
        """The branch's safe row bound, or None when LIMIT does not commute.

        A LIMIT commutes with finalization only when no phase after it can
        change the row count: DISTINCT, GROUP BY, HAVING and aggregates all
        disqualify the branch (they collapse rows after the bound would have
        truncated them).
        """
        if not self.config.push_fetch_limits or select.limit is None:
            return None
        if (select.distinct or select.group_by or select.having is not None
                or facts.items.has_aggregate):
            return None
        return select.limit + (select.offset or 0)

    def _push_fetch_limit(self, select: Select, request: SourceRequest,
                          fetch_limit: int, bindings: Dict[str, str],
                          ) -> Optional[SourceRequest]:
        """A single-request branch's request with its row bound pushed: its
        scan's ORDER BY and LIMIT replaced.

        Without ORDER BY any ``fetch_limit`` rows satisfy the branch, so the
        bound is always pushable.  With ORDER BY the source must be able to
        sort, and every key must be a plain column of this binding — the
        source then ships exactly the prefix the engine's final (identical)
        sort would keep.  Output-alias and expression keys stay local.
        """
        transfer = request.transfer
        scan = transfer.target
        capabilities = self.catalog.entry(scan.relation).capabilities
        order_by = scan.order_by
        if select.order_by:
            if not capabilities.order_by:
                return None
            qualifier = scan.alias or scan.relation
            rebuilt = []
            for item in select.order_by:
                expr = item.expr
                if not isinstance(expr, ColumnRef):
                    return None
                try:
                    binding = self._resolve_binding(expr, bindings)
                except PlanningError:
                    # Unqualified name that is an output alias, not a column.
                    return None
                if binding != transfer.binding:
                    return None
                rebuilt.append(replace(
                    item, expr=ColumnRef(name=expr.name, table=qualifier)
                ))
            order_by = tuple(rebuilt)
        limited_rows = (
            min(request.estimated_result_rows, fetch_limit)
            if request.estimated_result_rows else fetch_limit
        )
        limited = replace(scan, order_by=order_by, limit=fetch_limit)
        return replace(
            request,
            transfer=replace(transfer, target=limited),
            estimated_result_rows=limited_rows,
            cost=self.cost_model.source_query_cost(
                capabilities, request.estimated_base_rows, limited_rows
            ),
        )

    @staticmethod
    def _pool_request(request: SourceRequest, pool: Dict[algebra.Transfer, SourceRequest],
                      shared_counter: Optional[List[int]]) -> SourceRequest:
        """Reuse the request an earlier branch built for an equal transfer.

        Plan nodes and the AST nodes in them are frozen dataclasses, so
        structural equality (and hashability) come for free; anything
        unhashable simply stays branch-private.
        """
        try:
            pooled = pool.get(request.transfer)
        except TypeError:  # pragma: no cover - defensive: unhashable literal
            return request
        if pooled is not None:
            if shared_counter is not None:
                shared_counter[0] += 1
            return pooled
        pool[request.transfer] = request
        return request

    # -- FROM analysis ---------------------------------------------------------------

    def _bindings(self, select: Select) -> Dict[str, str]:
        """binding (lower-cased) -> relation name; explicit JOIN syntax is rejected
        here because mediated queries always use comma-joins (plain conjunctive
        conditions), which keeps condition classification uniform."""
        bindings: Dict[str, str] = {}
        for table in select.tables:
            if isinstance(table, TableRef):
                if not self.catalog.has_relation(table.name):
                    raise PlanningError(f"unknown relation {table.name!r}")
                bindings[table.binding.lower()] = table.name
            elif isinstance(table, (Join, DerivedTable)):
                raise PlanningError(
                    "explicit JOIN syntax and derived tables must be normalized away "
                    "before planning (mediated queries use comma-joins)"
                )
            else:  # pragma: no cover - parser produces only the above
                raise PlanningError(f"unsupported FROM item {table!r}")
        return bindings

    # -- condition classification --------------------------------------------------------

    def _classify_conditions(self, facts: SelectFacts, bindings: Dict[str, str],
                             request_index: Dict[str, int]):
        """Sort the WHERE conjuncts by the requests they need: cross-request
        (join) conditions, per-binding conditions, and constant ones."""
        join_conditions: List[_JoinCondition] = []
        per_binding: Dict[str, List[ConjunctFacts]] = {}
        constant_conditions: List[Node] = []
        everything = (1 << len(bindings)) - 1

        for conjunct in facts.conjuncts:
            resolved = [self._resolve_binding(ref, bindings) for ref in conjunct.refs]
            if conjunct.has_subquery:
                # Subquery conditions are evaluated after all joins.
                join_conditions.append((everything, conjunct.condition, None))
                continue
            referenced = set(resolved)
            if len(referenced) == 0:
                constant_conditions.append(conjunct.condition)
            elif len(referenced) == 1:
                per_binding.setdefault(resolved[0], []).append(conjunct)
            else:
                needs = 0
                for binding in referenced:
                    needs |= 1 << request_index[binding]
                equi: Optional[_EquiKey] = None
                if conjunct.equi_pair is not None:
                    (left_ref, right_ref), (left, right) = conjunct.equi_pair, resolved
                    if (self._hash_safe_key(left_ref, left, bindings)
                            and self._hash_safe_key(right_ref, right, bindings)):
                        equi = (left_ref, request_index[left], right_ref, request_index[right])
                join_conditions.append((needs, conjunct.condition, equi))
        return join_conditions, per_binding, constant_conditions

    def _resolve_binding(self, ref: ColumnRef, bindings: Dict[str, str]) -> Optional[str]:
        if ref.table is not None:
            binding = ref.table.lower()
            if binding not in bindings:
                raise PlanningError(f"column {ref.qualified} references unknown table binding")
            return binding
        candidates = [
            binding
            for binding, relation in bindings.items()
            if self.catalog.schema_of(relation).has(ref.name)
        ]
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise PlanningError(f"column {ref.name!r} does not belong to any table in FROM")
        raise PlanningError(f"column {ref.name!r} is ambiguous across {sorted(candidates)}")

    # -- projection analysis ----------------------------------------------------------------

    def _needed_columns(self, select: Select, facts: SelectFacts,
                        bindings: Dict[str, str]) -> Dict[str, List[str]]:
        """Per binding, the columns the branch reads, by first occurrence in
        the statement (the order decides the pushed SELECT list's text)."""
        needed: Dict[str, List[str]] = {binding: [] for binding in bindings}
        seen = set()
        output_aliases = None
        for ref in facts.refs:
            try:
                binding = self._resolve_binding(ref, bindings)
            except PlanningError:
                # References to output aliases (ORDER BY listings, HAVING total...)
                # are resolved during finalization, not against source columns.
                if output_aliases is None:
                    output_aliases = {item.alias.lower() for item in select.items if item.alias}
                if ref.table is None and ref.name.lower() in output_aliases:
                    continue
                raise
            column = (binding, ref.name.lower())
            if column not in seen:
                seen.add(column)
                needed[binding].append(ref.name)

        for binding, relation in bindings.items():
            if facts.items.has_star or not needed[binding]:
                needed[binding] = list(self.catalog.schema_of(relation).names)
        return needed

    # -- source requests -------------------------------------------------------------------------

    def _build_request(self, binding: str, relation: str,
                       conditions: Sequence[ConjunctFacts],
                       columns: Sequence[str]) -> SourceRequest:
        entry = self.catalog.entry(relation)
        capabilities = entry.capabilities

        pushable: List[Node] = []
        local: List[Node] = []
        push = self.config.push_selections and capabilities.selection
        for conjunct in conditions:
            # A computed condition goes only to a source that computes.
            if push and (capabilities.arithmetic or not conjunct.has_computation):
                pushable.append(conjunct.condition)
            else:
                local.append(conjunct.condition)

        project = (
            self.config.push_projections
            and capabilities.projection
            and len(columns) < len(entry.schema)
        )
        # A source that selects is sent a query whenever it accepts SQL at
        # all, one that only projects when projecting pays; any other is
        # asked for the whole relation.
        scan = algebra.Scan(
            relation=relation,
            alias=binding if binding != relation.lower() else None,
            columns=tuple(columns) if project else tuple(entry.schema.names),
            conditions=tuple(pushable),
            takes_sql=capabilities.selection or project,
        )
        estimated_result, estimate_source = self.cost_model.request_cardinality(
            relation, entry.estimated_rows, len(pushable), scan.fingerprint
        )
        cost = self.cost_model.source_query_cost(
            capabilities, entry.estimated_rows, estimated_result,
            wrapper_name=entry.wrapper_name,
        )

        return SourceRequest(
            transfer=algebra.Transfer(scan, binding, tuple(local)),
            wrapper_name=entry.wrapper_name,
            estimated_base_rows=entry.estimated_rows,
            estimated_result_rows=estimated_result,
            cost=cost,
            estimate_source=estimate_source,
            observed_rows=estimated_result if estimate_source == "feedback" else None,
        )

    # -- join ordering ----------------------------------------------------------------------------

    def _order_joins(self, requests: List[SourceRequest], request_index: Dict[str, int],
                     graph: _JoinGraph, syntax_order: Sequence[str] = ()):
        mode = self.config.join_order
        if mode == "auto":
            mode = "dp" if len(requests) <= DP_JOIN_THRESHOLD else "greedy"
        if len(requests) == 1 or mode == "greedy":
            order = self._greedy_order(requests, graph)
        elif mode == "syntax":
            order = [request_index[binding] for binding in syntax_order
                     if binding in request_index]
            if len(order) != len(requests):
                order = self._greedy_order(requests, graph)
        elif mode in ("dp", "worst"):
            order = self._dp_order(requests, graph, worst=(mode == "worst"))
        else:
            raise PlanningError(f"unknown join_order mode {self.config.join_order!r}")
        return self._emit_steps(order, requests, graph)

    @staticmethod
    def _greedy_order(requests: List[SourceRequest], graph: _JoinGraph) -> List[int]:
        """Smallest-intermediate-first order, preferring connected candidates."""
        def size(index: int):
            return requests[index].estimated_result_rows, requests[index].transfer.binding

        remaining = set(range(len(requests)))
        order = [min(remaining, key=size)]
        remaining.remove(order[0])
        joined = 1 << order[0]
        while remaining:
            connected = [index for index in remaining if graph.step(joined, index)[0]]
            candidate = min(connected or remaining, key=size)
            remaining.remove(candidate)
            joined |= 1 << candidate
            order.append(candidate)
        return order

    def _dp_order(self, requests: List[SourceRequest], graph: _JoinGraph,
                  worst: bool = False) -> List[int]:
        """Left-deep dynamic program over the branch's join graph.

        Enumerates subsets (the branch size is bounded by
        ``DP_JOIN_THRESHOLD``), extending each by connected candidates only —
        cartesian products are considered only when no candidate connects,
        mirroring the greedy heuristic.  Cardinalities and join costs come
        from the (feedback-aware) cost model.  With ``worst=False`` the DP
        order is kept only when it is *strictly* cheaper than the greedy
        baseline, so uniform-estimate workloads keep their established plans;
        with ``worst=True`` the cost-maximizing order is returned (the
        adversarial baseline of the equivalence tests).
        """
        n = len(requests)
        greedy = self._greedy_order(requests, graph)
        if n <= 1:
            return greedy

        def transition(mask: int, rows: int, candidate: int):
            conditions, equi_keys, _residual = graph.step(mask, candidate)
            new_mask = mask | (1 << candidate)
            hash_join = bool(equi_keys)
            step_cost = self.cost_model.local_join_cost(
                rows, requests[candidate].estimated_result_rows, hash_join
            ).total
            new_rows, _source = self.cost_model.join_rows_estimate(
                graph.fingerprint(new_mask), rows, requests[candidate].estimated_result_rows,
                len(equi_keys), bool(conditions),
            )
            return new_mask, new_rows, step_cost, bool(conditions)

        # mask -> (accumulated cost, estimated rows, left-deep order)
        best: Dict[int, Tuple[float, int, Tuple[int, ...]]] = {}
        for i in range(n):
            best[1 << i] = (0.0, requests[i].estimated_result_rows, (i,))
        full = (1 << n) - 1
        better = (lambda a, b: a > b) if worst else (lambda a, b: a < b)
        for mask in range(1, full):
            state = best.get(mask)
            if state is None:
                continue
            cost, rows, order = state
            moves = [transition(mask, rows, candidate)
                     for candidate in range(n) if not (mask >> candidate) & 1]
            connected = [move for move in moves if move[3]]
            for new_mask, new_rows, step_cost, _connects in (connected or moves):
                total = cost + step_cost
                existing = best.get(new_mask)
                if existing is None or better(total, existing[0]):
                    candidate = (new_mask ^ mask).bit_length() - 1
                    best[new_mask] = (total, new_rows, order + (candidate,))
        final = best.get(full)
        if final is None:  # pragma: no cover - every relation is reachable
            return greedy
        dp_cost, _rows, dp_order = final
        if worst:
            return list(dp_order)

        # Keep the greedy baseline unless the DP order is strictly cheaper:
        # uniform estimates then keep their established (tested) plans.
        greedy_cost = 0.0
        mask = 1 << greedy[0]
        rows = requests[greedy[0]].estimated_result_rows
        for candidate in greedy[1:]:
            mask, rows, step_cost, _connects = transition(mask, rows, candidate)
            greedy_cost += step_cost
        return list(dp_order) if dp_cost < greedy_cost - 1e-9 else greedy

    def _emit_steps(self, order: Sequence[int], requests: List[SourceRequest],
                    graph: _JoinGraph) -> Tuple[algebra.RelationNode, Tuple[Node, ...]]:
        """The join tree of a fixed left-deep order over the requests'
        transfers, and the conditions no step of it made evaluable."""
        initial = order[0]
        joined = 1 << initial
        current_rows = requests[initial].estimated_result_rows

        node: algebra.RelationNode = requests[initial].transfer
        for candidate in order[1:]:
            conditions, equi_keys, residual = graph.step(joined, candidate)
            hash_join = bool(equi_keys)
            if not hash_join:
                equi_keys, residual = (), conditions
            joined |= 1 << candidate
            feedback_key = graph.fingerprint(joined)
            estimated, estimate_source = self.cost_model.join_rows_estimate(
                feedback_key, current_rows, requests[candidate].estimated_result_rows,
                len(equi_keys), bool(conditions),
            )
            cost = self.cost_model.local_join_cost(
                current_rows, requests[candidate].estimated_result_rows, hash_join
            )
            node = algebra.Join(
                node, requests[candidate].transfer, conditions, hash_join, equi_keys, residual,
                estimated_rows=estimated,
                cost=cost,
                feedback_key=feedback_key,
                estimate_source=estimate_source,
            )
            current_rows = estimated

        # What no step made evaluable: the conditions of a one-request branch.
        post_join = tuple(condition for needs, condition, _equi in graph.conditions
                          if not needs & ~(1 << initial))
        return node, post_join

    # -- bind joins --------------------------------------------------------------------------------

    def _apply_bind_joins(self, requests: List[SourceRequest],
                          request_index: Dict[str, int],
                          joins: Sequence[algebra.Join],
                          bindings: Dict[str, str]) -> int:
        """Convert profitable requests into bind joins, in join order.

        A step's staged request qualifies when the source accepts pushed
        selections, every equi key's intermediate side resolves to one
        already-staged *driver* binding, the driver's estimated key set is
        small, and skipping the unbound fetch saves at least
        ``BIND_JOIN_MIN_REDUCTION`` in estimated transferred rows.  Drivers
        may themselves be bound (the chain follows join order, so it is
        acyclic).  The local HashJoin stays in place: the bound fetch is a
        superset of the rows the join keeps.
        """
        config = self.config
        if not (config.bind_joins and config.push_selections):
            return 0
        applied = 0
        for step in joins:
            index = request_index[step.right.binding]
            request = requests[index]
            scan = step.right.target
            if (request.bind is not None or not scan.takes_sql
                    or scan.limit is not None
                    or not step.hash_join or not step.equi_keys):
                continue
            entry = self.catalog.entry(scan.relation)
            if not entry.capabilities.selection:
                continue
            driver_bindings: Set[str] = set()
            resolvable = True
            for intermediate_ref, _staged_ref in step.equi_keys:
                try:
                    driver_binding = self._resolve_binding(intermediate_ref, bindings)
                except PlanningError:
                    resolvable = False
                    break
                if driver_binding is None:
                    resolvable = False
                    break
                driver_bindings.add(driver_binding)
            if not resolvable or len(driver_bindings) != 1:
                continue
            driver_binding = next(iter(driver_bindings))
            driver_request = requests[request_index[driver_binding]]
            estimated_keys = driver_request.estimated_result_rows
            if estimated_keys <= 0 or estimated_keys > BIND_JOIN_MAX_KEYS:
                continue
            unbound_rows = request.estimated_result_rows
            if unbound_rows < BIND_JOIN_MIN_ROWS:
                continue
            bound_rows = max(1, min(step.estimated_rows, unbound_rows))
            if unbound_rows < BIND_JOIN_MIN_REDUCTION * bound_rows:
                continue
            spec = BindJoinSpec(
                driver_index=request_index[driver_binding],
                driver_binding=driver_binding,
                driver_columns=tuple(ref.name for ref, _ in step.equi_keys),
                bound_columns=tuple(ref.name for _, ref in step.equi_keys),
                batch_size=max(1, config.bind_join_batch_size),
                estimated_keys=estimated_keys,
                estimated_unbound_rows=unbound_rows,
            )
            batches = -(-estimated_keys // spec.batch_size)
            base_cost = self.cost_model.source_query_cost(
                entry.capabilities, request.estimated_base_rows, bound_rows,
                wrapper_name=request.wrapper_name,
            )
            cost = CostEstimate(
                source_execution=base_cost.source_execution
                + entry.capabilities.query_overhead * max(batches - 1, 0),
                communication=base_cost.communication,
            )
            requests[index] = replace(
                request, bind=spec, estimated_result_rows=bound_rows, cost=cost,
            )
            applied += 1
        return applied

    def _hash_safe_key(self, ref: ColumnRef, binding: Optional[str],
                       bindings: Dict[str, str]) -> bool:
        """Whether the column's declared type may hash (``types.may_hash``);
        not when its binding (None: unresolved) or column is unknown."""
        try:
            return may_hash(self.catalog.schema_of(bindings[binding]).attribute(ref.name).type)
        except Exception:
            return False
