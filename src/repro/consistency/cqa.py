"""Consistent query answering over key-violating federated sources.

Under primary-key constraints a dirty instance stands for the set of its
**repairs** — maximal consistent sub-instances keeping exactly one tuple per
conflict cluster (the tuples sharing a key value).  A *certain* answer is a
row produced by the query on **every** repair; a *possible* answer is one
produced on **at least one** (Arenas/Bertossi/Chomicki; Koutris & Wijsen show
the certain answers of many key-constrained queries are first-order
rewritable).

Two strategies implement the semantics exactly:

* **rewrite** — for self-join-free SELECT branches touching at most one
  key-constrained relation, joined to clean relations only through its key
  columns: the classical rewrite quantifies over each conflict cluster
  ("*every* tuple of some cluster satisfies the condition and projects to
  this row").  It executes as a *companion plan* on the ordinary pipeline
  (the original branch with the conjuncts over the dirty relation's non-key
  columns lifted out) followed by a streaming group-quantified filter — the
  ``NOT EXISTS`` of the textbook rewrite, evaluated as a grouped anti-join
  because the dialect pushes no correlated subqueries to sources.  Cost: one
  ordinary execution per branch, no repair enumeration.
* **fallback** — when the rewriting condition fails (self-joins, several
  dirty relations in one branch, a dirty relation shared by several UNION
  branches, aggregates, LIMIT, subqueries): bounded enumeration over the
  conflict clusters.  Every repair is evaluated with the local SQL processor
  over the fetched extents; certain = intersection, possible = union.  The
  enumeration refuses to exceed ``max_repairs`` (the definition is
  exponential; the bound keeps the fallback an explicit, observable cost).

Only :class:`~repro.consistency.constraints.PrimaryKey` constraints induce
repairs; functional-dependency, inclusion and denial constraints are scanned
(:mod:`repro.consistency.violations`) but do not define the repair space.
Certain/possible answers use set semantics, as in the CQA literature.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConsistencyError, PlanningError, RepairEnumerationError
from repro.consistency.constraints import PrimaryKey
from repro.engine.executor import EngineResult, ExecutionReport
from repro.relational.compile import ExpressionCompiler
from repro.relational.operators import _group_key as value_key
from repro.relational.query import QueryProcessor, expand_star_items, output_names
from repro.relational.relation import Relation, Row
from repro.relational.schema import Attribute, Schema, expression_type
from repro.sql.ast import (
    ColumnRef,
    Exists,
    Literal,
    Select,
    SelectItem,
    Star,
    Subquery,
    TableRef,
    conjoin,
    conjuncts,
    is_aggregate_call,
    transform,
    walk,
)

#: Consistency modes accepted by ``Federation.query``/``prepare``.
CONSISTENCY_MODES = ("raw", "certain", "possible")

#: Default bound on enumerated repairs in the fallback strategy.
DEFAULT_MAX_REPAIRS = 512


def validate_mode(consistency: str) -> str:
    if consistency not in CONSISTENCY_MODES:
        raise ConsistencyError(
            f"unknown consistency mode {consistency!r}; expected one of "
            f"{', '.join(CONSISTENCY_MODES)}"
        )
    return consistency


@dataclass
class _BranchAnalysis:
    """Static structure of one branch, seen through the key constraints."""

    select: Select
    #: binding (lower-cased) -> relation name.
    bindings: Dict[str, str]
    #: Distinct key-constrained relations the branch reads (subqueries included).
    keyed_relations: Tuple[str, ...] = ()
    #: The single key-constrained FROM binding, or None when the branch is clean.
    keyed_binding: Optional[str] = None
    key: Optional[PrimaryKey] = None
    #: Why the branch cannot take the rewrite strategy (None = it can).
    ineligible: Optional[str] = None


class MaterializedStream:
    """A stream-shaped view over already-computed rows.

    Consistent answers are group- or repair-quantified, so they cannot leave
    before the quantification completes; this adapter lets ``stream=True``
    consumers (cursors, the chunked HTTP endpoint, the ODBC driver) drive
    them through the exact same fetch surface as a live
    :class:`~repro.engine.stream.ResultStream`.
    """

    def __init__(self, relation: Relation, report: ExecutionReport):
        self.schema = relation.schema
        self.report = report
        self._rows = list(relation.rows)
        self._position = 0
        self._closed = False
        self._callbacks: List[Callable[[ExecutionReport], None]] = []

    @property
    def exhausted(self) -> bool:
        return self._position >= len(self._rows)

    @property
    def closed(self) -> bool:
        return self._closed

    def __iter__(self) -> "MaterializedStream":
        return self

    def __next__(self) -> Row:
        if self.exhausted:
            self.close()
            raise StopIteration
        row = self._rows[self._position]
        self._position += 1
        return row

    def fetchone(self) -> Optional[Row]:
        try:
            return next(self)
        except StopIteration:
            return None

    def fetchmany(self, size: int = 1) -> List[Row]:
        size = max(0, size)
        rows = self._rows[self._position:self._position + size]
        self._position += len(rows)
        if len(rows) < size:
            self.close()  # read past the end, like fetchone at exhaustion
        return rows

    def fetchall(self) -> List[Row]:
        rows = self._rows[self._position:]
        self._position = len(self._rows)
        self.close()
        return rows

    def to_relation(self, name: Optional[str] = None) -> Relation:
        relation = Relation(self.schema, name=name)
        relation.rows = self.fetchall()
        return relation

    def on_close(self, callback: Callable[[ExecutionReport], None]) -> None:
        self._callbacks.append(callback)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self.report)


class ConsistentQueryExecutor:
    """Executes a compiled :class:`~repro.pipeline.MediatedPlan` under a
    consistency mode, choosing rewrite or fallback per statement."""

    def __init__(self, engine, max_repairs: int = DEFAULT_MAX_REPAIRS):
        self.engine = engine
        self.max_repairs = max(1, int(max_repairs))

    # -- public API --------------------------------------------------------------

    def execute(self, prepared, mode: str,
                force_strategy: Optional[str] = None,
                timeout_seconds: Optional[float] = None) -> EngineResult:
        """Answer ``prepared`` (a MediatedPlan) with certain/possible rows.

        ``force_strategy="fallback"`` bypasses strategy selection and always
        enumerates repairs — the brute-force evaluation of the definition,
        used by tests and benchmarks to verify the rewrite's exactness.
        ``timeout_seconds`` bounds the *whole* consistent answer: every
        sub-execution (companion plans, extent fetches) runs under one
        shared deadline.
        """
        validate_mode(mode)
        deadline = self.engine.controller.resilience.deadline(timeout_seconds)
        if mode == "raw":  # pragma: no cover - callers route raw elsewhere
            return self.engine.execute(prepared.plan, deadline=deadline)

        started = time.perf_counter()
        report = ExecutionReport()
        # CQA refuses partial answers (certainty cannot be quantified over a
        # degraded branch set), so the statement-level block is always "fail";
        # counters from every sub-execution fold in via _merge_subreport.
        report.resilience.mode = "fail"
        report.resilience.timeout_seconds = deadline.timeout_seconds
        branches = [branch.select for branch in prepared.plan.branches]
        analyses = [self._analyse(select) for select in branches]

        strategy = force_strategy or self._statement_strategy(analyses)
        if strategy == "clean":
            result = self.engine.execute(prepared.plan, deadline=deadline)
            self._merge_subreport(report, result.report)
            relation = self._dedup(result.relation)
            consistency: Dict[str, object] = {
                "mode": mode, "strategy": "clean",
                "constrained_relations": 0, "clusters": 0,
                "repairs_enumerated": 0, "rows_raw": len(relation),
                "tuples_dropped": 0,
            }
        elif strategy == "rewrite":
            relation, consistency = self._execute_rewrite(analyses, report, mode,
                                                          deadline)
        else:
            relation, consistency = self._execute_fallback(
                prepared.plan.statement, analyses, report, mode, deadline
            )

        consistency["mode"] = mode
        report.consistency = consistency
        report.result_rows = len(relation)
        report.elapsed_seconds = time.perf_counter() - started
        report.resilience.deadline_remaining_seconds = deadline.remaining()
        return EngineResult(relation=relation, plan=prepared.plan, report=report)

    # -- analysis ----------------------------------------------------------------

    def _analyse(self, select: Select) -> _BranchAnalysis:
        planner = self.engine.planner
        catalog = self.engine.catalog
        bindings = planner._bindings(select)
        analysis = _BranchAnalysis(select=select, bindings=bindings)

        # Key-constrained relations anywhere in the branch — subqueries
        # included, since repairs would change their results too.
        keyed_relations: List[str] = []
        for node in walk(select):
            if isinstance(node, TableRef) and catalog.has_relation(node.name):
                if (catalog.key_of(node.name) is not None
                        and node.name.lower() not in keyed_relations):
                    keyed_relations.append(node.name.lower())
        analysis.keyed_relations = tuple(keyed_relations)

        keyed = {
            binding: catalog.key_of(relation)
            for binding, relation in bindings.items()
            if catalog.key_of(relation) is not None
        }
        if len(keyed) == 1 and len(keyed_relations) == 1:
            analysis.keyed_binding, analysis.key = next(iter(keyed.items()))

        relations = [relation.lower() for relation in bindings.values()]
        if len(set(relations)) != len(relations):
            analysis.ineligible = "self-join over a catalogued relation"
        elif len(keyed_relations) > 1:
            analysis.ineligible = "several key-constrained relations in one branch"
        elif select.group_by or select.having is not None or any(
            is_aggregate_call(node) for node in walk(select)
        ):
            analysis.ineligible = "aggregation"
        elif select.limit is not None or select.offset is not None:
            analysis.ineligible = "LIMIT/OFFSET"
        elif any(isinstance(node, (Subquery, Exists)) for node in walk(select)):
            analysis.ineligible = "subquery"
        elif keyed:
            binding, key = next(iter(keyed.items()))
            key_columns = {column.lower() for column in key.columns}
            for condition in conjuncts(select.where):
                referenced = self._refs_by_binding(condition, analysis)
                if referenced is None:
                    analysis.ineligible = "unresolvable column reference"
                    break
                if len(referenced) > 1 and any(
                    column not in key_columns
                    for column in referenced.get(binding, set())
                ):
                    analysis.ineligible = (
                        "join through a non-key column of the dirty relation"
                    )
                    break
            # Select items face the same separability requirement: an item
            # mixing the dirty relation's non-key columns with another
            # binding's columns makes a projected value depend on (cluster
            # member × clean row) jointly, and per-group unanimity can no
            # longer see cross-group coincidences (a value certain through
            # *different* clean partners in different repairs).  Items over
            # the dirty key columns are cluster-constant and stay eligible.
            if analysis.ineligible is None:
                for item in select.items:
                    referenced = self._refs_by_binding(item.expr, analysis)
                    if referenced is None:
                        analysis.ineligible = "unresolvable column reference"
                        break
                    if len(referenced) > 1 and any(
                        column not in key_columns
                        for column in referenced.get(binding, set())
                    ):
                        analysis.ineligible = (
                            "select item mixes the dirty relation's non-key "
                            "columns with another relation"
                        )
                        break
            if analysis.ineligible is None and select.order_by:
                if self._order_keys(select) is None:
                    analysis.ineligible = "ORDER BY key outside the select list"
        return analysis

    def _refs_by_binding(self, condition, analysis: _BranchAnalysis,
                         ) -> Optional[Dict[str, Set[str]]]:
        """binding -> referenced column names (lower-cased) in ``condition``."""
        planner = self.engine.planner
        referenced: Dict[str, Set[str]] = {}
        for node in walk(condition):
            if isinstance(node, ColumnRef):
                try:
                    binding = planner._resolve_binding(node, analysis.bindings)
                except PlanningError:
                    return None
                if binding is not None:
                    referenced.setdefault(binding, set()).add(node.name.lower())
        return referenced

    @staticmethod
    def _statement_strategy(analyses: Sequence[_BranchAnalysis]) -> str:
        if all(not analysis.keyed_relations for analysis in analyses):
            # No involved relation carries a key constraint: repairs cannot
            # change the answer, so certain = possible = raw (as a set).
            return "clean"
        if any(analysis.ineligible is not None for analysis in analyses):
            return "fallback"
        # A dirty relation feeding several UNION branches defeats branch-local
        # reasoning: a row can be certain for the union while certain for no
        # single branch (its witness flips between branches across repairs).
        seen: Set[str] = set()
        for analysis in analyses:
            for relation in analysis.keyed_relations:
                if relation in seen:
                    return "fallback"
                seen.add(relation)
        return "rewrite"

    # -- the first-order rewrite ---------------------------------------------------

    def _execute_rewrite(self, analyses: Sequence[_BranchAnalysis],
                         report: ExecutionReport, mode: str,
                         deadline=None) -> Tuple[Relation, Dict[str, object]]:
        certain_rows: List[Row] = []
        possible_rows: List[Row] = []
        seen_certain: Set[Tuple] = set()
        seen_possible: Set[Tuple] = set()
        schema: Optional[Schema] = None
        clusters = 0
        constrained = 0

        for analysis in analyses:
            if analysis.keyed_binding is None:
                branch_schema, rows = self._execute_clean_branch(analysis, report,
                                                                 deadline)
                branch_certain = branch_possible = rows
                branch_clusters = 0
            else:
                constrained += 1
                branch_schema, branch_certain, branch_possible, branch_clusters = (
                    self._rewrite_branch(analysis, report, deadline)
                )
            if schema is None:
                schema = branch_schema
            clusters += branch_clusters
            for row in branch_certain:
                key = tuple(value_key(value) for value in row)
                if key not in seen_certain:
                    seen_certain.add(key)
                    certain_rows.append(row)
            for row in branch_possible:
                key = tuple(value_key(value) for value in row)
                if key not in seen_possible:
                    seen_possible.add(key)
                    possible_rows.append(row)

        rows = certain_rows if mode == "certain" else possible_rows
        if len(analyses) == 1 and analyses[0].select.order_by:
            rows = self._apply_order(analyses[0].select, rows)
        relation = Relation(schema if schema is not None else Schema([]))
        relation.rows = rows
        consistency = {
            "strategy": "rewrite",
            "constrained_relations": constrained,
            "clusters": clusters,
            "repairs_enumerated": 0,
            "rows_raw": len(possible_rows),
            "tuples_dropped": len(possible_rows) - len(certain_rows),
        }
        return relation, consistency

    def _execute_clean_branch(self, analysis: _BranchAnalysis,
                              report: ExecutionReport,
                              deadline=None) -> Tuple[Schema, List[Row]]:
        result = self.engine.execute(
            self.engine.planner.plan_branches([analysis.select]),
            deadline=deadline,
        )
        self._merge_subreport(report, result.report)
        return result.relation.schema, list(result.relation.rows)

    def _rewrite_branch(self, analysis: _BranchAnalysis, report: ExecutionReport,
                        deadline=None) -> Tuple[Schema, List[Row], List[Row], int]:
        """One keyed branch: companion plan + group-quantified certain filter.

        Returns (output schema, certain rows, raw/possible rows, conflict
        clusters touched by the query).
        """
        select = analysis.select
        planner = self.engine.planner
        bindings = analysis.bindings
        keyed_binding = analysis.keyed_binding
        key_columns = [column.lower() for column in analysis.key.columns]

        qualified = self._qualify(select, analysis)

        # Partition WHERE: conjuncts reading the dirty relation's non-key
        # columns are lifted (each cluster member must be checked against
        # them); everything else stays in the companion and is evaluated by
        # sources/joins exactly as in the raw plan.
        kept: List = []
        lifted: List = []
        for condition in conjuncts(qualified.where):
            referenced = self._refs_by_binding(condition, analysis) or {}
            if any(column not in key_columns
                   for column in referenced.get(keyed_binding, set())):
                lifted.append(condition)
            else:
                kept.append(condition)

        # Every column the branch reads, plus the dirty relation's key.
        needed: Dict[str, Set[str]] = {binding: set() for binding in bindings}

        def note(binding: str, column: str) -> None:
            needed[binding].add(column.lower())

        for column in analysis.key.columns:
            note(keyed_binding, column)
        for node in walk(qualified):
            if isinstance(node, ColumnRef) and node.table is not None:
                note(node.table.lower(), node.name)
            elif isinstance(node, Star):
                stars = (
                    [node.table.lower()] if node.table is not None
                    else list(bindings)
                )
                for binding in stars:
                    for name in self.engine.catalog.schema_of(bindings[binding]).names:
                        note(binding, name)

        # Companion columns in FROM order, each binding's in schema order, so
        # star expansion over the local schema matches the raw finalizer's.
        ordered: List[Tuple[str, str]] = [
            (binding, column)
            for binding in bindings
            for column in self.engine.catalog.schema_of(bindings[binding]).names
            if column.lower() in needed[binding]
        ]
        companion = Select(
            items=tuple(
                SelectItem(ColumnRef(name=column, table=binding))
                for binding, column in ordered
            ),
            tables=select.tables,
            where=conjoin(kept),
        )
        result = self.engine.execute(planner.plan_branches([companion]),
                                     deadline=deadline)
        self._merge_subreport(report, result.report)

        local_schema = Schema(
            Attribute(
                name=column,
                type=self.engine.catalog.schema_of(bindings[binding])
                .attribute(column).type,
                qualifier=binding,
            )
            for binding, column in ordered
        )
        compiler = ExpressionCompiler(local_schema)
        predicate = (
            compiler.predicate(conjoin(lifted)) if lifted else (lambda row: True)
        )
        items = expand_star_items(list(qualified.items), local_schema)
        project = compiler.projection([item.expr for item in items])
        output_schema = Schema(
            Attribute(name=name, type=expression_type(item.expr, local_schema))
            for name, item in zip(output_names(items), items)
        )

        # Group companion rows by (clean-side values, dirty key): each group
        # holds every cluster member joined against one clean combination.
        group_positions = [
            index for index, (binding, column) in enumerate(ordered)
            if binding != keyed_binding or column.lower() in key_columns
        ]
        groups: Dict[Tuple, List[Row]] = {}
        group_order: List[Tuple] = []
        dirty_positions = [
            index for index, (binding, _column) in enumerate(ordered)
            if binding == keyed_binding
        ]
        for row in result.relation.rows:
            group = tuple(value_key(row[position]) for position in group_positions)
            if group not in groups:
                groups[group] = []
                group_order.append(group)
            groups[group].append(row)

        certain: List[Row] = []
        possible: List[Row] = []
        seen_certain: Set[Tuple] = set()
        seen_possible: Set[Tuple] = set()
        clusters = 0
        for group in group_order:
            members = groups[group]
            variants = {
                tuple(value_key(row[position]) for position in dirty_positions)
                for row in members
            }
            if len(variants) > 1:
                clusters += 1
            survivors = [row for row in members if predicate(row) is True]
            for row in survivors:
                projected = project(row)
                key = tuple(value_key(value) for value in projected)
                if key not in seen_possible:
                    seen_possible.add(key)
                    possible.append(projected)
            if len(survivors) < len(members) or not members:
                continue
            projections = {
                tuple(value_key(value) for value in project(row))
                for row in members
            }
            if len(projections) == 1:
                projected = project(members[0])
                key = next(iter(projections))
                if key not in seen_certain:
                    seen_certain.add(key)
                    certain.append(projected)
        return output_schema, certain, possible, clusters

    # -- helpers shared by both strategies -------------------------------------------

    def _qualify(self, select: Select, analysis: _BranchAnalysis) -> Select:
        """Fully qualify column references against the branch's bindings, so
        local re-evaluation cannot hit cross-binding name ambiguity."""
        planner = self.engine.planner

        def fix(node):
            if isinstance(node, ColumnRef) and node.table is None:
                try:
                    binding = planner._resolve_binding(node, analysis.bindings)
                except PlanningError:
                    return node  # an output-alias reference (ORDER BY)
                if binding is not None:
                    return ColumnRef(name=node.name, table=binding)
            return node

        return transform(select, fix)

    def _order_keys(self, select: Select) -> Optional[List[Tuple[int, bool]]]:
        """ORDER BY keys as output positions, or None when any key needs the
        pre-projection context row (the rewrite then falls back)."""
        items = list(select.items)
        alias_positions: Dict[str, int] = {}
        for index, item in enumerate(items):
            if item.alias:
                alias_positions.setdefault(item.alias.lower(), index)
            elif isinstance(item.expr, ColumnRef):
                alias_positions.setdefault(item.expr.name.lower(), index)
        keys: List[Tuple[int, bool]] = []
        for order_item in select.order_by:
            expr = order_item.expr
            position: Optional[int] = None
            if isinstance(expr, ColumnRef) and expr.table is None:
                position = alias_positions.get(expr.name.lower())
            elif (isinstance(expr, Literal) and isinstance(expr.value, int)
                  and not isinstance(expr.value, bool)):
                if 1 <= expr.value <= len(items):
                    position = expr.value - 1
            elif expr in {item.expr: None for item in items}:
                for index, item in enumerate(items):
                    if item.expr == expr:
                        position = index
                        break
            if position is None:
                return None
            keys.append((position, order_item.ascending))
        return keys

    def _apply_order(self, select: Select, rows: List[Row]) -> List[Row]:
        from repro.relational.types import sort_key

        keys = self._order_keys(select)
        if keys is None:  # pragma: no cover - eligibility already checked
            return rows
        ordered = list(rows)
        for position, ascending in reversed(keys):
            ordered.sort(key=lambda row: sort_key(row[position]), reverse=not ascending)
        return ordered

    @staticmethod
    def _dedup(relation: Relation) -> Relation:
        seen: Set[Tuple] = set()
        result = Relation(relation.schema, name=relation.name)
        for row in relation.rows:
            key = tuple(value_key(value) for value in row)
            if key not in seen:
                seen.add(key)
                result.rows.append(row)
        return result

    @staticmethod
    def _merge_subreport(report: ExecutionReport, sub: ExecutionReport) -> None:
        """Fold a companion execution's trace into the statement report."""
        report.requests.extend(sub.requests)
        report.distinct_requests += sub.distinct_requests
        report.dedup_hits += sub.dedup_hits
        report.cache_hits += sub.cache_hits
        report.max_in_flight = max(report.max_in_flight, sub.max_in_flight)
        report.operator_stats.extend(sub.operator_stats)
        report.peak_memory_bytes = max(report.peak_memory_bytes, sub.peak_memory_bytes)
        report.spill_count += sub.spill_count
        report.spilled_rows += sub.spilled_rows
        report.spilled_bytes += sub.spilled_bytes
        report.staged_bytes += sub.staged_bytes
        report.resilience.attempts += sub.resilience.attempts
        report.resilience.retries += sub.resilience.retries
        report.resilience.failed_requests += sub.resilience.failed_requests
        report.resilience.breaker_trips += sub.resilience.breaker_trips
        report.resilience.breaker_rejections += sub.resilience.breaker_rejections
        report.resilience.degraded_branches.extend(sub.resilience.degraded_branches)

    # -- the repair-intersection fallback ----------------------------------------------

    def _execute_fallback(self, statement, analyses: Sequence[_BranchAnalysis],
                          report: ExecutionReport, mode: str,
                          deadline=None) -> Tuple[Relation, Dict[str, object]]:
        catalog = self.engine.catalog
        relations: List[str] = []
        for node in walk(statement):
            # Subqueries included: the repaired instance must cover every
            # relation the statement can read, not just the FROM bindings.
            if isinstance(node, TableRef) and catalog.has_relation(node.name):
                if node.name.lower() not in (name.lower() for name in relations):
                    relations.append(node.name)

        tables: Dict[str, Relation] = {}
        for relation in relations:
            tables[relation] = self._fetch_extent(relation, report, deadline)

        # A repair is a *set* of tuples, so every key-constrained relation
        # first collapses exact-duplicate rows (two identical tuples are the
        # same tuple twice) — uniformly, whether or not the relation also has
        # conflicting clusters.  Then the conflict clusters (distinct tuple
        # variants sharing a key) define the repair space.
        clusters: List[Tuple[str, List[Row]]] = []  # (relation, variants)
        cluster_count = 0
        repair_space = 1
        for relation in relations:
            key = catalog.key_of(relation)
            if key is None:
                continue
            extent = self._dedup(tables[relation])
            tables[relation] = extent
            positions = [extent.schema.index_of(column) for column in key.columns]
            by_key: Dict[Tuple, List[Row]] = {}
            order: List[Tuple] = []
            for row in extent.rows:
                cluster_key = tuple(value_key(row[position]) for position in positions)
                if cluster_key not in by_key:
                    by_key[cluster_key] = []
                    order.append(cluster_key)
                by_key[cluster_key].append(row)
            for cluster_key in order:
                variants = by_key[cluster_key]
                if len(variants) > 1:
                    cluster_count += 1
                    repair_space *= len(variants)
                    clusters.append((relation, variants))
                    if repair_space > self.max_repairs:
                        raise RepairEnumerationError(
                            f"the conflict clusters admit more than "
                            f"{self.max_repairs} repairs; narrow the query, "
                            "clean the sources, or raise max_repairs"
                        )

        processor_tables = dict(tables)
        raw_rows = QueryProcessor.over_tables(processor_tables).execute(statement)
        raw_set = {tuple(value_key(v) for v in row) for row in raw_rows.rows}
        schema = raw_rows.schema

        if not clusters:
            # No conflicts: the (duplicate-collapsed) instance is its own
            # unique repair, already evaluated as raw_rows.
            repairs = 1
            deduped = self._dedup(raw_rows)
            certain_rows: List[Row] = list(deduped.rows)
            certain_keys: Set[Tuple] = set(raw_set)
            possible_rows: List[Row] = list(deduped.rows)
        else:
            # Invariants of the enumeration, hoisted out of the repair loop:
            # which relations have conflicts, their full conflicted-row sets,
            # and which cluster indices belong to which relation.
            conflicted_relations: List[str] = []
            for relation, _variants in clusters:
                if relation not in conflicted_relations:
                    conflicted_relations.append(relation)
            conflicted_rows_of: Dict[str, Set[Tuple]] = {
                relation: {
                    tuple(value_key(v) for v in variant)
                    for cluster_relation, variants in clusters
                    if cluster_relation.lower() == relation.lower()
                    for variant in variants
                }
                for relation in conflicted_relations
            }
            cluster_indices_of: Dict[str, List[int]] = {
                relation: [
                    index for index, (cluster_relation, _variants) in enumerate(clusters)
                    if cluster_relation.lower() == relation.lower()
                ]
                for relation in conflicted_relations
            }

            certain_rows = []
            certain_keys = set()
            possible_rows = []
            possible_keys: Set[Tuple] = set()
            repairs = 0
            for choice in itertools.product(*(range(len(variants))
                                              for _relation, variants in clusters)):
                repairs += 1
                repaired = dict(processor_tables)
                for relation in conflicted_relations:
                    repaired[relation] = self._repair_relation(
                        tables[relation],
                        {
                            tuple(value_key(v) for v in clusters[index][1][choice[index]])
                            for index in cluster_indices_of[relation]
                        },
                        conflicted_rows_of[relation],
                    )
                result = QueryProcessor.over_tables(repaired).execute(statement)
                keys = [tuple(value_key(v) for v in row) for row in result.rows]
                key_set = set(keys)
                if repairs == 1:
                    certain_keys = key_set
                    seen: Set[Tuple] = set()
                    for row, key in zip(result.rows, keys):
                        if key not in seen:
                            seen.add(key)
                            certain_rows.append(row)
                    schema = result.schema
                else:
                    certain_keys &= key_set
                for row, key in zip(result.rows, keys):
                    if key not in possible_keys:
                        possible_keys.add(key)
                        possible_rows.append(row)
            certain_rows = [
                row for row in certain_rows
                if tuple(value_key(v) for v in row) in certain_keys
            ]

        rows = certain_rows if mode == "certain" else possible_rows
        relation = Relation(schema)
        relation.rows = list(rows)
        consistency = {
            "strategy": "fallback",
            "constrained_relations": len({r for r, _v in clusters}) if clusters else 0,
            "clusters": cluster_count,
            "repairs_enumerated": repairs,
            "rows_raw": len(raw_set),
            "tuples_dropped": len(raw_set) - len(certain_keys),
        }
        return relation, consistency

    def _fetch_extent(self, relation: str, report: ExecutionReport,
                      deadline=None) -> Relation:
        """Fetch one relation's full extent through the ordinary pipeline."""
        select = Select(items=(SelectItem(Star()),), tables=(TableRef(name=relation),))
        result = self.engine.execute(self.engine.planner.plan_branches([select]),
                                     deadline=deadline)
        self._merge_subreport(report, result.report)
        base_schema = self.engine.catalog.schema_of(relation)
        extent = Relation(
            Schema(
                Attribute(name=attribute.name, type=attribute.type, qualifier=None)
                for attribute in base_schema
            ),
            name=relation,
        )
        extent.rows = list(result.relation.rows)
        return extent

    @staticmethod
    def _repair_relation(extent: Relation, chosen_variants: Set[Tuple],
                         conflicted_rows: Set[Tuple]) -> Relation:
        """The (duplicate-collapsed) extent with each conflicted cluster
        reduced to its chosen tuple."""
        repaired = Relation(extent.schema, name=extent.name)
        for row in extent.rows:
            normalized = tuple(value_key(v) for v in row)
            if normalized in conflicted_rows and normalized not in chosen_variants:
                continue
            repaired.rows.append(row)
        return repaired
