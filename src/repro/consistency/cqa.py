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
  columns, consistency is a *compile step*: :meth:`ConsistentQueryExecutor.plan`
  hands the ordinary planner a rewritten SELECT and the ordinary statement
  path runs it.  The possible rows of such a branch are its distinct raw
  rows.  Its certain rows quantify over each conflict cluster ("*every*
  tuple of the cluster satisfies the condition and projects to this row"):
  ``GROUP BY`` the key (and the clean columns read), the conjuncts over the
  dirty relation's non-key columns moved from WHERE into
  ``HAVING SUM(CASE WHEN … THEN 1 ELSE 0 END) = COUNT(*)`` — so no source
  filters cluster members away — and one NULL-safe unanimity test per select
  item reading such a column.  A statement over no key-constrained relation
  (**clean**) is its possible rows in either mode.
* **fallback** — when the rewriting condition fails (self-joins, several
  dirty relations in one branch, a dirty relation shared by several UNION
  branches, aggregates, LIMIT/OFFSET, subqueries, a dirty relation under the
  finish over a multi-branch union): bounded enumeration over
  the conflict clusters.  Every repair is evaluated with the local SQL
  processor over the fetched extents; certain = intersection, possible =
  union.  The enumeration refuses to exceed ``max_repairs`` (the definition
  is exponential; the bound keeps the fallback an explicit, observable
  cost).  It is the brute-force definition the rewrite is tested against.
  Its possible rows are sorted on the statement's ORDER BY when every key
  is an output column; a key outside the select list has no order across
  repairs under set semantics, and those rows keep first-seen order.
  The processor runs each repair on the engine's join and filter operators,
  so that check rests on the processor's own: generated statements against
  the interpreter (``tests/relational/test_processor_generated.py``).

Only :class:`~repro.consistency.constraints.PrimaryKey` constraints induce
repairs; functional-dependency, inclusion and denial constraints are scanned
(:mod:`repro.consistency.violations`) but do not define the repair space.
Certain/possible answers use set semantics, as in the CQA literature.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConsistencyError, PlanningError, RepairEnumerationError
from repro.consistency.constraints import PrimaryKey
from repro.engine.executor import EngineResult, ExecutionReport
from repro.engine.plan import QueryPlan
from repro.relational.operators import _group_key as value_key
from repro.relational.query import QueryProcessor, _order_keys, output_names
from repro.relational.relation import Relation, Row
from repro.relational.schema import Attribute, Schema
from repro.sql.ast import (
    BinaryOp,
    Case,
    ColumnRef,
    FunctionCall,
    Literal,
    Node,
    Select,
    SelectItem,
    Star,
    TableRef,
    conjoin,
    walk,
)
from repro.sql.facts import SelectFacts, analyse_expression, analyse_select

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

    #: The branch, ``*`` expanded from the catalog.
    select: Select
    #: Distinct key-constrained relations the branch reads (subqueries included).
    keyed_relations: Tuple[str, ...] = ()
    #: The single key-constrained FROM binding, or None when the branch is clean.
    keyed_binding: Optional[str] = None
    key: Optional[PrimaryKey] = None
    #: Why the branch cannot take the rewrite strategy (None = it can).
    ineligible: Optional[str] = None
    #: Of an eligible keyed branch: the SELECT whose rows are its certain rows.
    certain: Optional[Select] = None


class ConsistentQueryExecutor:
    """Answers a compiled :class:`~repro.pipeline.MediatedPlan` under a
    consistency mode: a plan for the ordinary statement path where the
    statement can be rewritten, repair enumeration where it cannot."""

    def __init__(self, engine, max_repairs: int = DEFAULT_MAX_REPAIRS):
        self.engine = engine
        self.max_repairs = max(1, int(max_repairs))

    # -- public API --------------------------------------------------------------

    def plan(self, prepared, mode: str,
             ) -> Tuple[Optional[QueryPlan], Optional[Dict[str, object]]]:
        """The plan whose rows are ``prepared``'s certain/possible answer and
        the ``consistency`` block of its report — ``(None, None)`` when only
        :meth:`enumerate_repairs` can answer.

        Compiled once per :class:`~repro.pipeline.MediatedPlan` and mode and
        kept on it, so it retires with it; the plan keeps its physical
        template like any other.
        """
        compiled = prepared.consistent.get(mode)
        if compiled is None:
            analyses = [self._analyse(branch.select) for branch in prepared.plan.branches]
            finish = prepared.plan.finish
            strategy = self._statement_strategy(analyses, finish)
            compiled = (None, None)
            if strategy != "fallback":
                if finish is not None:
                    # Only a clean statement keeps its finish: its rows, as a set.
                    plan = self.engine.plan_branches(
                        [analysis.select for analysis in analyses],
                        statement=finish.copy(distinct=True))
                else:
                    plan = self.engine.plan_branches([
                        analysis.certain if mode == "certain" and analysis.certain is not None
                        else analysis.select.copy(distinct=True)
                        for analysis in analyses
                    ])
                compiled = (plan, {
                    "mode": mode, "strategy": strategy,
                    "constrained_relations": sum(
                        analysis.keyed_binding is not None for analysis in analyses),
                    "repairs_enumerated": 0,
                })
            compiled = prepared.consistent.setdefault(mode, compiled)
        return compiled

    def execute(self, prepared, mode: str,
                force_strategy: Optional[str] = None,
                timeout_seconds: Optional[float] = None) -> EngineResult:
        """Answer ``prepared`` (a MediatedPlan) with certain/possible rows, eagerly.

        ``force_strategy="fallback"`` bypasses strategy selection and always
        enumerates repairs — the brute-force evaluation of the definition,
        used by tests and benchmarks to verify the rewrite's exactness.
        """
        validate_mode(mode)
        plan, block = (None, None) if force_strategy == "fallback" else self.plan(prepared, mode)
        if plan is None:
            return self.enumerate_repairs(prepared, mode, timeout_seconds)
        result = self.engine.execute(plan, timeout_seconds=timeout_seconds)
        result.report.consistency = dict(block)
        return result

    def enumerate_repairs(self, prepared, mode: str,
                          timeout_seconds: Optional[float] = None) -> EngineResult:
        """Answer ``prepared`` by repair enumeration.  ``timeout_seconds``
        bounds the *whole* answer: every extent fetch runs under one shared
        deadline."""
        deadline = self.engine.resilience.deadline(timeout_seconds)
        started = time.perf_counter()
        # CQA refuses partial answers (certainty cannot be quantified over a
        # degraded branch set), so the report keeps its default "fail" mode;
        # counters from every extent fetch fold in via _merge_subreport.
        report = ExecutionReport(timeout_seconds=deadline.timeout_seconds)
        relation, consistency = self._execute_fallback(
            prepared.plan.statement, report, mode, deadline
        )
        consistency["mode"] = mode
        report.consistency = consistency
        report.result_rows = len(relation)
        report.elapsed_seconds = time.perf_counter() - started
        report.deadline_remaining_seconds = deadline.remaining()
        return EngineResult(relation=relation, plan=prepared.plan, report=report)

    # -- analysis ----------------------------------------------------------------

    def _analyse(self, select: Select) -> _BranchAnalysis:
        catalog = self.engine.catalog
        bindings = self.engine.planner._bindings(select)
        if any(isinstance(item.expr, Star) for item in select.items):
            select = select.copy(items=self._expand_stars(select.items, bindings))
        analysis = _BranchAnalysis(select=select)
        facts = analyse_select(select)
        clauses = (facts.items, analyse_expression(select.order_by), *facts.conjuncts)
        aggregated = (bool(select.group_by) or select.having is not None
                      or any(clause.has_aggregate for clause in clauses))
        nested = any(clause.has_subquery for clause in clauses)

        # Key-constrained relations anywhere in the branch — subqueries
        # included, since repairs would change their results too.  Below FROM
        # only a subquery names a table, and only the clauses asked above (or
        # a grouped statement's) can hold one.
        keyed_relations: List[str] = []
        for node in (walk(select) if nested or aggregated else select.tables):
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
        elif aggregated:
            analysis.ineligible = "aggregation"
        elif nested:
            analysis.ineligible = "subquery"
        elif keyed:
            self._separate(analysis, facts, bindings)
        return analysis

    def _expand_stars(self, items: Sequence[SelectItem],
                      bindings: Dict[str, str]) -> Tuple[SelectItem, ...]:
        """``*`` / ``t.*`` as the catalog's columns, bindings in FROM order —
        what the finish expands them to over the joined row.  A ``t`` the
        FROM clause does not bind is left for the finish to refuse."""
        expanded: List[SelectItem] = []
        for item in items:
            starred: List[str] = []
            if isinstance(item.expr, Star):
                table = item.expr.table
                starred = [binding for binding in bindings
                           if table is None or binding == table.lower()]
            if not starred:
                expanded.append(item)
            for binding in starred:
                expanded.extend(
                    SelectItem(ColumnRef(name=column, table=binding))
                    for column in self.engine.catalog.schema_of(bindings[binding]).names
                )
        return tuple(expanded)

    def _separate(self, analysis: _BranchAnalysis, facts: SelectFacts,
                  bindings: Dict[str, str]) -> None:
        """Rewrite a keyed branch: split it into what is quantified per
        cluster and what is left alone, or say why it cannot be split."""
        select, dirty = analysis.select, analysis.keyed_binding
        resolve = self.engine.planner._resolve_binding
        key_columns = {column.lower() for column in analysis.key.columns}

        def reads_non_key(refs: Sequence[ColumnRef]) -> Optional[bool]:
            """Whether ``refs`` read the dirty relation's non-key columns;
            None when they do so beside another relation's columns."""
            read: Dict[str, Set[str]] = {}
            for ref in refs:
                read.setdefault(resolve(ref, bindings), set()).add(ref.name.lower())
            if key_columns.issuperset(read.get(dirty, ())):
                return False
            return True if len(read) == 1 else None

        lifted: List[Node] = []
        kept: List[Node] = []
        for conjunct in facts.conjuncts:
            reads = reads_non_key(conjunct.refs)
            if reads is None:
                analysis.ineligible = "join through a non-key column of the dirty relation"
                return
            (lifted if reads else kept).append(conjunct.condition)
        # Select items face the same separability requirement: an item mixing
        # the dirty relation's non-key columns with another binding's columns
        # makes a projected value depend on (cluster member × clean row)
        # jointly, and per-group unanimity can no longer see cross-group
        # coincidences (a value certain through *different* clean partners in
        # different repairs).  Items over the dirty key columns are
        # cluster-constant and stay eligible.
        expressions = [item.expr for item in select.items]
        quantified: List[Node] = []
        for expression in dict.fromkeys(expressions):
            reads = reads_non_key(analyse_expression(expression).refs)
            if reads is None:
                analysis.ineligible = ("select item mixes the dirty relation's "
                                       "non-key columns with another relation")
                return
            if reads:
                quantified.append(expression)
        order = _order_keys([(item.expr, item.ascending) for item in select.order_by],
                            expressions, output_names(select.items))
        if any(position is None for position, _expr, _ascending in order):
            # The key would be read off the group's first member.
            analysis.ineligible = "ORDER BY key outside the select list"
            return

        group_by = {(dirty, column.lower()): ColumnRef(name=column, table=dirty)
                    for column in analysis.key.columns}
        for ref in facts.refs:
            try:
                binding = resolve(ref, bindings)
            except PlanningError:
                continue  # an output-alias reference (ORDER BY)
            if binding != dirty:
                group_by.setdefault((binding, ref.name.lower()),
                                    ColumnRef(name=ref.name, table=binding))
        analysis.certain = self._certain(select, kept, lifted, quantified,
                                         tuple(group_by.values()))

    @staticmethod
    def _statement_strategy(analyses: Sequence[_BranchAnalysis],
                            finish: Optional[Select] = None) -> str:
        """The strategy for a statement with the branches ``analyses``
        describe; ``finish`` is the statement when it finishes their union
        (its aggregates, ORDER BY and LIMIT sit there, not in a branch)."""
        selects = [analysis.select for analysis in analyses]
        if finish is not None:
            selects.append(finish)
            if analyse_expression((finish.items, finish.group_by, finish.having,
                                   finish.order_by)).has_subquery:
                return "fallback"  # a relation read beside the branches
        if any(select.limit is not None or select.offset is not None for select in selects):
            # Set semantics and a row bound do not commute: DISTINCT … LIMIT
            # is not the bounded answer deduplicated, which is what
            # enumeration computes — keyed or not.
            return "fallback"
        if all(not analysis.keyed_relations for analysis in analyses):
            # No involved relation carries a key constraint: repairs cannot
            # change the answer, so certain = possible = raw (as a set).
            return "clean"
        if finish is not None:
            # Certainty is decided per branch row; a finish aggregating,
            # sorting or projecting the union reads rows no branch decides.
            return "fallback"
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

    @staticmethod
    def _certain(select: Select, kept: Sequence[Node], lifted: Sequence[Node],
                 quantified: Sequence[Node], group_by: Tuple[ColumnRef, ...]) -> Select:
        """The SELECT whose rows are the certain rows of keyed branch ``select``.

        One group per conflict cluster and clean combination joined to it
        (``group_by``: the dirty key and every clean column read); a group
        answers iff *every* member satisfies the ``lifted`` conjuncts — those
        reading the dirty relation's non-key columns, taken out of WHERE so
        that ``kept`` alone filters at the sources — and all members agree on
        each ``quantified`` select item, the ones that can differ between
        them: one distinct non-NULL value on every member, or NULL on every
        member.  The item is then read off the group's first member.
        """
        members = FunctionCall("COUNT", (Star(),))
        having: List[Node] = []
        if lifted:
            satisfied = Case(((conjoin(lifted), Literal(1)),), Literal(0))
            having.append(BinaryOp("=", FunctionCall("SUM", (satisfied,)), members))
        for expression in quantified:
            valued = FunctionCall("COUNT", (expression,))
            having.append(BinaryOp(
                "<=", FunctionCall("COUNT", (expression,), distinct=True), Literal(1)))
            having.append(BinaryOp("OR", BinaryOp("=", valued, Literal(0)),
                                   BinaryOp("=", valued, members)))
        return select.copy(where=conjoin(kept), group_by=group_by,
                           having=conjoin(having), distinct=True)

    # -- repair enumeration --------------------------------------------------------

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
        """Fold an extent fetch's trace into the statement report."""
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
        report.attempts += sub.attempts
        report.retries += sub.retries
        report.failed_requests += sub.failed_requests
        report.breaker_trips += sub.breaker_trips
        report.breaker_rejections += sub.breaker_rejections
        report.degraded_branches.extend(sub.degraded_branches)

    def _execute_fallback(self, statement, report: ExecutionReport, mode: str,
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

        relation = Relation(schema)
        if mode == "certain":
            relation.rows = list(certain_rows)
        else:
            # Certain rows keep the first repair's (sorted) order; the possible
            # rows of later repairs arrive after it, so they are sorted again.
            relation.rows = possible_rows
            relation = relation.sorted_on(self._output_order(statement))
        consistency = {
            "strategy": "fallback",
            "constrained_relations": len({r for r, _v in clusters}) if clusters else 0,
            "clusters": cluster_count,
            "repairs_enumerated": repairs,
            "rows_raw": len(raw_set),
            "tuples_dropped": len(raw_set) - len(certain_keys),
        }
        return relation, consistency

    @staticmethod
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
