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
  the conflict clusters, and still one plan of the ordinary statement path.
  Each relation the statement reads is a branch scanning it in full; the
  plan's root, :class:`~repro.relational.algebra.Repairs`, lowers to a
  blocking operator that drains those extents and evaluates every repair
  with the local SQL processor; certain = intersection, possible = union.
  The engine fetches, reports and streams it as one statement, so a
  streamed answer's rows (or its refusal) arrive at the first fetch.  The
  enumeration refuses to exceed ``max_repairs`` (the definition
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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConsistencyError, PlanningError
from repro.consistency.constraints import PrimaryKey
from repro.engine.executor import EngineResult
from repro.engine.plan import QueryPlan
from repro.relational import algebra
from repro.relational.query import _order_keys, output_names
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
    consistency mode with a plan for the ordinary statement path: of the
    rewritten statement where it can be rewritten, of repair enumeration
    where it cannot."""

    def __init__(self, engine, max_repairs: int = DEFAULT_MAX_REPAIRS):
        self.engine = engine
        self.max_repairs = max(1, int(max_repairs))

    # -- public API --------------------------------------------------------------

    def plan(self, prepared, mode: str) -> QueryPlan:
        """The plan whose rows are ``prepared``'s certain/possible answer; its
        ``consistency`` block names the strategy.

        Compiled once per :class:`~repro.pipeline.MediatedPlan` and mode and
        kept on it, so it retires with it; the plan keeps its physical
        template like any other.
        """
        plan = prepared.consistent.get(mode)
        if plan is None:
            analyses = [self._analyse(branch.select) for branch in prepared.plan.branches]
            finish = prepared.plan.finish
            strategy = self._statement_strategy(analyses, finish)
            if strategy == "fallback":
                plan = self._enumeration(prepared.plan.statement, mode)
            else:
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
                plan.consistency = {
                    "mode": mode, "strategy": strategy,
                    "constrained_relations": sum(
                        analysis.keyed_binding is not None for analysis in analyses),
                    "repairs_enumerated": 0,
                }
            plan = prepared.consistent.setdefault(mode, plan)
        return plan

    def execute(self, prepared, mode: str,
                force_strategy: Optional[str] = None,
                timeout_seconds: Optional[float] = None) -> EngineResult:
        """Answer ``prepared`` (a MediatedPlan) with certain/possible rows, eagerly.

        ``force_strategy="fallback"`` bypasses strategy selection and always
        enumerates repairs — the brute-force evaluation of the definition,
        used by tests and benchmarks to verify the rewrite's exactness.
        """
        validate_mode(mode)
        plan = (self._enumeration(prepared.plan.statement, mode)
                if force_strategy == "fallback" else self.plan(prepared, mode))
        return self.engine.execute(plan, timeout_seconds=timeout_seconds)

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

    def _enumeration(self, statement, mode: str) -> QueryPlan:
        """The plan enumerating the repairs ``statement`` is answered on: one
        branch reading each catalogued relation it names in full — subqueries
        included, since the repaired instance must cover every relation the
        statement can read — under an :class:`~repro.relational.algebra.Repairs`
        root."""
        catalog = self.engine.catalog
        relations: List[str] = []
        for node in walk(statement):
            if isinstance(node, TableRef) and catalog.has_relation(node.name):
                if node.name.lower() not in (name.lower() for name in relations):
                    relations.append(node.name)
        plan = self.engine.plan_branches([
            Select(items=(SelectItem(Star()),), tables=(TableRef(name=relation),))
            for relation in relations])
        keys = [catalog.key_of(relation) for relation in relations]
        plan.root = algebra.Repairs(
            tuple(branch.tree for branch in plan.branches), statement,
            tuple(() if key is None else tuple(key.columns) for key in keys),
            mode == "certain", self.max_repairs)
        plan.consistency = {"mode": mode, "strategy": "fallback"}
        return plan
