"""The context mediator.

"The mediation engine intercepts a query to the multi-database engine and
rewrites it according to the context knowledge it has about the receiver and
the sources involved."

:class:`ContextMediator` accepts a receiver's SQL (text or AST) plus the
receiver's context name, performs conflict detection and abductive branch
enumeration, and builds one SELECT for every consistent branch:

* every semantic value's column reference is replaced by the composition of
  the conversion expressions required by the branch (e.g. ``rl.revenue``
  becomes ``rl.revenue * 1000 * r3.rate`` in the JPY branch);
* the branch's assumptions (guards) become extra WHERE conjuncts
  (``rl.currency = 'JPY'``);
* conversions that need ancillary data add their relations to FROM and their
  join conditions to WHERE (``r3``, ``r3.fromCur = rl.currency`` ...).

Every column reference reads the FROM binding ``conflicts.resolve_ref`` gives it,
qualified or not.  The branches are combined with UNION ALL — "the rewritten
query is usually a union of sub-queries corresponding respectively to the
possible conflicts between the context assumptions and their resolution".
The guards partition the rows, so no row reaches two branches and the union
keeps the statement's bag.

The statement's finish — DISTINCT, GROUP BY/HAVING, aggregates, ORDER BY,
LIMIT/OFFSET — belongs to the whole answer, so a multi-branch statement with
one is the receiver's finish over the union of *bare* branches:
``SELECT … FROM (b1 UNION ALL b2 …) m …``, each branch projecting the
converted columns the finish reads.  A one-branch statement is its branch.

The mediator also keeps aggregate statistics (queries mediated, branches
produced, conflicts detected) that the benchmarks read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union as TUnion

from repro.errors import MediationError, SQLUnsupportedError
from repro.coin.context import Guard
from repro.coin.conversion import ConversionBuilder
from repro.coin.system import CoinSystem
from repro.mediation.abduction import MediationBranch, enumerate_branches, order_branches
from repro.mediation.conflicts import (
    ConflictAnalysis,
    ModifierResolution,
    Resolved,
    SemanticValueRef,
    analyze_query,
    binding_map,
    resolve_refs,
)
from repro.obs.metrics import CounterSet
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Literal,
    Node,
    OrderItem,
    Select,
    SelectItem,
    Statement,
    Subquery,
    Union,
    conjoin,
    transform,
)
from repro.sql.facts import SelectFacts, analyse_expression, analyse_select
from repro.sql.parser import UNION_ALIAS, DerivedTable, finished_union, parse
from repro.sql.printer import to_sql

#: A mediator's lifetime counters: (field, kind, exported series, help).
MEDIATOR_COUNTERS = (
    ("queries_mediated", "sum", None, ""),
    ("branches_produced", "sum", None, ""),
    ("conflicts_detected", "sum", None, ""),
    ("queries_unchanged", "sum", None, ""),
)


@dataclass
class BranchQuery:
    """One sub-query of the mediated UNION plus the reasoning that produced it."""

    select: Select
    branch: MediationBranch

    @property
    def sql(self) -> str:
        return to_sql(self.select)

    @property
    def guards(self) -> Tuple[Guard, ...]:
        return self.branch.guards

    @property
    def conversions(self) -> List[ModifierResolution]:
        return self.branch.conversions


@dataclass
class MediationResult:
    """Everything the mediator knows about one rewriting."""

    original: Select
    receiver_context: str
    analyses: List[ConflictAnalysis]
    #: Empty for the ``mediate=False`` passthrough, which skips conflict
    #: detection and abduction entirely.
    branches: List[BranchQuery]
    mediated: Statement
    #: Semantic type (or None) of each output column of the query, used by
    #: answer post-processing and by clients that display units.
    column_semantics: List[Optional[str]]

    @cached_property
    def sql(self) -> str:
        """The mediated query as SQL text (what Section 3 of the paper shows)."""
        return to_sql(self.mediated)

    @cached_property
    def original_sql(self) -> str:
        return to_sql(self.original)

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    @property
    def conflict_count(self) -> int:
        """Number of (value, modifier) pairs that can conflict with the receiver."""
        return sum(1 for analysis in self.analyses if analysis.has_potential_conflict)

    @property
    def is_rewritten(self) -> bool:
        """False when the query needed no mediation at all.

        A second branch, an assumption or a conversion always changes the
        text; only without any of them are the two texts compared."""
        if len(self.branches) > 1 or any(
                branch.guards or branch.conversions for branch in self.branches):
            return True
        return self.sql != self.original_sql

    def explain(self) -> str:
        from repro.mediation.explain import explain_mediation

        return explain_mediation(self)


class ContextMediator:
    """Rewrites receiver queries into mediated queries for one federation."""

    def __init__(self, system: CoinSystem, default_receiver_context: Optional[str] = None,
                 max_branches: int = 256):
        self.system = system
        self.default_receiver_context = default_receiver_context
        self.max_branches = max_branches
        self.statistics = CounterSet(MEDIATOR_COUNTERS)

    # -- public API -------------------------------------------------------------

    def mediate(self, query: TUnion[str, Select],
                receiver_context: Optional[str] = None) -> MediationResult:
        """Mediate one SELECT query posed in the receiver's context.

        ``query`` may be SQL text or an already-parsed :class:`Select`
        (see :meth:`as_select`).
        """
        context_name = self._known_context(receiver_context)
        select = self.as_select(query)
        bindings = binding_map(select)
        facts = analyse_select(select)
        refs = facts.refs
        sorts = _output_sorts(select)
        if sorts:
            # An output name in ORDER BY reads no FROM binding, unless
            # another clause reads a column of that name.
            read = set(analyse_expression((select.items, select.tables, select.where,
                                           select.group_by, select.having)).refs)
            refs = [ref for ref in refs
                    if ref.table is not None or ref.name.lower() not in sorts or ref in read]
        resolved = resolve_refs(refs, bindings, self.system)
        analyses = analyze_query(select, self.system, context_name, resolved)
        branches = order_branches(enumerate_branches(analyses, self.max_branches))
        if not branches:
            raise MediationError("mediation produced no branches")  # pragma: no cover

        finish = columns = None
        if len(branches) > 1 and _has_finish(select, facts):
            finish, columns = _finish_over_union(select)
        branch_queries = [
            BranchQuery(self._build_branch(select, branch, facts, bindings, resolved, columns),
                        branch)
            for branch in branches
        ]
        if len(branch_queries) == 1:
            mediated: Statement = branch_queries[0].select
        else:
            mediated = Union(tuple(branch.select for branch in branch_queries), all=True)
            if finish is not None:
                mediated = finish.copy(tables=(DerivedTable(mediated, UNION_ALIAS),))

        result = MediationResult(
            original=select,
            receiver_context=context_name,
            analyses=analyses,
            branches=branch_queries,
            mediated=mediated,
            column_semantics=self._column_semantics(select, resolved),
        )
        self.statistics.add(
            queries_mediated=1,
            branches_produced=result.branch_count,
            conflicts_detected=result.conflict_count,
            queries_unchanged=int(not result.is_rewritten),
        )
        return result

    def unmediated(self, select: Select,
                   receiver_context: Optional[str] = None) -> MediationResult:
        """A passthrough result: the statement will run verbatim.

        Only the column-semantics scan runs (the answer annotator needs it);
        conflict detection and abduction are skipped, which is what makes
        ``mediate=False`` a fast path rather than a mediation whose output is
        discarded.
        """
        context_name = self._known_context(receiver_context)
        resolved = resolve_refs([item.expr for item in select.items
                                 if item.expr.__class__ is ColumnRef],
                                binding_map(select), self.system)
        return MediationResult(
            original=select,
            receiver_context=context_name,
            analyses=[],
            branches=[],
            mediated=select,
            column_semantics=self._column_semantics(select, resolved),
        )

    def resolve_context(self, receiver_context: Optional[str] = None) -> str:
        """The effective receiver context (explicit or the configured default)."""
        context_name = receiver_context or self.default_receiver_context
        if context_name is None:
            raise MediationError("no receiver context given and no default configured")
        return context_name

    @staticmethod
    def as_select(query: TUnion[str, Select, Statement]) -> Select:
        """``query`` parsed, if it is text, and checked to be one SELECT:
        receivers pose naive single-block queries; unions are what mediation
        *produces*."""
        parsed = parse(query) if isinstance(query, str) else query
        if isinstance(parsed, Union) or finished_union(parsed) is not None:
            raise MediationError(
                "receiver queries must be single SELECT statements; "
                "UNION queries are produced, not consumed, by mediation"
            )
        if not isinstance(parsed, Select):
            raise SQLUnsupportedError(
                f"cannot mediate statement of type {type(parsed).__name__}"
            )
        return parsed

    # -- branch construction --------------------------------------------------------

    def _known_context(self, receiver_context: Optional[str]) -> str:
        context_name = self.resolve_context(receiver_context)
        if not self.system.contexts.has(context_name):
            raise MediationError(f"unknown receiver context {context_name!r}")
        return context_name

    def _build_branch(self, select: Select, branch: MediationBranch, facts: SelectFacts,
                      bindings: Dict[str, str], resolved: Resolved,
                      columns: Optional[Dict[ColumnRef, str]]) -> Select:
        """One branch: ``select`` under the branch's guards and conversions
        or, given the ``columns`` a finish over the union reads, the bare
        branch projecting them.  A branch that converts anything qualifies
        every reference it resolves, so an ancillary table it joins cannot
        make one ambiguous."""
        builder = ConversionBuilder(used_aliases=list(bindings))
        converted = self._converted_values(branch, builder)
        replacements: Dict[Tuple[Optional[str], str], Node] = {}
        if converted:
            for (table, name), target in resolved.items():
                if target is not None:
                    replacement = converted.get((target[0].lower(), name.lower()))
                    if replacement is None and table is None:
                        replacement = ColumnRef(name, target[0])
                    if replacement is not None:
                        replacements[(table, name)] = replacement

        def replace_ref(node: Node) -> Node:
            if node.__class__ is ColumnRef:
                return replacements.get((node.table, node.name), node)
            return node

        def substitute(node: Node) -> Node:
            # A branch that converts nothing rewrites nothing.
            return transform(node, replace_ref) if replacements else node

        # Only a conjunct naming a replaced reference is rebuilt.
        original_conditions = [
            substitute(conjunct.condition)
            if any((ref.table, ref.name) in replacements for ref in conjunct.refs)
            else conjunct.condition
            for conjunct in facts.conjuncts
        ]
        guard_conditions = [_guard_condition(guard) for guard in branch.guards]
        where = conjoin(guard_conditions + original_conditions + builder.extra_conditions)
        tables = tuple(select.tables) + tuple(builder.extra_tables)

        if columns is not None:
            items = tuple(_named(substitute(ref), name) for ref, name in columns.items())
            # A finish reading no column (COUNT(*)) still needs a row per row.
            return Select(items=items or (SelectItem(Literal(1)),), tables=tables, where=where)

        return select.copy(
            items=_items(select.items, substitute),
            tables=tables,
            where=where,
            group_by=tuple(substitute(expr) for expr in select.group_by),
            having=substitute(select.having) if select.having is not None else None,
            order_by=_order_by(select, substitute),
        )

    def _converted_values(self, branch: MediationBranch,
                          builder: ConversionBuilder) -> Dict[Tuple[str, str], Node]:
        """For every semantic value the branch converts, by key, its converted
        expression (:meth:`CoinSystem.convert`); values convert in key order,
        so the ancillary aliases they take are the same on every run."""
        steps: Dict[Tuple[str, str], Tuple[SemanticValueRef, Dict]] = {}
        for resolution in branch.conversions:
            value = resolution.value
            steps.setdefault(value.key, (value, {}))[1][resolution.modifier] = (
                resolution.source, resolution.target)
        return {key: self.system.convert(value.semantic_type,
                                         ColumnRef(value.column, value.binding),
                                         modifiers, builder)
                for key, (value, modifiers) in sorted(steps.items())}

    # -- metadata ------------------------------------------------------------------------

    def _column_semantics(self, select: Select, resolved: Resolved) -> List[Optional[str]]:
        semantics: List[Optional[str]] = []
        for item in select.items:
            expr = item.expr
            target = resolved.get((expr.table, expr.name)) if expr.__class__ is ColumnRef else None
            column = None if target is None else self.system.semantic_column(target[1], expr.name)
            semantics.append(None if column is None else column.semantic_type)
        return semantics


def _guard_condition(guard: Guard) -> Node:
    binding, _, column = guard.column.rpartition(".")
    return BinaryOp(guard.op, ColumnRef(name=column, table=binding or None), Literal(guard.value))


def _has_finish(select: Select, facts: SelectFacts) -> bool:
    """Whether ``select`` asks for anything over its whole answer."""
    return bool(select.distinct or select.group_by or select.having is not None
                or select.order_by or select.limit is not None
                or select.offset is not None or facts.items.has_aggregate)


def _named(expr: Node, name: str) -> SelectItem:
    """``expr`` as the column ``name``: aliased unless it is a column
    reference of that name."""
    return SelectItem(expr, None if expr.__class__ is ColumnRef and expr.name == name else name)


def _items(items: Sequence[SelectItem], rewrite) -> Tuple[SelectItem, ...]:
    """A select list with ``rewrite`` applied to each expression; a bare
    column reference keeps its receiver-visible name, whatever it becomes."""
    return tuple(
        _named(rewrite(item.expr), item.expr.name)
        if item.alias is None and isinstance(item.expr, ColumnRef)
        else SelectItem(rewrite(item.expr), item.alias)
        for item in items
    )


def _sorts_output(item: OrderItem, outputs) -> bool:
    expr = item.expr
    return expr.__class__ is ColumnRef and expr.table is None and expr.name.lower() in outputs


def _output_sorts(select: Select) -> Set[str]:
    """The unqualified ORDER BY names of ``select``'s output columns
    (lower-cased): each sorts the output and reads no FROM binding."""
    if not select.order_by:
        return set()
    outputs = {name.lower() for name in select.output_names}
    return {item.expr.name.lower() for item in select.order_by
            if _sorts_output(item, outputs)}


def _order_by(select: Select, rewrite) -> Tuple[OrderItem, ...]:
    """``select``'s ORDER BY with ``rewrite`` applied to each expression,
    except an output name (:func:`_output_sorts`)."""
    sorts = _output_sorts(select)
    return tuple(item if _sorts_output(item, sorts) else item.copy(expr=rewrite(item.expr))
                 for item in select.order_by)


def _finish_over_union(select: Select) -> Tuple[Select, Dict[ColumnRef, str]]:
    """``select``'s finish read over the union: every column reference of
    its select list, GROUP BY, HAVING and ORDER BY (a subquery's are its
    own) becomes a column of :data:`UNION_ALIAS`, and the columns read,
    with the name each is projected under (unique case-insensitively),
    are returned beside it."""
    columns: Dict[ColumnRef, str] = {}
    taken = set()

    def over_union(node: Node) -> Node:
        if node.__class__ is not ColumnRef:
            return node
        name = columns.get(node)
        if name is None:
            name, suffix = node.name, 1
            while name.lower() in taken:
                suffix += 1
                name = f"{node.name}_{suffix}"
            taken.add(name.lower())
            columns[node] = name
        return ColumnRef(name, UNION_ALIAS)

    def read(node: Node) -> Node:
        return transform(node, over_union, leave=(Subquery,))

    finish = select.copy(items=_items(select.items, read), where=None,
                         group_by=tuple(read(expr) for expr in select.group_by),
                         having=read(select.having) if select.having is not None else None,
                         order_by=_order_by(select, read))
    return finish, columns
