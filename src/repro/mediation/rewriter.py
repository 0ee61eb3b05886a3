"""Construction of the mediated query from the enumerated branches.

For every consistent branch produced by the abductive enumeration, the
rewriter builds one SELECT:

* every semantic value's column reference is replaced by the composition of
  the conversion expressions required by the branch (e.g. ``rl.revenue``
  becomes ``rl.revenue * 1000 * r3.rate`` in the JPY branch);
* the branch's assumptions (guards) become extra WHERE conjuncts
  (``rl.currency = 'JPY'``);
* conversions that need ancillary data add their relations to FROM and their
  join conditions to WHERE (``r3``, ``r3.fromCur = rl.currency`` ...).

The branches are then combined with UNION ALL — "the rewritten query is
usually a union of sub-queries corresponding respectively to the possible
conflicts between the context assumptions and their resolution".  The guards
partition the rows, so no row reaches two branches and the union keeps the
statement's bag.

The statement's finish — DISTINCT, GROUP BY/HAVING, aggregates, ORDER BY,
LIMIT/OFFSET — belongs to the whole answer, so a multi-branch statement with
one is the receiver's finish over the union of *bare* branches:
``SELECT … FROM (b1 UNION ALL b2 …) m …``, each branch projecting the
converted columns the finish reads.  A one-branch statement is its branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union as TUnion

from repro.errors import MediationError
from repro.coin.context import Guard
from repro.coin.conversion import ConversionBuilder
from repro.coin.system import CoinSystem
from repro.mediation.abduction import MediationBranch, enumerate_branches, order_branches
from repro.mediation.conflicts import (
    ConflictAnalysis,
    ModifierResolution,
    SemanticValueRef,
    analyze_query,
    binding_map,
)
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Literal,
    Node,
    Select,
    SelectItem,
    Statement,
    Subquery,
    Union,
    conjoin,
    transform,
)
from repro.sql.facts import SelectFacts, analyse_select
from repro.sql.parser import UNION_ALIAS, DerivedTable
from repro.sql.printer import to_sql


@dataclass
class BranchQuery:
    """One sub-query of the mediated UNION plus the reasoning that produced it."""

    select: Select
    branch: MediationBranch

    @property
    def sql(self) -> str:
        return to_sql(self.select)

    @cached_property
    def fingerprint(self) -> str:
        """Canonical AST digest of this branch — the per-branch identity of
        the mediated-plan IR (computed on demand, memoized)."""
        from repro.sql.normalize import statement_fingerprint

        return statement_fingerprint(self.select)

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
    branches: List[BranchQuery]
    mediated: Statement
    #: Semantic type (or None) of each output column of the query, used by
    #: answer post-processing and by clients that display units.
    column_semantics: List[Optional[str]]
    #: Canonical AST digest of the *original* statement — the identity the
    #: query pipeline caches this rewriting (and its plan) under.  Filled in
    #: by the pipeline, which computes it once per statement; ``None`` when
    #: the rewriter was driven directly.
    fingerprint: Optional[str] = None
    #: False for the ``mediate=False`` passthrough, which skips conflict
    #: detection and abduction entirely.
    mediated_by_rewriter: bool = True

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


class QueryRewriter:
    """Builds mediated queries for one :class:`CoinSystem`."""

    def __init__(self, system: CoinSystem, max_branches: int = 256):
        self.system = system
        self.max_branches = max_branches

    # -- public API -------------------------------------------------------------

    def rewrite(self, select: Select, receiver_context: str) -> MediationResult:
        """Mediate one SELECT statement posed in ``receiver_context``."""
        if not self.system.contexts.has(receiver_context):
            raise MediationError(f"unknown receiver context {receiver_context!r}")

        bindings = binding_map(select)
        facts = analyse_select(select)
        analyses = analyze_query(select, self.system, receiver_context, facts.refs, bindings)
        branches = order_branches(enumerate_branches(analyses, self.max_branches))
        if not branches:
            raise MediationError("mediation produced no branches")  # pragma: no cover

        finish = columns = None
        if len(branches) > 1 and _has_finish(select, facts):
            finish, columns = _finish_over_union(select)
        branch_queries = [
            BranchQuery(select=self._build_branch(select, branch, facts, bindings, columns),
                        branch=branch)
            for branch in branches
        ]

        if len(branch_queries) == 1:
            mediated: Statement = branch_queries[0].select
        else:
            mediated = Union(tuple(branch.select for branch in branch_queries), all=True)
            if finish is not None:
                mediated = finish.copy(tables=(DerivedTable(mediated, UNION_ALIAS),))

        return MediationResult(
            original=select,
            receiver_context=receiver_context,
            analyses=analyses,
            branches=branch_queries,
            mediated=mediated,
            column_semantics=self._column_semantics(select, bindings),
        )

    def unmediated(self, select: Select, receiver_context: str) -> MediationResult:
        """A passthrough result: the statement will run verbatim.

        Only the column-semantics scan runs (the answer annotator needs it);
        conflict detection and abduction are skipped, which is what makes
        ``mediate=False`` a fast path rather than a mediation whose output is
        discarded.
        """
        if not self.system.contexts.has(receiver_context):
            raise MediationError(f"unknown receiver context {receiver_context!r}")
        return MediationResult(
            original=select,
            receiver_context=receiver_context,
            analyses=[],
            branches=[],
            mediated=select,
            column_semantics=self._column_semantics(select, binding_map(select)),
            mediated_by_rewriter=False,
        )

    # -- branch construction --------------------------------------------------------

    def _build_branch(self, select: Select, branch: MediationBranch,
                      facts: SelectFacts, bindings: Dict[str, str],
                      columns: Optional[Dict[ColumnRef, str]]) -> Select:
        """One branch: ``select`` under the branch's guards and conversions
        or, given the ``columns`` a finish over the union reads, the bare
        branch projecting them."""
        builder = ConversionBuilder(used_aliases=list(bindings))
        replacements = self._conversion_expressions(branch, builder)

        def replace_ref(node: Node) -> Node:
            if node.__class__ is ColumnRef and node.table is not None:
                return replacements.get((node.table.lower(), node.name.lower()), node)
            return node

        def substitute(node: Node) -> Node:
            # A branch that converts nothing rewrites nothing.
            return transform(node, replace_ref) if replacements else node

        # Only a conjunct naming a converted value is rebuilt.
        original_conditions = [
            substitute(conjunct.condition)
            if any(replace_ref(ref) is not ref for ref in conjunct.refs)
            else conjunct.condition
            for conjunct in facts.conjuncts
        ]
        guard_conditions = [self._guard_condition(guard) for guard in branch.guards]
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
            order_by=tuple(item.copy(expr=substitute(item.expr)) for item in select.order_by),
        )

    def _conversion_expressions(self, branch: MediationBranch,
                                builder: ConversionBuilder) -> Dict[Tuple[str, str], Node]:
        """For every semantic value touched by the branch, its converted expression."""
        by_value: Dict[Tuple[str, str], List[ModifierResolution]] = {}
        refs: Dict[Tuple[str, str], SemanticValueRef] = {}
        for resolution in branch.resolutions:
            by_value.setdefault(resolution.value.key, []).append(resolution)
            refs[resolution.value.key] = resolution.value

        replacements: Dict[Tuple[str, str], Node] = {}
        for key, resolutions in by_value.items():
            value = refs[key]
            expression: Node = ColumnRef(name=value.column, table=value.binding)
            ordered = self._ordered_resolutions(value, resolutions)
            converted = False
            for resolution in ordered:
                if not resolution.needs_conversion:
                    continue
                function = self.system.conversions.lookup(value.semantic_type, resolution.modifier)
                expression = function.build_expression(
                    expression, resolution.source, resolution.target, builder
                )
                converted = True
            if converted:
                replacements[key] = expression
        return replacements

    def _ordered_resolutions(self, value: SemanticValueRef,
                             resolutions: Sequence[ModifierResolution]) -> List[ModifierResolution]:
        """Apply conversions in the order the domain model declares the modifiers.

        For ``monetaryAmount`` the model declares ``scaleFactor`` before
        ``currency``, which reproduces the paper's ``revenue * 1000 * r3.rate``
        shape (scale first, then exchange rate).
        """
        declared_order = list(self.system.modifiers_of_type(value.semantic_type))
        position = {modifier: index for index, modifier in enumerate(declared_order)}
        return sorted(resolutions, key=lambda resolution: position.get(resolution.modifier, len(position)))

    @staticmethod
    def _guard_condition(guard: Guard) -> Node:
        binding, _, column = guard.column.rpartition(".")
        reference = ColumnRef(name=column, table=binding or None)
        return BinaryOp(guard.op, reference, Literal(guard.value))

    # -- metadata ------------------------------------------------------------------------

    def _column_semantics(self, select: Select,
                          bindings: Dict[str, str]) -> List[Optional[str]]:
        semantics: List[Optional[str]] = []
        for item in select.items:
            semantic_type: Optional[str] = None
            if isinstance(item.expr, ColumnRef):
                relation = None
                if item.expr.table is not None:
                    relation = bindings.get(item.expr.table.lower())
                elif len(bindings) == 1:
                    relation = next(iter(bindings.values()))
                if relation is not None:
                    column = self.system.semantic_column(relation, item.expr.name)
                    if column is not None:
                        semantic_type = column.semantic_type
            semantics.append(semantic_type)
        return semantics


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


def _finish_over_union(select: Select) -> Tuple[Select, Dict[ColumnRef, str]]:
    """``select``'s finish read over the union: every column reference of
    its select list, GROUP BY, HAVING and ORDER BY (a subquery's are its
    own) becomes a column of :data:`UNION_ALIAS`, and the columns read,
    with the name each is projected under (unique case-insensitively),
    are returned beside it.  An ORDER BY naming an output column keeps it."""
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

    items = _items(select.items, read)
    group_by = tuple(read(expr) for expr in select.group_by)
    having = read(select.having) if select.having is not None else None
    outputs = {name.lower() for name in select.output_names}
    order_by = tuple(
        item if (isinstance(item.expr, ColumnRef) and item.expr.table is None
                 and item.expr.name.lower() in outputs)
        else item.copy(expr=read(item.expr))
        for item in select.order_by
    )
    finish = select.copy(items=items, where=None, group_by=group_by, having=having,
                         order_by=order_by)
    return finish, columns
