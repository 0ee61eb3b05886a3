"""One analysis pass over a SELECT: the facts its compilers keep asking for.

The mediator and the planner each need to know, of one SELECT, which columns
it names and in what order, which WHERE conjuncts hold a subquery or a
computation, and which are plain ``a.x = b.y`` equalities.
:func:`analyse_select` walks the statement **once** and returns those answers
as an immutable value; its callers pass it down their own call trees instead
of re-walking the tree per question.  Nothing is cached: the value is computed
from an immutable tree and lives as long as the call that asked for it.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.sql.ast import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    ColumnRef,
    FunctionCall,
    Node,
    Select,
    Star,
    Subquery,
    conjuncts,
    walk,
)

#: Operators a source must be able to *compute* (not just compare) to accept.
_COMPUTING_OPERATORS = frozenset({"+", "-", "*", "/", "%", "||"})


class ExpressionFacts(NamedTuple):
    """What one pre-order walk of an expression (or a whole clause) found."""

    #: Every column reference, in syntactic order, repeats included — those
    #: inside subqueries too, where a walk meets them.
    refs: Tuple[ColumnRef, ...]
    #: A (scalar, ``IN`` or ``EXISTS``) subquery occurs.
    has_subquery: bool
    #: Arithmetic, concatenation or a function call occurs.
    has_computation: bool
    #: A call to an aggregate function occurs.
    has_aggregate: bool
    #: ``*`` occurs (``COUNT(*)`` included).
    has_star: bool


class ConjunctFacts(NamedTuple):
    """One top-level AND-ed conjunct of a WHERE clause: its expression facts
    (as :class:`ExpressionFacts` names them) and what kind of condition it is."""

    condition: Node
    refs: Tuple[ColumnRef, ...]
    has_subquery: bool
    has_computation: bool
    has_aggregate: bool
    has_star: bool
    #: ``(left, right)`` when the conjunct is exactly ``column = column``.
    equi_pair: Optional[Tuple[ColumnRef, ColumnRef]]


class SelectFacts(NamedTuple):
    """The facts of one SELECT (one UNION branch)."""

    #: The WHERE conjuncts, as :func:`repro.sql.ast.conjuncts` splits them.
    conjuncts: Tuple[ConjunctFacts, ...]
    #: The select list, as one clause.
    items: ExpressionFacts
    #: The distinct column references of the whole statement by first
    #: occurrence, in the order a walk of the statement meets them: select
    #: list, FROM (join conditions), WHERE, GROUP BY, HAVING, ORDER BY.
    refs: Tuple[ColumnRef, ...]


def analyse_expression(root: Any) -> ExpressionFacts:
    """The facts of the tree under ``root`` (a node, or a tuple of nodes)."""
    refs: List[ColumnRef] = []
    subquery = computation = aggregate = star = False
    for node in walk(root):
        cls = node.__class__
        if cls is ColumnRef:
            refs.append(node)
        elif cls is BinaryOp:
            if node.op in _COMPUTING_OPERATORS:
                computation = True
        elif cls is FunctionCall:
            computation = True
            if node.name.upper() in AGGREGATE_FUNCTIONS:
                aggregate = True
        elif cls is Subquery:
            subquery = True
        elif cls is Star:
            star = True
    return ExpressionFacts(tuple(refs), subquery, computation, aggregate, star)


def analyse_conjuncts(where: Optional[Node]) -> Tuple[ConjunctFacts, ...]:
    """The facts of each top-level conjunct of ``where``."""
    found = []
    for condition in conjuncts(where):
        equi_pair = None
        if (condition.__class__ is BinaryOp and condition.op == "="
                and condition.left.__class__ is ColumnRef
                and condition.right.__class__ is ColumnRef):
            equi_pair = (condition.left, condition.right)
        found.append(ConjunctFacts(condition, *analyse_expression(condition), equi_pair))
    return tuple(found)


def analyse_select(select: Select) -> SelectFacts:
    """Walk ``select`` once; see :class:`SelectFacts`."""
    items = analyse_expression(select.items)
    found = analyse_conjuncts(select.where)
    distinct: Dict[Tuple[Optional[str], str], ColumnRef] = {}
    for refs in (items.refs, analyse_expression(select.tables).refs,
                 *(conjunct.refs for conjunct in found),
                 analyse_expression((select.group_by, select.having, select.order_by)).refs):
        for ref in refs:
            distinct.setdefault((ref.table, ref.name), ref)
    return SelectFacts(found, items, tuple(distinct.values()))
