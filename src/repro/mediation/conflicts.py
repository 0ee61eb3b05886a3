"""Detection of potential conflicts between source and receiver contexts.

Mediation starts from a receiver query written "under the assumption there are
no conflicts between sources whatsoever".  This module performs the first half
of the mediation procedure:

1. find the *semantic values* in the query — column references whose columns
   elevate to semantic types that carry modifiers;
2. for each such value and each modifier of its type, compare what the
   source's context theory says with what the receiver's context requires and
   produce the possible *resolutions*: combinations of assumptions (guards
   over source columns) under which the modifier value is known, together with
   the conversion (if any) needed under those assumptions.

The cross product of resolutions across all (value, modifier) pairs — filtered
for consistency by the abductive enumeration in
:mod:`repro.mediation.abduction` — gives the branches of the mediated query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConflictDetectionError, MediationError
from repro.coin.context import AttributeValue, ConstantValue, Guard
from repro.coin.conversion import Operand
from repro.coin.system import CoinSystem
from repro.mediation.constraints import normalize_guards
from repro.sql.ast import ColumnRef, Select, Star, TableRef, walk
from repro.sql.facts import analyse_select
from repro.sql.parser import DerivedTable


@dataclass(frozen=True)
class SemanticValueRef:
    """A column reference in the query that denotes a semantic (rich-typed) value."""

    binding: str
    relation: str
    column: str
    semantic_type: str
    source_context: str

    @property
    def key(self) -> Tuple[str, str]:
        """Identity of the value within the query: (binding, column), lower-cased."""
        return (self.binding.lower(), self.column.lower())

    @property
    def qualified(self) -> str:
        return f"{self.binding}.{self.column}"


@dataclass(frozen=True)
class ModifierResolution:
    """One way of fixing one modifier of one semantic value.

    ``guards`` are assumptions over columns of the value's relation (qualified
    with the query binding, e.g. ``r1.currency``); under those assumptions the
    source-side modifier value is ``source`` and the receiver requires
    ``target``.  ``needs_conversion`` is False when the two are known equal.
    """

    value: SemanticValueRef
    modifier: str
    guards: Tuple[Guard, ...]
    source: Operand
    target: Operand
    needs_conversion: bool

    def describe(self) -> str:
        conversion = (
            f"convert {self.source.describe()} -> {self.target.describe()}"
            if self.needs_conversion
            else "no conversion"
        )
        if self.guards:
            assumptions = " and ".join(guard.describe() for guard in self.guards)
            return f"{self.value.qualified}[{self.modifier}]: {conversion} assuming {assumptions}"
        return f"{self.value.qualified}[{self.modifier}]: {conversion}"


@dataclass
class ConflictAnalysis:
    """All resolutions of one (semantic value, modifier) pair."""

    value: SemanticValueRef
    modifier: str
    receiver_value: object
    resolutions: List[ModifierResolution]

    @property
    def has_potential_conflict(self) -> bool:
        return any(resolution.needs_conversion for resolution in self.resolutions)


# ---------------------------------------------------------------------------
# Step 1: locate semantic values in the query
# ---------------------------------------------------------------------------


def binding_map(select: Select) -> Dict[str, str]:
    """Map every table binding (alias or name) in FROM to its relation name."""
    bindings: Dict[str, str] = {}
    for table in select.tables:
        if table.__class__ is TableRef:
            bindings[table.binding.lower()] = table.name
            continue
        for node in walk(table):
            if isinstance(node, TableRef):
                bindings[node.binding.lower()] = node.name
            elif isinstance(node, DerivedTable):
                raise MediationError(
                    "derived tables are not supported in queries submitted for mediation"
                )
    return bindings


def resolve_ref(ref: ColumnRef, bindings: Dict[str, str],
                system: CoinSystem) -> Optional[Tuple[str, str]]:
    """The FROM binding and relation a column reference reads, or None when
    no binding of ``bindings`` (:func:`binding_map`) can be told.

    A qualified reference reads its binding (as written).  An unqualified
    one reads the only table of a one-table statement or, among several,
    the one binding whose elevation axiom names the column (lower-cased);
    several such bindings make it ambiguous.  This is the one place the
    mediator works a reference's binding out."""
    if ref.table is not None:
        relation = bindings.get(ref.table.lower())
        return None if relation is None else (ref.table, relation)
    if len(bindings) == 1:
        return next(iter(bindings.items()))
    naming = [(binding, relation) for binding, relation in bindings.items()
              if system.semantic_column(relation, ref.name) is not None]
    if len(naming) > 1:
        raise MediationError(
            f"column {ref.name!r} is ambiguous: "
            f"{', '.join(binding for binding, _relation in naming)} all elevate it")
    return naming[0] if naming else None


#: (table, name) as written -> (binding, relation), or None.
Resolved = Dict[Tuple[Optional[str], str], Optional[Tuple[str, str]]]


def resolve_refs(refs: Iterable[ColumnRef], bindings: Dict[str, str],
                 system: CoinSystem) -> Resolved:
    """:func:`resolve_ref` of each of ``refs``, keyed ``(table, name)``."""
    return {(ref.table, ref.name): resolve_ref(ref, bindings, system) for ref in refs}


def find_semantic_values(select: Select, system: CoinSystem,
                         resolved: Optional[Resolved] = None,
                         ) -> Dict[Tuple[str, str], SemanticValueRef]:
    """Locate every semantic value referenced anywhere in the query.

    Only columns whose semantic type carries at least one modifier are
    returned: other columns cannot exhibit context conflicts and are left
    untouched by the rewriting.  ``resolved`` (:func:`resolve_refs`) is
    worked out here unless the caller already has.
    """
    # '*' in the select list cannot be mediated (the mediator would not know
    # which columns need conversion); '*' inside COUNT(*) is harmless.
    for item in select.items:
        if isinstance(item.expr, Star):
            raise MediationError(
                "queries submitted for mediation must list columns explicitly (no '*')"
            )
    if resolved is None:
        resolved = resolve_refs(analyse_select(select).refs, binding_map(select), system)

    values: Dict[Tuple[str, str], SemanticValueRef] = {}
    for (_table, name), target in resolved.items():
        if target is None:
            continue
        binding, relation = target
        semantic = system.semantic_column(relation, name)
        if semantic is None or not system.modifiers_of_type(semantic.semantic_type):
            continue
        value = SemanticValueRef(binding, relation, name, semantic.semantic_type,
                                 semantic.context)
        values.setdefault(value.key, value)
    return values


# ---------------------------------------------------------------------------
# Step 2: per-modifier conflict analysis
# ---------------------------------------------------------------------------


def analyze_value(value: SemanticValueRef, system: CoinSystem,
                  receiver_context: str) -> List[ConflictAnalysis]:
    """Analyze every modifier of one semantic value."""
    analyses = []
    for modifier in system.modifiers_of_type(value.semantic_type):
        analyses.append(analyze_modifier(value, modifier, system, receiver_context))
    return analyses


def analyze_modifier(value: SemanticValueRef, modifier: str, system: CoinSystem,
                     receiver_context: str) -> ConflictAnalysis:
    """Compare source and receiver declarations of one modifier and enumerate
    resolutions.

    The first case whose guards hold is the one that applies, so each case
    is resolved under its own guards and, in disjoint pieces, the negation of
    every earlier case's; an unguarded case leaves nothing to later ones.  A
    column-valued case splits on whether the column holds the receiver's
    value (no conversion) or another one (convert from the column)."""
    declaration = system.declaration_for(value.source_context, value.semantic_type, modifier)
    receiver_value = system.receiver_value(receiver_context, value.semantic_type, modifier)
    target = Operand.of_constant(receiver_value)

    def guard(column: str, op: str, literal) -> Guard:
        return Guard(f"{value.binding}.{column}", op, literal)

    resolutions: List[ModifierResolution] = []
    unmatched: List[Tuple[Guard, ...]] = [()]  # where no earlier case holds
    for case in declaration.cases:
        own = tuple(guard(g.column, g.op, g.value) for g in case.guards)
        if isinstance(case.value, ConstantValue):
            options = [(own, Operand.of_constant(case.value.value),
                        not _values_equal(case.value.value, receiver_value))]
        elif isinstance(case.value, AttributeValue):
            column = case.value.column
            options = [(own + (guard(column, "=", receiver_value),), target, False),
                       (own + (guard(column, "<>", receiver_value),),
                        Operand.of_expression(ColumnRef(column, value.binding)), True)]
        else:  # pragma: no cover - exhaustive over ValueSpec
            raise ConflictDetectionError(
                f"unsupported modifier value specification {case.value!r}")
        for excluded in unmatched:
            for guards, source, needs_conversion in options:
                if excluded:
                    guards = normalize_guards(excluded + guards)
                    if guards is None:
                        continue
                resolutions.append(ModifierResolution(
                    value, modifier, guards, source, target, needs_conversion))
        # not (g1 and g2 ...) as disjoint pieces: not g1 | g1, not g2 | ...
        unmatched = [excluded + own[:index] + (own[index].negated(),)
                     for excluded in unmatched for index in range(len(own))]

    return ConflictAnalysis(
        value=value,
        modifier=modifier,
        receiver_value=receiver_value,
        resolutions=resolutions,
    )


def analyze_query(select: Select, system: CoinSystem, receiver_context: str,
                  resolved: Optional[Resolved] = None) -> List[ConflictAnalysis]:
    """Locate semantic values and analyze all their modifiers (``resolved``
    as :func:`find_semantic_values` takes it)."""
    analyses: List[ConflictAnalysis] = []
    for value in find_semantic_values(select, system, resolved).values():
        analyses.extend(analyze_value(value, system, receiver_context))
    # Deterministic order: by value key then modifier name.
    analyses.sort(key=lambda analysis: (analysis.value.key, analysis.modifier))
    return analyses


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _values_equal(left, right) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right
