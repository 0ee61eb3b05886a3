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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConflictDetectionError, MediationError
from repro.coin.context import AttributeValue, ConstantValue, Guard, ModifierCase
from repro.coin.conversion import Operand
from repro.coin.system import CoinSystem
from repro.sql.ast import ColumnRef, Node, Select, Star, TableRef, walk
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


def find_semantic_values(select: Select, system: CoinSystem,
                         refs: Optional[Sequence[ColumnRef]] = None,
                         bindings: Optional[Dict[str, str]] = None,
                         ) -> Dict[Tuple[str, str], SemanticValueRef]:
    """Locate every semantic value referenced anywhere in the query.

    Only columns whose semantic type carries at least one modifier are
    returned: other columns cannot exhibit context conflicts and are left
    untouched by the rewriting.  ``refs`` (the statement's distinct column
    references, :attr:`SelectFacts.refs`) and ``bindings``
    (:func:`binding_map`) are worked out here unless the caller already has.
    """
    if bindings is None:
        bindings = binding_map(select)
    if refs is None:
        refs = analyse_select(select).refs
    values: Dict[Tuple[str, str], SemanticValueRef] = {}

    # '*' in the select list cannot be mediated (the mediator would not know
    # which columns need conversion); '*' inside COUNT(*) is harmless.
    for item in select.items:
        if isinstance(item.expr, Star):
            raise MediationError(
                "queries submitted for mediation must list columns explicitly (no '*')"
            )

    for node in refs:
        relation = _relation_for(node, bindings)
        if relation is None:
            continue
        semantic = system.semantic_column(relation, node.name)
        if semantic is None:
            continue
        modifiers = system.modifiers_of_type(semantic.semantic_type)
        if not modifiers:
            continue
        binding = (node.table or relation).lower()
        ref = SemanticValueRef(
            binding=node.table or relation,
            relation=relation,
            column=node.name,
            semantic_type=semantic.semantic_type,
            source_context=semantic.context,
        )
        values.setdefault((binding, node.name.lower()), ref)
    return values


def _relation_for(ref: ColumnRef, bindings: Dict[str, str]) -> Optional[str]:
    if ref.table is not None:
        return bindings.get(ref.table.lower())
    # Unqualified references are resolved only when the query has exactly one table.
    if len(bindings) == 1:
        return next(iter(bindings.values()))
    return None


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
    """Compare source and receiver declarations of one modifier and enumerate resolutions."""
    declaration = system.declaration_for(value.source_context, value.semantic_type, modifier)
    receiver_value = system.receiver_value(receiver_context, value.semantic_type, modifier)
    target = Operand.of_constant(receiver_value)

    resolutions: List[ModifierResolution] = []
    for case in declaration.cases:
        base_guards = tuple(_qualify_guard(guard, value.binding) for guard in case.guards)

        if isinstance(case.value, ConstantValue):
            source = Operand.of_constant(case.value.value)
            needs_conversion = not _values_equal(case.value.value, receiver_value)
            resolutions.append(ModifierResolution(
                value=value,
                modifier=modifier,
                guards=base_guards,
                source=source,
                target=target,
                needs_conversion=needs_conversion,
            ))
            continue

        if isinstance(case.value, AttributeValue):
            column_ref = ColumnRef(name=case.value.column, table=value.binding)
            qualified_column = f"{value.binding}.{case.value.column}"
            # Case A: the column happens to hold the receiver's value — no conversion.
            resolutions.append(ModifierResolution(
                value=value,
                modifier=modifier,
                guards=base_guards + (Guard(qualified_column, "=", receiver_value),),
                source=Operand.of_constant(receiver_value),
                target=target,
                needs_conversion=False,
            ))
            # Case B: it holds some other value — convert from the column's value.
            resolutions.append(ModifierResolution(
                value=value,
                modifier=modifier,
                guards=base_guards + (Guard(qualified_column, "<>", receiver_value),),
                source=Operand.of_expression(column_ref),
                target=target,
                needs_conversion=True,
            ))
            continue

        raise ConflictDetectionError(
            f"unsupported modifier value specification {case.value!r}"
        )  # pragma: no cover - exhaustive over ValueSpec

    return ConflictAnalysis(
        value=value,
        modifier=modifier,
        receiver_value=receiver_value,
        resolutions=resolutions,
    )


def analyze_query(select: Select, system: CoinSystem, receiver_context: str,
                  refs: Optional[Sequence[ColumnRef]] = None,
                  bindings: Optional[Dict[str, str]] = None) -> List[ConflictAnalysis]:
    """Locate semantic values and analyze all their modifiers (``refs`` and
    ``bindings`` as :func:`find_semantic_values` takes them)."""
    analyses: List[ConflictAnalysis] = []
    for value in find_semantic_values(select, system, refs, bindings).values():
        analyses.extend(analyze_value(value, system, receiver_context))
    # Deterministic order: by value key then modifier name.
    analyses.sort(key=lambda analysis: (analysis.value.key, analysis.modifier))
    return analyses


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _qualify_guard(guard: Guard, binding: str) -> Guard:
    """Prefix a context guard's column with the query binding of its relation."""
    if "." in guard.column:
        return guard
    return Guard(f"{binding}.{guard.column}", guard.op, guard.value)


def _values_equal(left, right) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right
