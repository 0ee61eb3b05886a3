"""The assembled COIN knowledge system for one federation.

A :class:`CoinSystem` bundles everything the context mediator consults:

* the shared :class:`~repro.coin.domain.DomainModel`;
* the :class:`~repro.coin.context.ContextRegistry` of source and receiver
  context theories;
* the :class:`~repro.coin.elevation.ElevationRegistry` mapping source
  relations/columns into the domain model;
* the :class:`~repro.coin.conversion.ConversionRegistry` of conversion
  functions (and the binding of ancillary sources they rely on).

It provides the derived lookups the mediation procedure needs ("what is the
semantic type of column r1.revenue, which context governs it, what does that
context say about its currency modifier?") and can compile the whole body of
knowledge to a datalog :class:`~repro.datalog.clause.KnowledgeBase` — the
declarative view used for explanations and for consistency tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import CoinModelError, ContextError, ElevationError
from repro.coin.context import (
    AttributeValue,
    ConstantValue,
    Context,
    ContextRegistry,
    ModifierDeclaration,
)
from repro.coin.conversion import ConversionRegistry
from repro.coin.domain import DomainModel
from repro.coin.elevation import ElevationRegistry
from repro.datalog.clause import KnowledgeBase, fact


@dataclass(frozen=True)
class SemanticColumn:
    """Resolved semantic description of one relation column."""

    relation: str
    column: str
    semantic_type: str
    context: str
    source: str

    @property
    def qualified(self) -> str:
        return f"{self.relation}.{self.column}"


class CoinSystem:
    """The complete context-interchange knowledge of a federation."""

    def __init__(self, domain_model: DomainModel,
                 contexts: Optional[ContextRegistry] = None,
                 elevations: Optional[ElevationRegistry] = None,
                 conversions: Optional[ConversionRegistry] = None,
                 name: str = "coin"):
        self.name = name
        self.domain_model = domain_model
        # "is None" checks matter here: callers often pass registries that are
        # still empty and fill them in afterwards (they must not be replaced).
        self.contexts = contexts if contexts is not None else ContextRegistry()
        self.elevations = elevations if elevations is not None else ElevationRegistry()
        self.conversions = conversions if conversions is not None else ConversionRegistry(domain_model)

    @property
    def generation(self) -> int:
        """Monotonic version of the mediation-relevant knowledge.

        Rolls up the domain model, context, elevation and conversion
        registries (including declarations added to already-registered
        contexts), so cached mediations and plans keyed on it are
        invalidated by construction whenever the knowledge they consulted
        could have changed.
        """
        return (
            self.domain_model.generation
            + self.contexts.generation
            + self.elevations.generation
            + self.conversions.generation
        )

    # -- construction conveniences ------------------------------------------------

    def add_context(self, context: Context) -> Context:
        return self.contexts.register(context)

    # -- resolved lookups ------------------------------------------------------------

    def semantic_column(self, relation: str, column: str) -> Optional[SemanticColumn]:
        """The semantic description of ``relation.column``, or None if not elevated."""
        if not self.elevations.has_relation(relation):
            return None
        axiom = self.elevations.for_relation(relation)
        semantic_type = axiom.semantic_type_of(column)
        if semantic_type is None:
            return None
        return SemanticColumn(
            relation=axiom.relation,
            column=column,
            semantic_type=semantic_type,
            context=axiom.context,
            source=axiom.source,
        )

    def modifiers_of_type(self, semantic_type: str) -> Dict[str, str]:
        return self.domain_model.modifiers_of(semantic_type)

    def declaration_for(self, context_name: str, semantic_type: str,
                        modifier: str) -> ModifierDeclaration:
        """The modifier declaration, searching the semantic type's ancestors."""
        context = self.contexts.get(context_name)
        ancestors = self.domain_model.ancestors(semantic_type)
        return context.declaration(semantic_type, modifier, ancestors)

    def receiver_value(self, context_name: str, semantic_type: str, modifier: str) -> Any:
        """The (necessarily static) value a receiver context assigns to a modifier."""
        declaration = self.declaration_for(context_name, semantic_type, modifier)
        if not declaration.is_static:
            raise ContextError(
                f"receiver context {context_name!r} must give a static value for "
                f"{semantic_type}.{modifier}"
            )
        return declaration.static_value

    # -- integrity -----------------------------------------------------------------------

    def validate(self, schemas: Optional[Dict[str, Any]] = None) -> None:
        """Validate the whole knowledge system for referential integrity.

        Checks: the domain model itself; every elevation references known
        semantic types (and real columns when ``schemas`` is given); every
        context declaration references known types/modifiers; every non-static
        modifier of an elevated column has a conversion function registered.
        """
        self.domain_model.validate()
        self.elevations.validate_against(self.domain_model, schemas or {})

        for context in self.contexts:
            for declaration in context.declarations:
                if not self.domain_model.has(declaration.semantic_type):
                    raise CoinModelError(
                        f"context {context.name!r} declares modifier of unknown type "
                        f"{declaration.semantic_type!r}"
                    )
                modifiers = self.domain_model.modifiers_of(declaration.semantic_type)
                if declaration.modifier not in modifiers:
                    raise CoinModelError(
                        f"context {context.name!r}: type {declaration.semantic_type!r} has no "
                        f"modifier {declaration.modifier!r}"
                    )

        for axiom in self.elevations:
            if not self.contexts.has(axiom.context):
                raise CoinModelError(
                    f"elevation of {axiom.relation!r} names unknown context {axiom.context!r}"
                )
            for elevation in axiom.columns:
                modifiers = self.domain_model.modifiers_of(elevation.semantic_type)
                for modifier in modifiers:
                    if not self.conversions.has(elevation.semantic_type, modifier):
                        raise CoinModelError(
                            f"no conversion registered for {elevation.semantic_type}."
                            f"{modifier} (needed by {axiom.relation}.{elevation.column})"
                        )

    # -- accounting (scalability benchmark) --------------------------------------------------

    def integration_effort(self) -> Dict[str, int]:
        """Counts of authored artifacts: the 'cost of adding sources' metric (E3)."""
        return {
            "contexts": len(self.contexts),
            "context_axioms": self.contexts.total_axiom_count(),
            "elevation_axioms": self.elevations.total_axiom_count(),
            "conversion_functions": len(self.conversions),
            "semantic_types": len(self.domain_model),
        }

    # -- datalog view ------------------------------------------------------------------------

    def to_knowledge_base(self) -> KnowledgeBase:
        """Compile the domain model, elevations and context theories to datalog.

        Context declarations compile to ``modifier_case(Context, Type, Modifier,
        CaseIndex, Kind, Value)`` facts plus ``case_guard(Context, Type, Modifier,
        CaseIndex, Column, Op, Literal)`` facts; the mediation engine's
        explanations and several tests query this view.
        """
        kb = self.domain_model.to_knowledge_base()
        kb = kb.merge(self.elevations.to_knowledge_base())
        for context in self.contexts:
            for declaration in context.declarations:
                for case_index, case in enumerate(declaration.cases):
                    if isinstance(case.value, ConstantValue):
                        kind, value = "constant", case.value.value
                    else:
                        kind, value = "attribute", case.value.column
                    kb.add_fact(
                        "modifier_case", context.name, declaration.semantic_type,
                        declaration.modifier, case_index, kind, value,
                        label=f"context:{context.name}",
                    )
                    for guard in case.guards:
                        kb.add_fact(
                            "case_guard", context.name, declaration.semantic_type,
                            declaration.modifier, case_index, guard.column, guard.op,
                            guard.value, label=f"context:{context.name}",
                        )
        return kb
