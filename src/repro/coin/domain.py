"""The domain model: shared vocabulary of semantic types and their modifiers.

"For statements in a context theory to be meaningful in a different context,
there needs to be a vocabulary common to all contexts [...].  The first takes
the form of a domain model, which can be understood as a collection of 'rich'
types, or semantic-types."

A :class:`SemanticType` may declare

* a **parent** type (single inheritance — ``companyFinancials`` is-a
  ``monetaryAmount`` is-a ``number``),
* **attributes** — named relationships to other semantic types (e.g. a
  ``companyFinancials`` value belongs to a ``company``), and
* **modifiers** — the context-dependent aspects of the type (currency,
  scale factor, date format...).  A modifier also names the semantic type of
  its values.

The :class:`DomainModel` is the container with lookup, inheritance resolution
and validation, plus a compiler to datalog facts so the deductive layer can
reason over the model when producing explanations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import DomainModelError
from repro.datalog.clause import KnowledgeBase, fact


@dataclass
class SemanticType:
    """One 'rich type' of the shared vocabulary."""

    name: str
    parent: Optional[str] = None
    #: attribute name -> semantic type name of the attribute's values
    attributes: Dict[str, str] = field(default_factory=dict)
    #: modifier name -> semantic type name of the modifier's values
    modifiers: Dict[str, str] = field(default_factory=dict)
    description: str = ""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


#: Name of the implicit root of the semantic-type hierarchy.
ROOT_TYPE = "basicValue"

#: Primitive types every domain model contains.
PRIMITIVE_TYPES = (
    SemanticType(ROOT_TYPE, parent=None, description="root of the type hierarchy"),
    SemanticType("basicNumber", parent=ROOT_TYPE, description="plain numbers"),
    SemanticType("basicString", parent=ROOT_TYPE, description="plain strings"),
    SemanticType("basicBoolean", parent=ROOT_TYPE, description="plain booleans"),
)


class DomainModel:
    """A named collection of semantic types forming the shared vocabulary."""

    def __init__(self, name: str = "domain", types: Iterable[SemanticType] = ()):
        self.name = name
        self._types: Dict[str, SemanticType] = {}
        #: Bumped on every added type; part of the knowledge generation that
        #: keys the mediation and plan caches.
        self.generation = 0
        for primitive in PRIMITIVE_TYPES:
            self._types[primitive.name] = primitive
        for semantic_type in types:
            self.add(semantic_type)

    # -- construction -----------------------------------------------------------

    def add(self, semantic_type: SemanticType) -> SemanticType:
        """Register a semantic type (its parent must already exist)."""
        if semantic_type.name in self._types:
            raise DomainModelError(f"semantic type {semantic_type.name!r} already defined")
        if semantic_type.parent is not None and semantic_type.parent not in self._types:
            raise DomainModelError(
                f"semantic type {semantic_type.name!r} names unknown parent "
                f"{semantic_type.parent!r}"
            )
        self._types[semantic_type.name] = semantic_type
        self.generation += 1
        return semantic_type

    def add_type(self, name: str, parent: Optional[str] = ROOT_TYPE,
                 attributes: Optional[Dict[str, str]] = None,
                 modifiers: Optional[Dict[str, str]] = None,
                 description: str = "") -> SemanticType:
        """Convenience builder used by the demo scenarios."""
        return self.add(SemanticType(
            name=name,
            parent=parent,
            attributes=dict(attributes or {}),
            modifiers=dict(modifiers or {}),
            description=description,
        ))

    # -- lookup -------------------------------------------------------------------

    def get(self, name: str) -> SemanticType:
        try:
            return self._types[name]
        except KeyError as exc:
            raise DomainModelError(f"unknown semantic type {name!r}") from exc

    def has(self, name: str) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[SemanticType]:
        return iter(self._types.values())

    def __len__(self) -> int:
        return len(self._types)

    # -- hierarchy ------------------------------------------------------------------

    def ancestors(self, name: str) -> List[str]:
        """Ancestors from the type itself up to the root (inclusive of both)."""
        chain = [name]
        seen = {name}
        current = self.get(name)
        while current.parent is not None:
            if current.parent in seen:
                raise DomainModelError(f"cycle in type hierarchy at {current.parent!r}")
            chain.append(current.parent)
            seen.add(current.parent)
            current = self.get(current.parent)
        return chain

    def is_subtype(self, name: str, ancestor: str) -> bool:
        return ancestor in self.ancestors(name)

    # -- inherited members --------------------------------------------------------------

    def modifiers_of(self, name: str) -> Dict[str, str]:
        """All modifiers of a type, inherited ones included (nearest wins)."""
        merged: Dict[str, str] = {}
        for ancestor in reversed(self.ancestors(name)):
            merged.update(self.get(ancestor).modifiers)
        return merged

    def attributes_of(self, name: str) -> Dict[str, str]:
        """All attributes of a type, inherited ones included (nearest wins)."""
        merged: Dict[str, str] = {}
        for ancestor in reversed(self.ancestors(name)):
            merged.update(self.get(ancestor).attributes)
        return merged

    def modifier_value_type(self, type_name: str, modifier: str) -> str:
        modifiers = self.modifiers_of(type_name)
        try:
            return modifiers[modifier]
        except KeyError as exc:
            raise DomainModelError(
                f"semantic type {type_name!r} has no modifier {modifier!r}"
            ) from exc

    # -- validation -----------------------------------------------------------------------

    def validate(self) -> None:
        """Check referential integrity of the whole model."""
        for semantic_type in self._types.values():
            if semantic_type.parent is not None:
                self.get(semantic_type.parent)
            self.ancestors(semantic_type.name)
            for attribute, target in semantic_type.attributes.items():
                if not self.has(target):
                    raise DomainModelError(
                        f"attribute {semantic_type.name}.{attribute} references unknown "
                        f"semantic type {target!r}"
                    )
            for modifier, target in semantic_type.modifiers.items():
                if not self.has(target):
                    raise DomainModelError(
                        f"modifier {semantic_type.name}.{modifier} references unknown "
                        f"semantic type {target!r}"
                    )

    # -- datalog view -----------------------------------------------------------------------

    def to_knowledge_base(self) -> KnowledgeBase:
        """Compile the model to datalog facts (used for explanations and tests).

        Predicates: ``semantic_type(T)``, ``isa(T, Parent)``,
        ``has_modifier(T, M, ValueType)``, ``has_attribute(T, A, ValueType)``.
        """
        kb = KnowledgeBase(name=f"domain:{self.name}")
        for semantic_type in self._types.values():
            kb.add_fact("semantic_type", semantic_type.name, label=f"domain:{self.name}")
            if semantic_type.parent is not None:
                kb.add_fact("isa", semantic_type.name, semantic_type.parent,
                            label=f"domain:{self.name}")
            for modifier, value_type in semantic_type.modifiers.items():
                kb.add_fact("has_modifier", semantic_type.name, modifier, value_type,
                            label=f"domain:{self.name}")
            for attribute, value_type in semantic_type.attributes.items():
                kb.add_fact("has_attribute", semantic_type.name, attribute, value_type,
                            label=f"domain:{self.name}")
        return kb


def build_financial_domain_model() -> DomainModel:
    """The domain model used by the paper's example and the demo scenarios.

    Types: ``companyName``, ``currencyType``, ``scaleFactorType``,
    ``exchangeRate`` and ``companyFinancials`` (a monetary amount with
    ``currency`` and ``scaleFactor`` modifiers), plus ``stockPrice`` and
    ``date`` used by the financial-analysis scenario.
    """
    model = DomainModel(name="financial")
    model.add_type("companyName", parent="basicString",
                   description="legal name of a company")
    model.add_type("currencyType", parent="basicString",
                   description="ISO-4217-style currency code")
    model.add_type("scaleFactorType", parent="basicNumber",
                   description="multiplicative scale applied to reported figures")
    model.add_type("exchangeRate", parent="basicNumber",
                   description="multiplicative conversion rate between currencies")
    model.add_type("dateType", parent="basicString",
                   modifiers={"dateFormat": "basicString"},
                   description="calendar dates, with a format modifier")
    model.add_type(
        "monetaryAmount",
        parent="basicNumber",
        # Declaration order matters to the rewriter: conversions are applied in
        # this order, so scale factors are folded in before exchange rates —
        # matching the paper's "revenue * 1000 * r3.rate" rendering.
        modifiers={"scaleFactor": "scaleFactorType", "currency": "currencyType"},
        description="amounts of money; context decides currency and scale",
    )
    model.add_type(
        "companyFinancials",
        parent="monetaryAmount",
        attributes={"company": "companyName"},
        description="financial figures (revenue, expenses, ...) of a company",
    )
    model.add_type(
        "stockPrice",
        parent="monetaryAmount",
        attributes={"company": "companyName"},
        description="security prices reported by exchanges",
    )
    model.validate()
    return model
