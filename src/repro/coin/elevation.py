"""Elevation axioms: identifying source schema elements with the domain model.

"[A mapping] that identif[ies] what individual data elements in a source
refers to [...] is accomplished through a collection of elevation axioms which
identify the elements of the source schema with the types in the domain
model."

An :class:`ElevationAxiom` covers one exported relation of one source: it
names the context governing the relation and maps every column either to a
semantic type (columns that carry semantically rich values, e.g. ``revenue``
→ ``companyFinancials``) or to nothing (plain columns such as join keys that
need no mediation).  It may also record *semantic relationships* between
columns — e.g. that the ``currency`` column carries the ``currency`` modifier
value of the ``revenue`` column — although in this reproduction that linkage
is expressed in the context theory (via :class:`~repro.coin.context.AttributeValue`)
to stay close to how the cases are enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ElevationError
from repro.coin.domain import DomainModel
from repro.datalog.clause import KnowledgeBase
from repro.relational.schema import Schema


@dataclass(frozen=True)
class ColumnElevation:
    """Elevation of a single column to a semantic type."""

    column: str
    semantic_type: str
    description: str = ""


@dataclass
class ElevationAxiom:
    """Elevation of one relation: its context plus per-column semantic types."""

    source: str
    relation: str
    context: str
    columns: Tuple[ColumnElevation, ...] = ()

    def semantic_type_of(self, column: str) -> Optional[str]:
        """The semantic type a column elevates to, or None for plain columns."""
        for elevation in self.columns:
            if elevation.column.lower() == column.lower():
                return elevation.semantic_type
        return None

    def axiom_count(self) -> int:
        """Number of column elevations — counted by the scalability benchmark."""
        return len(self.columns)

    def describe(self) -> str:
        lines = [f"elevation of {self.source}.{self.relation} (context {self.context}):"]
        for elevation in self.columns:
            lines.append(f"  {elevation.column} :: {elevation.semantic_type}")
        return "\n".join(lines)


class ElevationRegistry:
    """All elevation axioms of a federation, keyed by relation name."""

    def __init__(self, axioms: Iterable[ElevationAxiom] = ()):
        self._by_relation: Dict[str, ElevationAxiom] = {}
        #: Bumped on register/replace; part of the knowledge generation that
        #: keys the mediation and plan caches.
        self.generation = 0
        for axiom in axioms:
            self.register(axiom)

    # -- construction -----------------------------------------------------------

    def register(self, axiom: ElevationAxiom) -> ElevationAxiom:
        key = axiom.relation.lower()
        if key in self._by_relation:
            raise ElevationError(f"relation {axiom.relation!r} is already elevated")
        self._by_relation[key] = axiom
        self.generation += 1
        return axiom

    def elevate(self, source: str, relation: str, context: str,
                column_types: Dict[str, str]) -> ElevationAxiom:
        """Convenience builder from a ``column -> semantic type`` mapping."""
        axiom = ElevationAxiom(
            source=source,
            relation=relation,
            context=context,
            columns=tuple(
                ColumnElevation(column=column, semantic_type=semantic_type)
                for column, semantic_type in column_types.items()
            ),
        )
        return self.register(axiom)

    def replace(self, axiom: ElevationAxiom) -> ElevationAxiom:
        """Replace an existing elevation (extensibility scenario: schema change)."""
        self._by_relation[axiom.relation.lower()] = axiom
        self.generation += 1
        return axiom

    # -- lookup -------------------------------------------------------------------

    def for_relation(self, relation: str) -> ElevationAxiom:
        try:
            return self._by_relation[relation.lower()]
        except KeyError as exc:
            raise ElevationError(f"relation {relation!r} has no elevation axiom") from exc

    def has_relation(self, relation: str) -> bool:
        return relation.lower() in self._by_relation

    @property
    def relations(self) -> List[str]:
        return sorted(axiom.relation for axiom in self._by_relation.values())

    def __iter__(self):
        return iter(self._by_relation.values())

    def __len__(self) -> int:
        return len(self._by_relation)

    def total_axiom_count(self) -> int:
        return sum(axiom.axiom_count() for axiom in self._by_relation.values())

    # -- validation -----------------------------------------------------------------

    def validate_against(self, domain_model: DomainModel,
                         schemas: Dict[str, Schema]) -> None:
        """Check every elevation references known semantic types and real columns.

        ``schemas`` maps relation names to their schemas as exported by the
        wrappers; relations without an entry are skipped (they may be remote
        and not yet catalogued).
        """
        for axiom in self._by_relation.values():
            schema = schemas.get(axiom.relation.lower()) or schemas.get(axiom.relation)
            for elevation in axiom.columns:
                if not domain_model.has(elevation.semantic_type):
                    raise ElevationError(
                        f"{axiom.relation}.{elevation.column} elevates to unknown semantic "
                        f"type {elevation.semantic_type!r}"
                    )
                if schema is not None and not schema.has(elevation.column):
                    raise ElevationError(
                        f"elevation of {axiom.relation!r} references unknown column "
                        f"{elevation.column!r}"
                    )

    # -- datalog view -----------------------------------------------------------------

    def to_knowledge_base(self) -> KnowledgeBase:
        """Compile to datalog facts: ``elevated(Relation, Column, SemanticType, Context)``."""
        kb = KnowledgeBase(name="elevation")
        for axiom in self._by_relation.values():
            kb.add_fact("relation_context", axiom.relation, axiom.context,
                        label=f"elevation:{axiom.relation}")
            kb.add_fact("relation_source", axiom.relation, axiom.source,
                        label=f"elevation:{axiom.relation}")
            for elevation in axiom.columns:
                kb.add_fact(
                    "elevated", axiom.relation, elevation.column, elevation.semantic_type,
                    axiom.context, label=f"elevation:{axiom.relation}",
                )
        return kb
