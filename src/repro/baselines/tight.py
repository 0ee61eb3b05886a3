"""Tight-coupling baseline: a priori global-schema integration.

The paper positions Context Interchange against the classic loose- and
tight-coupling approaches of Sheth & Larson's federated-database taxonomy.
Under tight coupling, an administrator builds a *global schema* ahead of time:
every source gets a hand-written conversion view into the global convention,
and every pair of sources whose data may be compared must have its potential
conflicts identified and reconciled a priori.

This module implements that strategy concretely so the scalability (E3) and
extensibility (E4) benchmarks can compare real, runnable systems rather than
formulas:

* :class:`GlobalSchemaIntegrator` materializes a per-source conversion view
  into the global convention (USD, scale factor 1) and answers cross-source
  queries over the converted views — so its answers can be checked against the
  mediator's;
* the integrator counts the artifacts an administrator must author: one
  conversion view per source **plus one pairwise conflict-resolution entry per
  source pair** — the quadratic term the paper's scalability claim is about;
* :meth:`change_source_convention` models a source unilaterally changing its
  reporting convention and returns how many artifacts had to be touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.relational.query import QueryProcessor
from repro.relational.relation import Relation
from repro.sources.exchange import DEFAULT_RATES, complete_rates, lookup_rate


@dataclass(frozen=True)
class SourceConvention:
    """The reporting convention of one source (what its admin must document)."""

    relation: str
    currency: str
    scale_factor: int


@dataclass
class IntegrationEffort:
    """Artifacts the administrator has authored so far."""

    conversion_views: int = 0
    pairwise_mappings: int = 0
    receiver_mappings: int = 0

    @property
    def total(self) -> int:
        return self.conversion_views + self.pairwise_mappings + self.receiver_mappings

    def snapshot(self) -> Dict[str, int]:
        return {
            "conversion_views": self.conversion_views,
            "pairwise_mappings": self.pairwise_mappings,
            "receiver_mappings": self.receiver_mappings,
            "total": self.total,
        }


class GlobalSchemaIntegrator:
    """A runnable tight-coupling integration of financial sources."""

    GLOBAL_CURRENCY = "USD"
    GLOBAL_SCALE = 1

    def __init__(self, rates: Optional[Mapping[Tuple[str, str], float]] = None):
        self.rates = complete_rates(rates if rates is not None else DEFAULT_RATES)
        self.conventions: Dict[str, SourceConvention] = {}
        self._source_relations: Dict[str, Relation] = {}
        self._global_views: Dict[str, Relation] = {}
        self.effort = IntegrationEffort()
        #: The pairwise conflict registry the administrator maintains by hand.
        self.pairwise_registry: List[Tuple[str, str]] = []

    # -- administration ------------------------------------------------------------

    def add_source(self, relation: Relation, convention: SourceConvention) -> None:
        """Integrate one more source: author its view and all pairwise entries."""
        name = convention.relation
        if name in self.conventions:
            raise ReproError(f"source relation {name!r} is already integrated")

        # Authoring the conversion view for the new source.
        self._source_relations[name] = relation
        self.conventions[name] = convention
        self._global_views[name] = self._build_global_view(relation, convention)
        self.effort.conversion_views += 1

        # Tight coupling requires conflicts between every pair of sources to be
        # identified a priori, before any query is posed.
        for existing in self.conventions:
            if existing == name:
                continue
            self.pairwise_registry.append(tuple(sorted((existing, name))))
            self.effort.pairwise_mappings += 1

    def add_receiver(self, currency: str, scale_factor: int) -> None:
        """Each receiver convention needs its own mapping from the global schema."""
        self.effort.receiver_mappings += 1

    def change_source_convention(self, relation: str, currency: str, scale_factor: int) -> int:
        """A source changes its convention; return the number of artifacts touched.

        The administrator must rewrite the source's conversion view and
        re-validate every pairwise entry involving it.
        """
        if relation not in self.conventions:
            raise ReproError(f"unknown integrated source {relation!r}")
        convention = SourceConvention(relation, currency, scale_factor)
        self.conventions[relation] = convention
        self._global_views[relation] = self._build_global_view(
            self._source_relations[relation], convention
        )
        touched = 1  # the conversion view itself
        touched += sum(1 for pair in self.pairwise_registry if relation in pair)
        return touched

    # -- query answering --------------------------------------------------------------

    def query(self, sql: str) -> Relation:
        """Answer a query over the global (converted) views."""
        return QueryProcessor.over_tables(dict(self._global_views)).execute(sql)

    def global_view(self, relation: str) -> Relation:
        return self._global_views[relation]

    # -- internals ---------------------------------------------------------------------

    def _build_global_view(self, relation: Relation, convention: SourceConvention) -> Relation:
        """Materialize the hand-written conversion view into the global convention."""
        rate = lookup_rate(self.rates, convention.currency, self.GLOBAL_CURRENCY)
        factor = rate * convention.scale_factor / self.GLOBAL_SCALE

        monetary_positions = [
            index
            for index, attribute in enumerate(relation.schema)
            if attribute.name.lower() in ("revenue", "expenses", "price")
        ]
        view = Relation(relation.schema, name=convention.relation)
        for row in relation.rows:
            converted = list(row)
            for position in monetary_positions:
                if converted[position] is not None:
                    converted[position] = converted[position] * factor
            view.append(converted, validate=False)
        return view
