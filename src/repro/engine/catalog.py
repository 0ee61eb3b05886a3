"""The engine's catalog and dictionary services.

"[The engine's] main functions are: serving schema information such as names
and attribute types of the table located in the various sources; ..."

The :class:`Catalog` records, for every relation exported by a wrapper, which
wrapper serves it, its schema, the capabilities and cost parameters of the
underlying source, and a cardinality estimate for the planner.  The same
information is mirrored into the relations of the
:class:`~repro.relational.storage.DictionaryStore` — the "dictionary
services" of the prototype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.errors import CatalogError
from repro.consistency.constraints import Constraint, ConstraintSet, PrimaryKey
from repro.engine.feedback import CardinalityFeedback
from repro.relational.schema import Schema
from repro.relational.storage import DictionaryStore
from repro.sources.base import SourceCapabilities
from repro.wrappers.wrapper import Wrapper, WrapperRegistry


@dataclass
class CatalogEntry:
    """Everything the engine knows about one relation."""

    relation: str
    wrapper_name: str
    schema: Schema
    capabilities: SourceCapabilities
    estimated_rows: int = 100
    description: str = ""

    @property
    def qualified_name(self) -> str:
        return f"{self.wrapper_name}.{self.relation}"


class Catalog:
    """Relation-level metadata plus dictionary storage."""

    #: Default cardinality estimate when a wrapper cannot report one cheaply.
    DEFAULT_ESTIMATED_ROWS = 100

    def __init__(self, wrappers: Optional[WrapperRegistry] = None):
        self.wrappers = wrappers if wrappers is not None else WrapperRegistry()
        self._entries: Dict[str, CatalogEntry] = {}
        self.dictionary = DictionaryStore()
        #: Declared integrity constraints over the catalogued relations.
        #: Registration bumps the generation, so everything keyed on it
        #: (cached plans, prepared statements, violation reports) re-derives.
        self.constraints = ConstraintSet()
        #: Monotonic dictionary version.  Bumped whenever the set of relations
        #: a plan could read changes — wrapper/relation (re)registration and
        #: explicit source invalidation — so cached plans and prepared queries
        #: keyed on it can never consult a stale dictionary.  Cardinality
        #: feedback (:meth:`update_estimate`) deliberately does *not* bump it:
        #: estimates only steer costs, never correctness.
        self.generation = 0
        #: Runtime cardinality/latency observations feeding the cost model.
        #: Generation-aware: any dictionary change clears the observations
        #: (its monotonic *epoch* survives and keys cached plans).
        self.feedback = CardinalityFeedback()

    def bump_generation(self) -> int:
        """Advance the dictionary version and return the new value."""
        self.generation += 1
        # Observations were measured against the old dictionary contents;
        # they must not survive a registration or invalidation.
        self.feedback.clear()
        return self.generation

    # -- registration -----------------------------------------------------------

    def register_wrapper(self, wrapper: Wrapper, estimate_rows: bool = True) -> List[CatalogEntry]:
        """Register a wrapper and catalog every relation it exports.

        With ``estimate_rows=True`` the catalog asks SQL-capable wrappers for a
        COUNT(*) per relation (cheap for in-memory sources); web wrappers keep
        the default estimate to avoid triggering a crawl at registration time.
        """
        self.wrappers.register(wrapper)
        self.dictionary.register_source(wrapper.name, type(wrapper).__name__)
        for capability, supported in _capability_flags(wrapper.capabilities).items():
            self.dictionary.register_capability(wrapper.name, capability, supported)

        entries = []
        for relation in wrapper.relation_names():
            schema = wrapper.schema_of(relation)
            estimated = self.DEFAULT_ESTIMATED_ROWS
            if estimate_rows and wrapper.capabilities.aggregation:
                estimated = self._count_rows(wrapper, relation, estimated)
            entry = CatalogEntry(
                relation=relation,
                wrapper_name=wrapper.name,
                schema=schema,
                capabilities=wrapper.capabilities,
                estimated_rows=estimated,
            )
            self._register_entry(entry)
            entries.append(entry)
        self.bump_generation()
        return entries

    def register_relation(self, relation: str, wrapper_name: str, schema: Schema,
                          capabilities: Optional[SourceCapabilities] = None,
                          estimated_rows: Optional[int] = None) -> CatalogEntry:
        """Register a single relation explicitly (used for ancillary views)."""
        wrapper = self.wrappers.get(wrapper_name)
        entry = CatalogEntry(
            relation=relation,
            wrapper_name=wrapper_name,
            schema=schema,
            capabilities=capabilities or wrapper.capabilities,
            estimated_rows=estimated_rows if estimated_rows is not None else self.DEFAULT_ESTIMATED_ROWS,
        )
        self._register_entry(entry)
        self.bump_generation()
        return entry

    def _register_entry(self, entry: CatalogEntry) -> None:
        key = entry.relation.lower()
        if key in self._entries:
            raise CatalogError(
                f"relation {entry.relation!r} is already served by wrapper "
                f"{self._entries[key].wrapper_name!r}"
            )
        self._entries[key] = entry
        self.dictionary.register_relation(entry.wrapper_name, entry.relation, entry.schema)

    def _count_rows(self, wrapper: Wrapper, relation: str, default: int) -> int:
        try:
            result = wrapper.query(f"SELECT COUNT(*) AS n FROM {relation}")
            value = result.rows[0][0]
            return int(value) if value is not None else default
        except Exception:
            return default

    # -- integrity constraints ----------------------------------------------------

    def register_constraint(self, constraint: Constraint) -> Constraint:
        """Declare an integrity constraint over catalogued relations.

        Every relation the constraint reads must already be catalogued (the
        constraint is validated against the live schemas).  Registration is a
        dictionary change: the generation is bumped so cached plans and
        memoized violation reports from before the declaration become
        unreachable.
        """
        registered = self.constraints.register(constraint, self.schema_of)
        self.bump_generation()
        return registered

    def key_of(self, relation: str) -> Optional[PrimaryKey]:
        """The relation's declared primary key, or None."""
        return self.constraints.key_of(relation)

    # -- lookup -------------------------------------------------------------------

    def entry(self, relation: str) -> CatalogEntry:
        try:
            return self._entries[relation.lower()]
        except KeyError as exc:
            raise CatalogError(f"unknown relation {relation!r}") from exc

    def has_relation(self, relation: str) -> bool:
        return relation.lower() in self._entries

    def wrapper_for(self, relation: str) -> Wrapper:
        return self.wrappers.get(self.entry(relation).wrapper_name)

    def schema_of(self, relation: str) -> Schema:
        return self.entry(relation).schema

    def update_estimate(self, relation: str, estimated_rows: int) -> None:
        self.entry(relation).estimated_rows = max(int(estimated_rows), 0)

    @property
    def relations(self) -> List[str]:
        return sorted(entry.relation for entry in self._entries.values())

    @property
    def entries(self) -> List[CatalogEntry]:
        return [self._entries[key] for key in sorted(self._entries)]

    def __len__(self) -> int:
        return len(self._entries)

    # -- dictionary services ------------------------------------------------------------

    def list_sources(self) -> List[str]:
        """Names of all registered wrappers (the dictionary's source list)."""
        return self.dictionary.sources()

    def list_relations(self, source: Optional[str] = None) -> List[str]:
        if source is None:
            return self.relations
        return self.dictionary.relations_of(source)

    def describe_relation(self, relation: str) -> List[Dict[str, object]]:
        """Attribute descriptions (name, position, type) of one relation."""
        entry = self.entry(relation)
        return self.dictionary.attributes_of(entry.wrapper_name, entry.relation)


def _capability_flags(capabilities: SourceCapabilities) -> Dict[str, bool]:
    return {
        "selection": capabilities.selection,
        "projection": capabilities.projection,
        "join": capabilities.join,
        "arithmetic": capabilities.arithmetic,
        "aggregation": capabilities.aggregation,
        "order_by": capabilities.order_by,
        "union": capabilities.union,
    }
