"""The engine's catalog: its dictionary of sources and relations.

"[The engine's] main functions are: serving schema information such as names
and attribute types of the table located in the various sources; ..."

The :class:`Catalog` is the dictionary.  Its wrapper registry names the
sources, in registration order, and one :class:`CatalogEntry` per exported
relation records which wrapper serves it, its schema, the capabilities of the
underlying source and a cardinality estimate for the planner.  Every
dictionary read — sources, relations, attributes — is served from these two,
and registering a wrapper (:meth:`Catalog.register_wrapper`) is
all-or-nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import CatalogError
from repro.consistency.constraints import Constraint, ConstraintSet, PrimaryKey
from repro.engine.feedback import CardinalityFeedback
from repro.relational.schema import Schema
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


class Catalog:
    """The engine's dictionary: registered wrappers and the relations they
    serve."""

    #: Default cardinality estimate when a wrapper cannot report one cheaply.
    DEFAULT_ESTIMATED_ROWS = 100

    def __init__(self) -> None:
        self.wrappers = WrapperRegistry()
        self._entries: Dict[str, CatalogEntry] = {}
        #: Declared integrity constraints over the catalogued relations.
        #: Registration bumps the generation, so everything keyed on it
        #: (cached plans, prepared statements, violation reports) re-derives.
        self.constraints = ConstraintSet()
        #: Monotonic dictionary version.  Bumped whenever what a plan could
        #: read changes — a declared constraint here, every source change
        #: (registration, invalidation) in the engine's
        #: ``invalidate_source_cache`` — so cached plans and prepared queries
        #: keyed on it never consult a stale dictionary.  Cardinality feedback
        #: (:meth:`update_estimate`) deliberately does *not* bump it:
        #: estimates only steer costs, never correctness.
        self.generation = 0
        #: Runtime cardinality observations feeding the cost model.
        #: Generation-aware: any dictionary change clears the observations
        #: (its monotonic *epoch* survives and keys cached plans).  Latency
        #: is not kept here but on each wrapper's resilience record.
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

        Every entry is built and checked before anything changes: a relation
        another wrapper serves, or a declared constraint the new dictionary
        no longer satisfies — one over a relation the new wrapper does not
        serve, or over a column it lacks — refuses the registration and
        leaves the catalog and the wrapper registry as they were.  A name
        registered again replaces its wrapper, and the relations the old
        wrapper served leave the catalog with it.  The generation is the
        engine's to advance: a registration is a source change
        (``MultiDatabaseEngine.invalidate_source_cache``).

        With ``estimate_rows=True`` the catalog asks SQL-capable wrappers for a
        COUNT(*) per relation (cheap for in-memory sources); web wrappers keep
        the default estimate to avoid triggering a crawl at registration time.
        """
        owner = wrapper.name.lower()
        relations = wrapper.relation_names()
        for relation in relations:
            held = self._entries.get(relation.lower())
            if held is not None and held.wrapper_name.lower() != owner:
                raise CatalogError(
                    f"relation {relation!r} is already served by wrapper "
                    f"{held.wrapper_name!r}"
                )
        added = {}
        for relation in relations:
            estimated = self.DEFAULT_ESTIMATED_ROWS
            if estimate_rows and wrapper.capabilities.aggregation:
                estimated = self._count_rows(wrapper, relation, estimated)
            added[relation.lower()] = CatalogEntry(
                relation=relation,
                wrapper_name=wrapper.name,
                schema=wrapper.schema_of(relation),
                capabilities=wrapper.capabilities,
                estimated_rows=estimated,
            )
        entries = {key: entry for key, entry in self._entries.items()
                   if entry.wrapper_name.lower() != owner}
        entries.update(added)
        for constraint in self.constraints:
            for relation in constraint.relations:
                if relation.lower() not in entries:
                    raise CatalogError(
                        f"wrapper {wrapper.name!r} does not serve relation "
                        f"{relation!r}, which constraint {constraint.name!r} reads"
                    )
            constraint.validate(lambda relation: entries[relation.lower()].schema)
        self._entries = entries
        self.wrappers.register(wrapper)
        return list(added.values())

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

    def __len__(self) -> int:
        return len(self._entries)

    # -- dictionary services ------------------------------------------------------------

    def list_sources(self) -> List[str]:
        """Names of the registered wrappers, in registration order."""
        return [wrapper.name for wrapper in self.wrappers]

    def list_relations(self, source: Optional[str] = None) -> List[str]:
        """Every catalogued relation (sorted), or ``source``'s in export
        order; ``source`` matches case-insensitively, like every wrapper
        lookup."""
        if source is None:
            return self.relations
        owner = source.lower()
        return [entry.relation for entry in self._entries.values()
                if entry.wrapper_name.lower() == owner]

    def describe_relation(self, relation: str) -> List[Dict[str, object]]:
        """Attribute descriptions (name, position, type) of one relation."""
        return [{"attribute": attribute.name, "position": position,
                 "type": attribute.type.value}
                for position, attribute in enumerate(self.entry(relation).schema)]
