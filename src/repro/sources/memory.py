"""In-memory SQL sources: the stand-in for the paper's on-line databases.

The prototype's demonstrations federate Oracle databases with web sites.  An
Oracle instance is out of scope for a self-contained reproduction, so
:class:`MemorySQLSource` plays its part: a named collection of relations with
a full local SQL processor, full push-down capabilities and the cost profile
of a remote DBMS.  The substitution is behaviour-preserving from the
mediator's point of view: what matters upstream is only that the source
accepts SQL over its exported schema and returns relational answers.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import CapabilityError, SourceError
from repro.relational.query import Database
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.base import Source, SourceCapabilities


class MemorySQLSource(Source):
    """A SQL-capable source backed by an in-memory :class:`Database`."""

    kind = "database"

    def __init__(self, name: str, capabilities: Optional[SourceCapabilities] = None,
                 description: str = ""):
        super().__init__(name, capabilities or SourceCapabilities.full_sql(), description)
        self.database = Database(name)

    # -- loading ---------------------------------------------------------------

    def add_relation(self, relation: Relation, name: Optional[str] = None) -> "MemorySQLSource":
        """Register a relation under its name (chainable)."""
        self.database.register(relation, name or relation.name)
        return self

    def load_sql(self, *statements: str) -> "MemorySQLSource":
        """Run CREATE TABLE / INSERT statements to populate the source."""
        for statement in statements:
            self.database.execute(statement)
        return self

    # -- metadata ----------------------------------------------------------------

    def relation_names(self) -> List[str]:
        return self.database.table_names

    def schema_of(self, relation: str) -> Schema:
        return self.database.table(relation).schema

    # -- data access ---------------------------------------------------------------

    def fetch(self, relation: str) -> Relation:
        self.check_available()
        result = self.database.table(relation)
        self.statistics.add(queries=1, rows_returned=len(result))
        return result

    def execute_sql(self, statement) -> Relation:
        """Execute a SELECT/UNION (or DDL/DML during loading) locally."""
        self.check_available()
        try:
            result = self.database.execute(statement)
        except SourceError:
            raise
        except Exception as exc:
            raise SourceError(f"source {self.name!r} failed to execute query: {exc}") from exc
        self.statistics.add(queries=1, rows_returned=len(result))
        return result

