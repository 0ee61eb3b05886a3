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

from typing import Dict, List, Optional, Sequence

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


class PartitionedCompanySource(MemorySQLSource):
    """A synthetic financial-database source used by scalability benchmarks.

    Each instance holds one ``financials`` relation describing companies in a
    particular reporting convention (currency and scale factor); the demo
    scenarios create many of these to emulate the paper's claim setting of a
    growing number of autonomous sources.
    """

    def __init__(self, name: str, rows: Sequence[Sequence], currency: str,
                 scale_factor: int, description: str = ""):
        super().__init__(name, SourceCapabilities.full_sql(), description)
        self.currency = currency
        self.scale_factor = scale_factor
        schema = Schema.of(
            "cname:string",
            "revenue:float",
            "expenses:float",
            "currency:string",
        )
        relation = Relation(schema, rows=rows, name="financials")
        self.add_relation(relation)
