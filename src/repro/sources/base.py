"""Source abstractions: what the multi-database engine talks to (via wrappers).

A *source* is an autonomous system holding data: an on-line database or a
semi-structured web site in the paper's demonstration.  Sources differ in

* the **relations** they export (discovered through the dictionary services),
* their **capabilities** — which query operations they can evaluate locally
  (a full DBMS evaluates selections, joins and aggregates; a web site can
  usually only be fetched page by page), and
* their **costs** — per-query overhead and per-tuple transfer costs that the
  planner weighs when deciding what to push down.

Sources also keep simple access statistics so benchmarks can report how many
queries/pages each experiment issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import SourceError, SourceUnavailableError
from repro.obs.metrics import CounterSet
from repro.relational.relation import Relation
from repro.relational.schema import Schema


@dataclass(frozen=True)
class SourceCapabilities:
    """What a source can evaluate on its own, plus its cost parameters.

    The boolean flags describe query operations the source accepts in pushed
    down SQL.  The cost figures are abstract units consumed by the planner's
    cost model (:mod:`repro.engine.cost`): ``query_overhead`` is charged per
    round trip, ``transfer_cost_per_row`` per result row shipped back to the
    engine, and ``scan_cost_per_row`` per row the source must touch locally.
    """

    selection: bool = True
    projection: bool = True
    join: bool = True
    arithmetic: bool = True
    aggregation: bool = True
    order_by: bool = True
    union: bool = True
    query_overhead: float = 10.0
    transfer_cost_per_row: float = 1.0
    scan_cost_per_row: float = 0.1

    @classmethod
    def full_sql(cls) -> "SourceCapabilities":
        """A full relational DBMS (the paper's Oracle sources)."""
        return cls()

    @classmethod
    def scan_only(cls, query_overhead: float = 50.0,
                  transfer_cost_per_row: float = 2.0) -> "SourceCapabilities":
        """A source that can only be scanned in full (typical web site)."""
        return cls(
            selection=False,
            projection=False,
            join=False,
            arithmetic=False,
            aggregation=False,
            order_by=False,
            union=False,
            query_overhead=query_overhead,
            transfer_cost_per_row=transfer_cost_per_row,
            scan_cost_per_row=0.5,
        )


#: Access counters every source maintains: (field, kind, series, help).
#: Failed and retried round trips are booked on the wrapper's record in the
#: engine's resilience policy, not here.
SOURCE_COUNTERS = (
    ("queries", "sum", None, ""),
    ("rows_returned", "sum", None, ""),
    ("pages_fetched", "sum", None, ""),
)


class Source:
    """Base class of all sources."""

    #: A short machine-readable kind: "database", "web", ...
    kind = "source"

    def __init__(self, name: str, capabilities: Optional[SourceCapabilities] = None,
                 description: str = ""):
        self.name = name
        self.capabilities = capabilities or SourceCapabilities.full_sql()
        self.description = description
        self.statistics = CounterSet(SOURCE_COUNTERS)
        self.available = True

    # -- metadata -------------------------------------------------------------

    def relation_names(self) -> List[str]:
        """Names of the relations this source exports."""
        raise NotImplementedError

    def schema_of(self, relation: str) -> Schema:
        """Schema of one exported relation."""
        raise NotImplementedError

    # -- data access ----------------------------------------------------------

    def fetch(self, relation: str) -> Relation:
        """Return the full extent of one relation (every source supports this)."""
        raise NotImplementedError

    def execute_sql(self, statement) -> Relation:
        """Execute a (pushed-down) SQL statement, when capabilities allow it."""
        raise SourceError(f"source {self.name!r} does not accept SQL")

    # -- availability -----------------------------------------------------------

    def check_available(self) -> None:
        """Raise :class:`SourceUnavailableError` when the source is offline.

        The extensibility/failure-injection tests flip :attr:`available` to
        simulate a source dropping off the network.
        """
        if not self.available:
            raise SourceUnavailableError(f"source {self.name!r} is unavailable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
