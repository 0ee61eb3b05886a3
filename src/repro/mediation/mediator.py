"""The context mediator.

"The mediation engine intercepts a query to the multi-database engine and
rewrites it according to the context knowledge it has about the receiver and
the sources involved."

:class:`ContextMediator` is the façade used by the server layer: it accepts a
receiver's SQL (text or AST) plus the receiver's context name, performs
conflict detection, abductive branch enumeration and query construction, and
returns a :class:`~repro.mediation.rewriter.MediationResult`.  It also keeps
aggregate statistics (queries mediated, branches produced, conflicts detected)
that the benchmarks read.
"""

from __future__ import annotations

from typing import Optional, Union as TUnion

from repro.errors import MediationError, SQLUnsupportedError
from repro.coin.system import CoinSystem
from repro.mediation.rewriter import MediationResult, QueryRewriter
from repro.obs.metrics import CounterSet
from repro.sql.ast import Select, Statement, Union
from repro.sql.parser import finished_union, parse


#: A mediator's lifetime counters: (field, kind, exported series, help).
MEDIATOR_COUNTERS = (
    ("queries_mediated", "sum", None, ""),
    ("branches_produced", "sum", None, ""),
    ("conflicts_detected", "sum", None, ""),
    ("queries_unchanged", "sum", None, ""),
)


class ContextMediator:
    """Rewrites receiver queries into mediated queries for one federation."""

    def __init__(self, system: CoinSystem, default_receiver_context: Optional[str] = None,
                 max_branches: int = 256):
        self.system = system
        self.default_receiver_context = default_receiver_context
        self.rewriter = QueryRewriter(system, max_branches=max_branches)
        self.statistics = CounterSet(MEDIATOR_COUNTERS)

    # -- public API -------------------------------------------------------------

    def mediate(self, query: TUnion[str, Select], receiver_context: Optional[str] = None) -> MediationResult:
        """Mediate one SELECT query posed in the receiver's context.

        ``query`` may be SQL text or an already-parsed :class:`Select`.
        UNION queries are rejected: receivers pose naive single-block queries;
        unions are what mediation *produces*.
        """
        context_name = self.resolve_context(receiver_context)
        select = self._as_select(query)
        result = self.rewriter.rewrite(select, context_name)
        self.statistics.add(
            queries_mediated=1,
            branches_produced=result.branch_count,
            conflicts_detected=result.conflict_count,
            queries_unchanged=int(not result.is_rewritten),
        )
        return result

    def resolve_context(self, receiver_context: Optional[str] = None) -> str:
        """The effective receiver context (explicit or the configured default)."""
        context_name = receiver_context or self.default_receiver_context
        if context_name is None:
            raise MediationError("no receiver context given and no default configured")
        return context_name

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _as_select(query: TUnion[str, Select, Statement]) -> Select:
        if isinstance(query, str):
            parsed = parse(query)
        else:
            parsed = query
        if isinstance(parsed, Union) or finished_union(parsed) is not None:
            raise MediationError(
                "receiver queries must be single SELECT statements; "
                "UNION queries are produced, not consumed, by mediation"
            )
        if not isinstance(parsed, Select):
            raise SQLUnsupportedError(
                f"cannot mediate statement of type {type(parsed).__name__}"
            )
        return parsed
