"""The context mediation engine: conflict detection, abduction, query rewriting.

The central entry point is :class:`~repro.mediation.mediator.ContextMediator`,
which rewrites a receiver's naive SQL query into the mediated query (a union
of sub-queries, one per consistent combination of context assumptions) using
the knowledge held in a :class:`~repro.coin.system.CoinSystem`.
"""

from repro.mediation.answers import AnswerTransformer, ColumnAnnotation
from repro.mediation.explain import conflict_summary, explain_mediation
from repro.mediation.mediator import (
    MEDIATOR_COUNTERS,
    BranchQuery,
    ContextMediator,
    MediationResult,
)

__all__ = [
    "AnswerTransformer",
    "ColumnAnnotation",
    "conflict_summary",
    "explain_mediation",
    "BranchQuery",
    "ContextMediator",
    "MediationResult",
    "MEDIATOR_COUNTERS",
]
