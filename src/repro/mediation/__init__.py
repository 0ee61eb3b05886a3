"""The context mediation engine: conflict detection, abduction, query rewriting.

The central entry point is :class:`~repro.mediation.mediator.ContextMediator`,
which rewrites a receiver's naive SQL query into the mediated query (a union
of sub-queries, one per consistent combination of context assumptions) using
the knowledge held in a :class:`~repro.coin.system.CoinSystem`.
"""

from repro.mediation.constraints import ConstraintStore
from repro.mediation.conflicts import (
    ConflictAnalysis,
    ModifierResolution,
    SemanticValueRef,
    analyze_modifier,
    analyze_query,
    analyze_value,
    binding_map,
    find_semantic_values,
)
from repro.mediation.abduction import (
    MediationBranch,
    enumerate_branches,
    enumerate_branches_naive,
    order_branches,
)
from repro.mediation.rewriter import BranchQuery, MediationResult, QueryRewriter
from repro.mediation.explain import conflict_summary, explain_mediation
from repro.mediation.answers import (
    AnswerTransformer,
    ColumnAnnotation,
    environment_from_rates,
    environment_from_relation,
)
from repro.mediation.mediator import MEDIATOR_COUNTERS, ContextMediator

__all__ = [
    "ConstraintStore",
    "ConflictAnalysis",
    "ModifierResolution",
    "SemanticValueRef",
    "analyze_modifier",
    "analyze_query",
    "analyze_value",
    "binding_map",
    "find_semantic_values",
    "MediationBranch",
    "enumerate_branches",
    "enumerate_branches_naive",
    "order_branches",
    "BranchQuery",
    "MediationResult",
    "QueryRewriter",
    "conflict_summary",
    "explain_mediation",
    "AnswerTransformer",
    "ColumnAnnotation",
    "environment_from_rates",
    "environment_from_relation",
    "ContextMediator",
    "MEDIATOR_COUNTERS",
]
