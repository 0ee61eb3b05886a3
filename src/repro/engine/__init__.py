"""The multi-database access engine: catalog, planner, executor.

The engine sits between the mediation engine and the wrappers (Figure 1 of
the paper): it serves dictionary information, plans and optimizes multi-source
queries under source capabilities and execution/communication costs, and
controls execution — issuing per-source sub-queries and performing the
cross-source joins locally with temporary storage.
"""

from repro.engine.catalog import Catalog, CatalogEntry
from repro.engine.cost import CostEstimate, CostModel
from repro.engine.plan import BranchPlan, QueryPlan, SourceRequest
from repro.engine.planner import PlannerConfig, QueryPlanner
from repro.engine.executor import (
    EngineResult,
    ExecutionReport,
    RequestExecution,
)
from repro.engine.engine import ENGINE_COUNTERS, MultiDatabaseEngine

__all__ = [
    "Catalog",
    "CatalogEntry",
    "CostEstimate",
    "CostModel",
    "BranchPlan",
    "QueryPlan",
    "SourceRequest",
    "PlannerConfig",
    "QueryPlanner",
    "EngineResult",
    "ExecutionReport",
    "RequestExecution",
    "ENGINE_COUNTERS",
    "MultiDatabaseEngine",
]
