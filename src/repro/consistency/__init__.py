"""Consistency subsystem: declarative integrity constraints, violation
scanning, and consistent query answering over dirty federated sources.

The COIN reproduction mediates *semantic* heterogeneity; this package handles
*instance-level* heterogeneity — autonomous sources whose data breaks the
keys, dependencies and referential rules the federation expects:

* :mod:`repro.consistency.constraints` — the constraint language (primary
  keys, functional dependencies, inclusion dependencies, datalog denial
  constraints), registered per relation in the engine's catalog;
* :mod:`repro.consistency.violations` — the budgeted violation scanner and
  its memoized :class:`~repro.consistency.violations.ViolationReport`;
* :mod:`repro.consistency.cqa` — certain/possible answers under key
  constraints: a first-order query rewrite the ordinary planner plans when
  the query shape allows it, bounded repair enumeration when it does not.

``Federation.query(..., consistency="certain" | "possible" | "raw")`` is the
front door; see the "Consistency and repairs" section of PERFORMANCE.md.
"""

from repro.consistency.constraints import (
    Constraint,
    ConstraintSet,
    DenialConstraint,
    FunctionalDependency,
    InclusionDependency,
    PrimaryKey,
)
from repro.consistency.cqa import (
    CONSISTENCY_MODES,
    ConsistentQueryExecutor,
    validate_mode,
)
from repro.consistency.violations import (
    ConstraintFinding,
    ViolationReport,
    ViolationScanner,
)

__all__ = [
    "CONSISTENCY_MODES",
    "Constraint",
    "ConstraintFinding",
    "ConstraintSet",
    "ConsistentQueryExecutor",
    "DenialConstraint",
    "FunctionalDependency",
    "InclusionDependency",
    "PrimaryKey",
    "ViolationReport",
    "ViolationScanner",
    "validate_mode",
]
