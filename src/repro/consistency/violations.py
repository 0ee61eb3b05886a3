"""Scanning federated sources for integrity-constraint violations.

The :class:`ViolationScanner` turns every declared constraint into an
ordinary relational plan (built by the engine's planner, so capability-aware
push-down applies) and runs each as a :class:`~repro.engine.stream.ResultStream`
on the engine under the scanner's own
:class:`~repro.relational.budget.MemoryBudget` — a scan over a large dirty
source sorts, joins and spills instead of materializing the extent:

* **primary keys / functional dependencies** — one ordered scan per
  constraint (``ORDER BY`` the determinant columns, executed by the budgeted
  streaming Sort); violations are detected in constant local memory on
  determinant-group boundaries;
* **inclusion dependencies and denial constraints** — the query whose
  answers are the violations
  (:meth:`~repro.consistency.constraints.DenialConstraint.check_query`): its
  first branch the referencing side, or the denial's positive literals
  joined under its builtins, one more branch per referenced side or negated
  literal, under an :class:`~repro.relational.algebra.Unmatched` root that
  lowers to anti-joins.  Every row of the stream is a violation; a denial's
  scan stops pulling at :data:`MAX_DENIAL_SOLUTIONS`.

The result is a structured :class:`ViolationReport` — per-constraint counts,
bounded sample witnesses, per-source attribution — memoized in a bounded LRU
keyed by the catalog generation: wrapper (re)registration, source
invalidation and constraint registration all bump the generation, so a stale
report is unreachable by key, exactly like cached plans.
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConsistencyError
from repro.consistency.constraints import (
    Constraint,
    DenialConstraint,
    FunctionalDependency,
    InclusionDependency,
    PrimaryKey,
)
from repro.engine.plan import QueryPlan
from repro.engine.stream import ResultStream
from repro.obs.cache import BoundedCache
from repro.options import DEFAULT_BATCH_SIZE
from repro.relational import algebra
from repro.relational.operators import _group_key as value_key
from repro.relational.relation import Row
from repro.sql.ast import ColumnRef, OrderItem, Select, SelectItem, TableRef

#: Sample witnesses kept per constraint.
MAX_WITNESSES = 5
#: Violations counted per denial constraint: its scan stops pulling there.
MAX_DENIAL_SOLUTIONS = 10_000
#: Bound on memoized reports.
REPORT_CACHE_SIZE = 16


@dataclass
class ConstraintFinding:
    """What the scanner found for one constraint."""

    constraint: str
    kind: str
    description: str
    relation: str
    wrapper: str
    violations: int = 0
    #: Sample witnesses: column-name → value records of offending tuples
    #: (capped; ``violations`` is the full count).
    witnesses: List[Dict[str, object]] = field(default_factory=list)

    def snapshot(self) -> Dict[str, object]:
        return {
            "constraint": self.constraint,
            "kind": self.kind,
            "description": self.description,
            "relation": self.relation,
            "wrapper": self.wrapper,
            "violations": self.violations,
            "witnesses": list(self.witnesses),
        }


@dataclass
class ViolationReport:
    """Structured outcome of one scan over the declared constraints."""

    generation: int
    findings: List[ConstraintFinding] = field(default_factory=list)
    rows_scanned: int = 0
    elapsed_seconds: float = 0.0
    peak_memory_bytes: int = 0
    spill_count: int = 0

    @property
    def total_violations(self) -> int:
        return sum(finding.violations for finding in self.findings)

    @property
    def dirty(self) -> bool:
        return self.total_violations > 0

    def by_source(self) -> Dict[str, int]:
        """Violations attributed to the wrapper serving the violating tuples."""
        attribution: Dict[str, int] = {}
        for finding in self.findings:
            attribution[finding.wrapper] = (
                attribution.get(finding.wrapper, 0) + finding.violations
            )
        return attribution

    def for_constraint(self, name: str) -> ConstraintFinding:
        for finding in self.findings:
            if finding.constraint.lower() == name.lower():
                return finding
        raise ConsistencyError(f"no finding for constraint {name!r}")

    def snapshot(self) -> Dict[str, object]:
        return {
            "generation": self.generation,
            "total_violations": self.total_violations,
            "rows_scanned": self.rows_scanned,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "peak_memory_bytes": self.peak_memory_bytes,
            "spill_count": self.spill_count,
            "by_source": self.by_source(),
            "findings": [finding.snapshot() for finding in self.findings],
        }


class ViolationScanner:
    """Compiles declared constraints into plans and scans for violations.

    ``memory_budget_bytes`` bounds the operator memory of every scan plan
    (sorts and joins spill instead of exceeding it); at most
    :data:`MAX_WITNESSES` sample witnesses are kept per constraint.  Reports
    are memoized in an LRU of ``REPORT_CACHE_SIZE`` entries keyed by
    (catalog generation, scanned relations).
    """

    def __init__(self, engine, memory_budget_bytes: Optional[int] = None):
        self.engine = engine
        #: Scans run on the engine — its request cache, fetch pool, temporary
        #: storage and resilience policy — but under this budget, so scanning
        #: never competes with statements for RAM.
        self.memory_budget_bytes = memory_budget_bytes
        self._cache = BoundedCache(REPORT_CACHE_SIZE)

    # -- public API --------------------------------------------------------------

    def scan(self, relations: Optional[Sequence[str]] = None,
             use_cache: bool = True,
             timeout_seconds: Optional[float] = None) -> ViolationReport:
        """Scan the declared constraints (optionally only those reading the
        given relations) and return the memoized or fresh report.

        ``timeout_seconds`` bounds the *whole* scan: every constraint's
        source fetches and streamed evaluation run under one shared
        deadline (a cache hit returns immediately regardless)."""
        catalog = self.engine.catalog
        deadline = self.engine.resilience.deadline(timeout_seconds)
        constraints = self._select_constraints(relations)
        key = (
            catalog.generation,
            tuple(sorted(constraint.name.lower() for constraint in constraints)),
        )
        if use_cache:
            cached = self._cache.get(key)
            if cached is not None:
                return cached

        started = time.perf_counter()
        report = ViolationReport(generation=catalog.generation)
        for constraint in constraints:
            report.findings.append(self._scan_constraint(constraint, report,
                                                         deadline))
        report.elapsed_seconds = time.perf_counter() - started

        if use_cache:
            self._cache.put(key, report)
        return report

    def snapshot(self) -> Dict[str, int]:
        cache = self._cache.snapshot()
        return {
            "cache_entries": cache["entries"],
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
        }

    # -- plan construction --------------------------------------------------------

    def _select_constraints(self, relations: Optional[Sequence[str]]) -> List[Constraint]:
        constraints = self.engine.catalog.constraints.all
        if relations is None:
            return constraints
        wanted = {relation.lower() for relation in relations}
        return [
            constraint for constraint in constraints
            if wanted & {relation.lower() for relation in constraint.relations}
        ]

    def _stream(self, plan: QueryPlan, report: ViolationReport,
                deadline) -> Iterator[Row]:
        """Stream one scan plan under the scanner's budget; a scan is no
        statement, so the engine's counters never see it."""
        stream = ResultStream(self.engine, plan, self.memory_budget_bytes, deadline)
        try:
            while True:
                rows = stream.fetchmany(DEFAULT_BATCH_SIZE)
                if not rows:
                    break
                yield from rows
        finally:
            stream.close()
            report.rows_scanned += sum(request.rows_returned
                                       for request in stream.report.requests
                                       if not request.dedup_hit)
            report.peak_memory_bytes = max(
                report.peak_memory_bytes, stream.report.peak_memory_bytes
            )
            report.spill_count += stream.report.spill_count

    # -- per-family scans -----------------------------------------------------------

    def _scan_constraint(self, constraint: Constraint,
                         report: ViolationReport,
                         deadline) -> ConstraintFinding:
        if isinstance(constraint, PrimaryKey):
            return self._scan_dependency(
                constraint, report,
                determinants=constraint.columns,
                dependents=None,
                deadline=deadline,
            )
        if isinstance(constraint, FunctionalDependency):
            return self._scan_dependency(
                constraint, report,
                determinants=constraint.determinants,
                dependents=constraint.dependents,
                deadline=deadline,
            )
        if isinstance(constraint, (InclusionDependency, DenialConstraint)):
            return self._scan_check(constraint, report, deadline)
        raise ConsistencyError(
            f"no scan strategy for constraint kind {constraint.kind!r}"
        )

    def _finding(self, constraint: Constraint, relation: str) -> ConstraintFinding:
        entry = self.engine.catalog.entry(relation)
        return ConstraintFinding(
            constraint=constraint.name,
            kind=constraint.kind,
            description=constraint.describe(),
            relation=entry.relation,
            wrapper=entry.wrapper_name,
        )

    def _scan_dependency(self, constraint, report: ViolationReport,
                         determinants: Sequence[str],
                         dependents: Optional[Sequence[str]],
                         deadline) -> ConstraintFinding:
        """Ordered-scan detection for keys (dependents=None: any second tuple
        per key is a violation) and FDs (a second *distinct* dependent combo
        per determinant group is)."""
        relation = constraint.relation
        schema = self.engine.catalog.schema_of(relation)
        columns = list(schema.names)
        select = Select(
            items=tuple(SelectItem(ColumnRef(name=column, table=relation))
                        for column in columns),
            tables=(TableRef(name=relation),),
            order_by=tuple(OrderItem(ColumnRef(name=column, table=relation))
                           for column in determinants),
        )
        finding = self._finding(constraint, relation)

        positions = [
            next(i for i, name in enumerate(columns) if name.lower() == column.lower())
            for column in determinants
        ]
        dependent_positions = None
        if dependents is not None:
            dependent_positions = [
                next(i for i, name in enumerate(columns) if name.lower() == column.lower())
                for column in dependents
            ]

        current_key: Optional[Tuple] = None
        group_first: Optional[Row] = None
        seen_dependents: set = set()
        plan = self.engine.planner.plan_branches([select])
        for row in self._stream(plan, report, deadline):
            key = tuple(value_key(row[position]) for position in positions)
            if key != current_key:
                current_key = key
                group_first = row
                seen_dependents = (
                    {tuple(value_key(row[p]) for p in dependent_positions)}
                    if dependent_positions is not None else set()
                )
                continue
            if dependent_positions is None:
                # Key constraint: every tuple after the first in its group.
                self._record(finding, columns, row, first=group_first)
            else:
                combo = tuple(value_key(row[p]) for p in dependent_positions)
                if combo not in seen_dependents:
                    seen_dependents.add(combo)
                    self._record(finding, columns, row, first=group_first)
        return finding

    def _scan_check(self, constraint, report: ViolationReport,
                    deadline) -> ConstraintFinding:
        """An inclusion or denial: every row of its check query is a violation."""
        check = constraint.check_query(self.engine.catalog.schema_of)
        plan = self.engine.planner.plan_branches(list(check.selects))
        plan.root = algebra.Unmatched(tuple(branch.tree for branch in plan.branches),
                                      check.keys)
        finding = self._finding(constraint, constraint.relations[0])
        limit = MAX_DENIAL_SOLUTIONS if isinstance(constraint, DenialConstraint) else None
        with closing(self._stream(plan, report, deadline)) as rows:
            for row in rows:
                self._record(finding, check.witness, row)
                if finding.violations == limit:
                    break
        return finding

    # -- bookkeeping -----------------------------------------------------------------

    def _record(self, finding: ConstraintFinding, columns: Sequence[str], row: Row,
                first: Optional[Row] = None) -> None:
        finding.violations += 1
        if len(finding.witnesses) >= MAX_WITNESSES:
            return
        witness: Dict[str, object] = dict(zip(columns, row))
        if first is not None and first is not row:
            witness["conflicts_with"] = dict(zip(columns, first))
        finding.witnesses.append(witness)
