"""Cost model for planning multi-source queries.

"Planning and optimizing the multi-source queries taking into account the
sources capabilities as well as the execution and communication costs."

Costs are abstract units.  Three components are modelled:

* **source execution** — the work a source does to answer a pushed-down
  sub-query: per-query overhead plus a per-row scan charge over the base
  relation(s);
* **communication** — a per-row transfer charge on every row shipped from a
  source to the engine;
* **local execution** — the engine's own work: joins over staged intermediate
  results, residual filters and final projection, charged per tuple examined
  or produced.

Cardinalities start from textbook default selectivities, but when the catalog
carries runtime feedback (:mod:`repro.engine.feedback`) the model consults the
observed row counts first — per ``(relation, predicate fingerprint)`` for
source requests and per join-set fingerprint for intermediates — falling back
to the defaults only when nothing has been observed yet.  Latency-derived
source costs come from each wrapper's latency profile, kept on its record in
the engine's resilience policy (:mod:`repro.engine.resilience`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.sources.base import SourceCapabilities

#: Default selectivity of one selection conjunct.
SELECTION_SELECTIVITY = 1.0 / 3.0
#: Default selectivity of an equi-join predicate.
EQUI_JOIN_SELECTIVITY = 1.0 / 10.0
#: Cost charged per tuple examined by a local operator.
LOCAL_TUPLE_COST = 0.01
#: Cost charged per tuple written to / read from temporary storage.
TEMP_TUPLE_COST = 0.005
#: Conversion between observed wall-clock seconds and abstract cost units,
#: used when a wrapper's latency profile overrides its static cost knobs.
COST_UNITS_PER_SECOND = 100.0


@dataclass
class CostEstimate:
    """A decomposed cost figure; ``total`` is what the planner compares."""

    source_execution: float = 0.0
    communication: float = 0.0
    local_execution: float = 0.0

    @property
    def total(self) -> float:
        return self.source_execution + self.communication + self.local_execution

    def add(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(
            source_execution=self.source_execution + other.source_execution,
            communication=self.communication + other.communication,
            local_execution=self.local_execution + other.local_execution,
        )

    def snapshot(self) -> Dict[str, float]:
        return {
            "source_execution": round(self.source_execution, 4),
            "communication": round(self.communication, 4),
            "local_execution": round(self.local_execution, 4),
            "total": round(self.total, 4),
        }


class CostModel:
    """Estimates cardinalities and costs for the planner."""

    def __init__(self, selection_selectivity: float = SELECTION_SELECTIVITY,
                 join_selectivity: float = EQUI_JOIN_SELECTIVITY,
                 local_tuple_cost: float = LOCAL_TUPLE_COST,
                 temp_tuple_cost: float = TEMP_TUPLE_COST,
                 feedback=None, resilience=None):
        self.selection_selectivity = selection_selectivity
        self.join_selectivity = join_selectivity
        self.local_tuple_cost = local_tuple_cost
        self.temp_tuple_cost = temp_tuple_cost
        #: Optional :class:`~repro.engine.feedback.CardinalityFeedback`;
        #: wired to the catalog's registry by the engine/planner.
        self.feedback = feedback
        #: Optional :class:`~repro.engine.resilience.ResiliencePolicy` whose
        #: per-wrapper latency profiles price source requests; wired by the
        #: engine.
        self.resilience = resilience

    # -- cardinalities -----------------------------------------------------------

    def selection_cardinality(self, base_rows: int, conjunct_count: int) -> int:
        """Estimated rows surviving ``conjunct_count`` pushed selection conjuncts."""
        estimate = float(max(base_rows, 0))
        for _ in range(conjunct_count):
            estimate *= self.selection_selectivity
        return max(int(round(estimate)), 1) if base_rows > 0 else 0

    def join_cardinality(self, left_rows: int, right_rows: int,
                         has_equi_join: Union[bool, int] = False,
                         equi_keys: Optional[int] = None) -> int:
        """Estimated size of a (possibly cartesian) join of two intermediates.

        ``equi_keys`` is the number of equi-join key pairs; the join
        selectivity is applied once *per key*, so a composite two-column key
        no longer over-estimates by treating the pair as a single predicate.
        ``has_equi_join`` is the legacy boolean form (one key when true).
        """
        keys = equi_keys if equi_keys is not None else int(bool(has_equi_join))
        product = float(max(left_rows, 0) * max(right_rows, 0))
        for _ in range(max(keys, 0)):
            product *= self.join_selectivity
        return max(int(round(product)), 1) if left_rows and right_rows else 0

    def request_cardinality(self, relation: str, base_rows: int, conjunct_count: int,
                            fingerprint: str = "") -> Tuple[int, str]:
        """Estimated result rows of one source request, with provenance.

        Returns ``(rows, source)`` where ``source`` is ``"feedback"`` when a
        runtime observation for the same (relation, predicate fingerprint)
        exists, ``"default"`` otherwise.
        """
        if self.feedback is not None:
            observed = self.feedback.request_rows(relation, fingerprint)
            if observed is not None:
                return max(int(observed), 0), "feedback"
        return self.selection_cardinality(base_rows, conjunct_count), "default"

    def join_rows_estimate(self, feedback_key: str, left_rows: int, right_rows: int,
                           equi_key_count: int, has_conditions: bool) -> Tuple[int, str]:
        """Estimated join-output rows, consulting feedback first."""
        if self.feedback is not None and feedback_key:
            observed = self.feedback.join_rows(feedback_key)
            if observed is not None:
                return max(int(observed), 0), "feedback"
        predicates = max(equi_key_count, 1 if has_conditions else 0)
        return self.join_cardinality(left_rows, right_rows, equi_keys=predicates), "default"

    # -- per-phase costs ------------------------------------------------------------

    def source_query_cost(self, capabilities: SourceCapabilities, base_rows: int,
                          result_rows: int, wrapper_name: Optional[str] = None) -> CostEstimate:
        """Cost of one pushed-down sub-query against one source.

        When ``wrapper_name``'s record has published a latency profile (at
        least three successful round trips), the measured per-request and
        per-row seconds override the static cost knobs wherever they are
        *worse* — a source that proved slow is priced as slow.
        """
        overhead = capabilities.query_overhead
        transfer = capabilities.transfer_cost_per_row
        if self.resilience is not None and wrapper_name:
            profile = self.resilience.profile(wrapper_name)
            if profile is not None:
                request_seconds, seconds_per_row = profile
                overhead = max(overhead, request_seconds * COST_UNITS_PER_SECOND)
                transfer = max(transfer, seconds_per_row * COST_UNITS_PER_SECOND)
        execution = overhead + capabilities.scan_cost_per_row * max(base_rows, 0)
        communication = transfer * max(result_rows, 0)
        return CostEstimate(source_execution=execution, communication=communication)

    def local_join_cost(self, left_rows: int, right_rows: int, hash_join: bool) -> CostEstimate:
        """Cost of joining two staged intermediates at the engine."""
        if hash_join:
            examined = max(left_rows, 0) + max(right_rows, 0)
        else:
            examined = max(left_rows, 0) * max(right_rows, 0)
        return CostEstimate(local_execution=examined * self.local_tuple_cost)

    def local_scan_cost(self, rows: int) -> CostEstimate:
        """Cost of one local pass over ``rows`` tuples (filter, project, sort...)."""
        return CostEstimate(local_execution=max(rows, 0) * self.local_tuple_cost)

    def staging_cost(self, rows: int) -> CostEstimate:
        """Cost of spooling an intermediate result into temporary storage."""
        return CostEstimate(local_execution=max(rows, 0) * self.temp_tuple_cost)
