"""The staged query-lifecycle pipeline: parse → mediate → plan, compiled once.

The paper's mediator "intercepts a query … and rewrites it" before the
multi-database engine plans it.  The seed implementation made that handoff an
SQL-text round trip: the rewriter assembled a UNION statement, the engine
re-parsed its structure, and every call re-paid conflict detection, abduction
and planning even for a statement it had answered a moment earlier.

:class:`QueryPipeline` replaces that with a staged compilation pipeline over
a shared :class:`MediatedPlan` IR:

1. **parse** — SQL text becomes an AST once; a statement cache maps
   exact text to (AST, fingerprint) so repeated receiver statements skip the
   lexer entirely.  Fingerprints are canonical AST digests
   (:mod:`repro.sql.normalize`), so textually different but structurally
   identical statements share all downstream work.
2. **mediate** — the context mediator produces structured
   :class:`~repro.mediation.mediator.BranchQuery` objects; results are
   memoized per (fingerprint, receiver context, knowledge generation).
3. **plan** — the branch SELECTs flow *directly* into the planner
   (``plan_branches``): no SQL re-parse, no re-discovery of branch
   boundaries, and structurally identical source requests across branches
   are shared at plan time.  The finished :class:`MediatedPlan` is memoized
   per (fingerprint, receiver context, mediate flag, catalog generation,
   knowledge generation): a :class:`PlanCacheKey`.

Each of the three memos is a :class:`~repro.obs.cache.BoundedCache`.
Because the generation counters are part of every cache key, a wrapper
(re)registration, a source invalidation or a knowledge-base change makes all
previously cached artifacts unreachable — cached plans can never read a
stale dictionary — and the LRU bound retires them
(:meth:`QueryPipeline.prune_stale` frees them eagerly).  The warm path — the
dominant serving pattern of repeated receiver queries — therefore performs
**zero mediation and zero planning work**, observable through the
mediator's and engine's counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union as TUnion

from repro.engine.engine import MultiDatabaseEngine
from repro.engine.plan import QueryPlan
from repro.mediation.answers import ColumnAnnotation
from repro.mediation.mediator import ContextMediator, MediationResult
from repro.obs.cache import BoundedCache
from repro.obs.metrics import CounterSet
from repro.obs.trace import current_span
from repro.sql.ast import Select
from repro.sql.normalize import statement_fingerprint

#: Bound on the exact-text statement cache (parse memo).
DEFAULT_STATEMENT_CACHE_SIZE = 512
#: Bound on the last-plan-shape-per-statement map (plan-change detection).
PLAN_SHAPES_SIZE = 256


@dataclass(frozen=True)
class PlanCacheKey:
    """The canonical identity of one cached mediation/planning product: the
    statement's AST fingerprint (:mod:`repro.sql.normalize`), the receiver
    context, whether mediation ran at all, and the generation counters of the
    two knowledge stores a cached artifact could otherwise read stale — the
    catalog's (wrapper/relation registration, source invalidation) and the
    :class:`~repro.coin.system.CoinSystem`'s (domain model, contexts,
    elevations, conversions)."""

    fingerprint: str
    receiver_context: str
    mediate: bool
    catalog_generation: int
    knowledge_generation: int


@dataclass
class MediatedPlan:
    """The pipeline's IR: one statement, mediated and planned, versioned.

    Everything downstream needs is here — the structured mediation (branch
    queries, column semantics, explanations) and the executable plan — plus
    the cache key whose generation counters say which catalog/knowledge state
    the artifact was compiled against.
    """

    key: PlanCacheKey
    mediation: MediationResult
    plan: QueryPlan
    #: The newest feedback epoch the plan is known to have survived: priced
    #: under it, or found untouched by every retirement up to it.
    feedback_epoch: int = 0
    #: Per consistency mode, what ``ConsistentQueryExecutor.plan`` compiled for
    #: this statement — kept here so it retires when this plan does.
    consistent: Dict[str, Tuple[Optional[QueryPlan], Optional[Dict[str, object]]]] = field(
        default_factory=dict)
    #: Receiver-context column annotations, per result column names (a
    #: consistency mode's plan may name them differently), made once and
    #: retired with this plan.  ``FederationCursor.annotations`` fills it.
    annotations: Dict[Tuple[str, ...], Tuple[ColumnAnnotation, ...]] = field(
        default_factory=dict)

    @property
    def fingerprint(self) -> str:
        return self.key.fingerprint

    @property
    def receiver_context(self) -> str:
        return self.key.receiver_context

    @property
    def mediate(self) -> bool:
        return self.key.mediate

    @property
    def select(self) -> Select:
        """The original receiver statement this plan answers."""
        return self.mediation.original

    @property
    def column_semantics(self):
        """Per-column semantic types (consumed by answer annotation, both for
        materialized answers and for streaming cursors)."""
        return self.mediation.column_semantics


#: One pipeline's lifetime counters: (field, kind, exported series, help).
#: ``feedback_replans`` counts re-plans of a cached statement caused purely by
#: a material error on a feedback key it consulted; ``plan_changes`` re-plans
#: (any cause) whose join order / bind decisions actually differ.
PIPELINE_COUNTERS = (
    ("prepares", "sum", "pipeline_prepares_total",
     "Statements taken through the compilation pipeline."),
    # Counted by the statement cache itself; ``snapshot`` reads it there.
    ("statement_cache_hits", "sum", None, ""),
    ("plan_hits", "sum", "pipeline_plan_hits_total",
     "Plan-cache hits (zero mediation + planning work)."),
    ("plan_misses", "sum", "pipeline_plan_misses_total",
     "Plan-cache misses (full mediate + plan)."),
    ("mediation_hits", "sum", "pipeline_mediation_hits_total",
     "Mediation-cache hits."),
    ("mediation_misses", "sum", "pipeline_mediation_misses_total",
     "Mediation-cache misses."),
    ("feedback_replans", "sum", "pipeline_feedback_replans_total",
     "Recompilations forced by a cardinality-feedback epoch bump."),
    ("plan_changes", "sum", None, ""),
)


class QueryPipeline:
    """Compiles receiver statements into :class:`MediatedPlan` objects.

    ``plan_cache_size`` bounds the mediation and the plan cache, and
    ``statement_cache_size`` the statement cache; 0 disables the memo (every
    call recompiles) — the ablation baseline the benchmarks measure against.
    """

    def __init__(self, mediator: ContextMediator, engine: MultiDatabaseEngine,
                 plan_cache_size: int = 128,
                 statement_cache_size: int = DEFAULT_STATEMENT_CACHE_SIZE):
        self.mediator = mediator
        self.engine = engine
        self.plan_cache = _cache(plan_cache_size)
        self.mediation_cache = _cache(plan_cache_size)
        self._statements = _cache(statement_cache_size)
        # Last plan shape per statement shape, for plan-change detection.
        self._plan_shapes = BoundedCache(PLAN_SHAPES_SIZE)
        self.statistics = CounterSet(PIPELINE_COUNTERS)

    # -- generations -------------------------------------------------------------

    @property
    def catalog_generation(self) -> int:
        return self.engine.catalog.generation

    @property
    def knowledge_generation(self) -> int:
        return self.mediator.system.generation

    def is_current(self, plan: MediatedPlan) -> bool:
        """True while the plan's generations match the live counters and no
        feedback key it consulted was retired since it was priced."""
        return (plan.key.catalog_generation == self.catalog_generation
                and plan.key.knowledge_generation == self.knowledge_generation
                and not self._retired_by_feedback(plan))

    def _retired_by_feedback(self, plan: MediatedPlan) -> bool:
        """Whether a material estimation error hit a key ``plan`` was priced
        from.  The steady state — no error since the last look — is one
        integer comparison; otherwise the plan's keys are checked once and it
        is marked as having survived up to the epoch read beforehand."""
        feedback = self.engine.catalog.feedback
        epoch = feedback.epoch
        if plan.feedback_epoch == epoch:
            return False
        if feedback.retired_since(plan.plan.feedback_keys, plan.feedback_epoch):
            return True
        plan.feedback_epoch = epoch
        return False

    # -- the staged pipeline -----------------------------------------------------

    def prepare(self, query: TUnion[str, Select], receiver_context: Optional[str] = None,
                mediate: bool = True) -> MediatedPlan:
        """Run (or recall) the full pipeline for one receiver statement."""
        statement_span = current_span()
        recording = statement_span.recording
        context = self.mediator.resolve_context(receiver_context)
        # Parse runs before the cache probe (the probe needs the statement
        # fingerprint), so its span is created *retroactively* on a cache
        # miss: a warm statement — the overwhelming steady state — gets a
        # root annotation instead of two probe-only child spans, keeping
        # full tracing cheap on the hot path.
        parse_started = statement_span.tracer._now() if recording else None
        select, fingerprint = self._parse(query)
        parse_ended = statement_span.tracer._now() if recording else None
        key = PlanCacheKey(
            fingerprint=fingerprint,
            receiver_context=context,
            mediate=mediate,
            catalog_generation=self.catalog_generation,
            knowledge_generation=self.knowledge_generation,
        )
        cached = self.plan_cache.get(key) if self.plan_cache is not None else None
        if cached is not None and not self._retired_by_feedback(cached):
            self.statistics.add(prepares=1, plan_hits=1)
            if recording:
                statement_span.annotate(pipeline="cached", plan_cache="hit")
            return cached
        # A cached plan that is not served was retired by feedback alone.
        self.statistics.add(prepares=1, plan_misses=1,
                            feedback_replans=int(cached is not None))
        if recording:
            parse_span = statement_span.child("parse")
            parse_span.started_at = parse_started
            parse_span.ended_at = parse_ended

        mediate_span = statement_span.child("mediate", mediate=mediate)
        try:
            mediation = self._mediate_stage(select, key)
        except BaseException as exc:
            mediate_span.finish(error=exc)
            raise
        mediate_span.annotate(branches=len(mediation.branches))
        mediate_span.finish()
        plan_span = statement_span.child("plan", cache="miss")
        try:
            plan = self._plan_stage(mediation)
        except BaseException as exc:
            plan_span.finish(error=exc)
            raise
        plan_span.annotate(branches=len(plan.branches), signature=str(plan.signature()),
                           feedback_epoch=plan.feedback_epoch)
        plan_span.finish()
        product = MediatedPlan(key=key, mediation=mediation, plan=plan,
                               feedback_epoch=plan.feedback_epoch)
        self._note_plan_shape(key, plan)
        if self.plan_cache is not None:
            self.plan_cache.put(key, product)
        return product

    def _note_plan_shape(self, key: PlanCacheKey, plan: QueryPlan) -> None:
        """Track plan shape per statement shape; count re-plans that changed it."""
        base = (key.fingerprint, key.receiver_context, key.mediate)
        signature = plan.signature()
        previous = self._plan_shapes.peek(base)
        self._plan_shapes.put(base, signature)
        if previous is not None and previous != signature:
            self.statistics.add(plan_changes=1)

    def refresh(self, plan: MediatedPlan) -> MediatedPlan:
        """Revalidate a (possibly stale) plan against the live generations.

        A current plan is returned as-is — the prepared-query warm path.  A
        stale one is transparently recompiled from its original statement.
        """
        if self.is_current(plan):
            return plan
        return self.prepare(plan.select, plan.receiver_context, mediate=plan.mediate)

    def mediate(self, query: TUnion[str, Select],
                receiver_context: Optional[str] = None) -> MediationResult:
        """The mediation stage alone (the QBE "show SQL" view)."""
        context = self.mediator.resolve_context(receiver_context)
        select, fingerprint = self._parse(query)
        key = PlanCacheKey(
            fingerprint=fingerprint,
            receiver_context=context,
            mediate=True,
            catalog_generation=0,  # mediation does not read the catalog
            knowledge_generation=self.knowledge_generation,
        )
        return self._cached_mediation(select, key)

    # -- stages ------------------------------------------------------------------

    def _parse(self, query: TUnion[str, Select]) -> Tuple[Select, str]:
        if not isinstance(query, str):
            select = self.mediator.as_select(query)
            return select, statement_fingerprint(select)
        statements = self._statements
        if statements is not None:
            hit = statements.get(query)
            if hit is not None:
                return hit
        select = self.mediator.as_select(query)
        entry = (select, statement_fingerprint(select))
        if statements is not None:
            statements.put(query, entry)
        return entry

    def _mediate_stage(self, select: Select, key: PlanCacheKey) -> MediationResult:
        if not key.mediate:
            # The passthrough runs no conflict detection and no abduction;
            # it is cheap enough to skip the memo entirely.
            mediation = self.mediator.unmediated(select, key.receiver_context)
            mediation.fingerprint = key.fingerprint
            return mediation
        mediation_key = PlanCacheKey(
            fingerprint=key.fingerprint,
            receiver_context=key.receiver_context,
            mediate=True,
            catalog_generation=0,  # mediation does not read the catalog
            knowledge_generation=key.knowledge_generation,
        )
        return self._cached_mediation(select, mediation_key)

    def _cached_mediation(self, select: Select, key: PlanCacheKey) -> MediationResult:
        if self.mediation_cache is not None:
            cached = self.mediation_cache.get(key)
            if cached is not None:
                self.statistics.add(mediation_hits=1)
                return cached
        self.statistics.add(mediation_misses=1)
        mediation = self.mediator.mediate(select, key.receiver_context)
        mediation.fingerprint = key.fingerprint
        if self.mediation_cache is not None:
            self.mediation_cache.put(key, mediation)
        return mediation

    def _plan_stage(self, mediation: MediationResult) -> QueryPlan:
        if mediation.branches:
            selects = [branch.select for branch in mediation.branches]
        else:
            selects = [mediation.original]
        return self.engine.plan_branches(selects, statement=mediation.mediated)

    # -- maintenance ---------------------------------------------------------------

    def clear(self) -> int:
        """Drop every memoized mediation and plan; returns the drop count."""
        return sum(len(cache.drop()) for cache in
                   (self.plan_cache, self.mediation_cache) if cache is not None)

    def prune_stale(self) -> int:
        """Eagerly free entries from generations that can no longer be read."""
        catalog, knowledge = self.catalog_generation, self.knowledge_generation
        dropped = 0
        if self.plan_cache is not None:
            dropped += len(self.plan_cache.drop(
                lambda key: key.catalog_generation != catalog
                or key.knowledge_generation != knowledge))
        if self.mediation_cache is not None:
            dropped += len(self.mediation_cache.drop(
                lambda key: key.knowledge_generation != knowledge))
        return dropped

    def snapshot(self) -> Dict[str, object]:
        data: Dict[str, object] = self.statistics.snapshot()
        if self._statements is not None:
            data["statement_cache_hits"] = self._statements.statistics.hits
        if self.plan_cache is not None:
            data["plan_cache"] = self.plan_cache.snapshot()
        if self.mediation_cache is not None:
            data["mediation_cache"] = self.mediation_cache.snapshot()
        return data


def _cache(capacity: int) -> Optional[BoundedCache]:
    """A memo of ``capacity`` entries, or None where 0 disables it."""
    return BoundedCache(capacity) if capacity > 0 else None
