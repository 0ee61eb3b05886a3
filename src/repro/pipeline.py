"""The staged query-lifecycle pipeline: parse → mediate → plan, compiled once.

The paper's mediator "intercepts a query … and rewrites it" before the
multi-database engine plans it.  :class:`QueryPipeline` compiles that once
per statement into a :class:`MediatedPlan` IR:

1. **parse** — SQL text becomes an AST once (a statement cache maps exact
   text to (AST, fingerprint)).  The fingerprint is a canonical AST digest
   (:mod:`repro.sql.normalize`) and the statement's one identity — for the
   compile cache, the root span and the slow-query log — so textually
   different but structurally identical statements share all later work.
2. **mediate** — the context mediator produces structured
   :class:`~repro.mediation.mediator.BranchQuery` objects.
3. **plan** — the branch SELECTs flow *directly* into the planner
   (``plan_branches``): no SQL re-parse, and structurally identical source
   requests across branches are shared at plan time.

One compile cache maps a statement's shape (fingerprint, receiver context,
mediate flag) to its newest plan, whose :class:`PlanCacheKey` records the
catalog and knowledge generations it was compiled against.  An entry is
served while current — both generations live, no feedback key it was priced
from retired — so a cached plan never reads a stale dictionary; any other
entry is recompiled in place, reusing its mediation while its knowledge
generation is live (mediation does not read the catalog).  The warm path
therefore performs **zero mediation and zero planning work**, observable
through the mediator's and engine's counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union as TUnion

from repro.engine.engine import MultiDatabaseEngine
from repro.engine.plan import QueryPlan
from repro.errors import SQLError
from repro.mediation.answers import ColumnAnnotation
from repro.mediation.mediator import ContextMediator, MediationResult
from repro.obs.cache import BoundedCache
from repro.obs.metrics import CounterSet
from repro.obs.trace import current_span
from repro.sql.ast import Select
from repro.sql.normalize import statement_fingerprint
from repro.sql.parser import parse

#: Bound on the exact-text statement cache (parse memo).
DEFAULT_STATEMENT_CACHE_SIZE = 512


@dataclass(frozen=True)
class PlanCacheKey:
    """What one compiled plan was compiled from: the statement's shape (AST
    fingerprint, receiver context, whether mediation ran at all) and the
    generation counters of the two knowledge stores it could otherwise read
    stale — the catalog's (wrapper/relation registration, source
    invalidation) and the :class:`~repro.coin.system.CoinSystem`'s (domain
    model, contexts, elevations, conversions)."""

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
    #: Per consistency mode, the plan ``ConsistentQueryExecutor.plan``
    #: compiled for this statement, carrying its report's ``consistency``
    #: block — kept here so it retires when this plan does.
    consistent: Dict[str, QueryPlan] = field(default_factory=dict)
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

    ``plan_cache_size`` bounds the compile cache, and
    ``statement_cache_size`` the statement cache; 0 disables the memo (every
    call recompiles) — the ablation baseline the benchmarks measure against.
    """

    def __init__(self, mediator: ContextMediator, engine: MultiDatabaseEngine,
                 plan_cache_size: int = 128,
                 statement_cache_size: int = DEFAULT_STATEMENT_CACHE_SIZE):
        self.mediator = mediator
        self.engine = engine
        #: Statement shape ``(fingerprint, receiver context, mediate)`` ->
        #: its newest :class:`MediatedPlan`, current or not.
        self.plan_cache = _cache(plan_cache_size)
        self._statements = _cache(statement_cache_size)
        self.statistics = CounterSet(PIPELINE_COUNTERS)

    # -- generations -------------------------------------------------------------

    @property
    def catalog_generation(self) -> int:
        return self.engine.catalog.generation

    @property
    def knowledge_generation(self) -> int:
        return self.mediator.system.generation

    def is_live(self, key: PlanCacheKey) -> bool:
        """True while ``key``'s generations match the live counters."""
        return (key.catalog_generation == self.catalog_generation
                and key.knowledge_generation == self.knowledge_generation)

    def is_current(self, plan: MediatedPlan) -> bool:
        """Live generations, and no feedback key consulted retired since."""
        return self.is_live(plan.key) and not self._retired_by_feedback(plan)

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
        """Run (or recall) the full pipeline for one receiver statement: its
        shape's entry while current, else that entry recompiled in place."""
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
        shape = (fingerprint, context, mediate)
        entry = self.plan_cache.get(shape) if self.plan_cache is not None else None
        live = entry is not None and self.is_live(entry.key)
        if live and not self._retired_by_feedback(entry):
            self.statistics.add(prepares=1, plan_hits=1)
            if recording:
                statement_span.annotate(fingerprint=fingerprint, pipeline="cached",
                                        plan_cache="hit")
            return entry
        # An entry of live generations that is not served was retired by
        # feedback alone.
        self.statistics.add(prepares=1, plan_misses=1, feedback_replans=int(live))
        if recording:
            statement_span.annotate(fingerprint=fingerprint)
            parse_span = statement_span.child("parse")
            parse_span.started_at = parse_started
            parse_span.ended_at = parse_ended
        key = PlanCacheKey(fingerprint, context, mediate, self.catalog_generation,
                           self.knowledge_generation)
        mediate_span = statement_span.child("mediate", mediate=mediate)
        try:
            mediation = self._mediate_stage(select, key, entry)
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
        if plan_span.recording:
            plan_span.annotate(branches=len(plan.branches),
                               signature=str(plan.signature()),
                               feedback_epoch=plan.feedback_epoch)
        plan_span.finish()
        if entry is not None and entry.plan.signature() != plan.signature():
            self.statistics.add(plan_changes=1)
        product = MediatedPlan(key=key, mediation=mediation, plan=plan,
                               feedback_epoch=plan.feedback_epoch)
        if self.plan_cache is not None:
            self.plan_cache.put(shape, product)
        return product

    def refresh(self, plan: MediatedPlan) -> MediatedPlan:
        """``plan`` while current (the prepared-query warm path), else its
        statement prepared again, which recompiles the stale entry."""
        if self.is_current(plan):
            return plan
        return self.prepare(plan.select, plan.receiver_context, mediate=plan.mediate)

    def mediate(self, query: TUnion[str, Select],
                receiver_context: Optional[str] = None) -> MediationResult:
        """The mediation stage alone (the QBE "show SQL" view): the compiled
        entry's mediation while its knowledge generation is live, else the
        mediator run uncached.  Nothing is planned, so a statement that
        mediates but cannot be planned still answers."""
        context = self.mediator.resolve_context(receiver_context)
        select, fingerprint = self._parse(query)
        current_span().annotate(fingerprint=fingerprint)
        entry = (self.plan_cache.peek((fingerprint, context, True))
                 if self.plan_cache is not None else None)
        if entry is not None and entry.key.knowledge_generation == self.knowledge_generation:
            return entry.mediation
        return self.mediator.mediate(select, context)

    def fingerprint(self, query: TUnion[str, Select]) -> Optional[str]:
        """``query``'s AST fingerprint, uncounted where the statement cache
        holds it; a statement mediation rejects (a receiver UNION) has one
        too.  None only for text that does not parse as a SELECT or UNION."""
        if isinstance(query, str) and self._statements is not None:
            entry = self._statements.peek(query)
            if entry is not None:
                return entry[1]
        try:
            return statement_fingerprint(parse(query) if isinstance(query, str) else query)
        except SQLError:
            return None

    # -- stages ------------------------------------------------------------------

    def _parse(self, query: TUnion[str, Select]) -> Tuple[Select, str]:
        statements = self._statements if isinstance(query, str) else None
        hit = statements.get(query) if statements is not None else None
        if hit is not None:
            return hit
        select = self.mediator.as_select(query)
        entry = (select, statement_fingerprint(select))
        if statements is not None:
            statements.put(query, entry)
        return entry

    def _mediate_stage(self, select: Select, key: PlanCacheKey,
                       entry: Optional[MediatedPlan]) -> MediationResult:
        if not key.mediate:
            # The passthrough runs no conflict detection and no abduction;
            # it is cheap enough to run uncounted every time.
            return self.mediator.unmediated(select, key.receiver_context)
        if entry is not None and entry.key.knowledge_generation == key.knowledge_generation:
            # Mediation does not read the catalog: only knowledge stales it.
            self.statistics.add(mediation_hits=1)
            return entry.mediation
        self.statistics.add(mediation_misses=1)
        return self.mediator.mediate(select, key.receiver_context)

    def _plan_stage(self, mediation: MediationResult) -> QueryPlan:
        selects = ([branch.select for branch in mediation.branches]
                   or [mediation.original])
        return self.engine.plan_branches(selects, statement=mediation.mediated)

    def snapshot(self) -> Dict[str, object]:
        data: Dict[str, object] = self.statistics.snapshot()
        if self._statements is not None:
            data["statement_cache_hits"] = self._statements.statistics.hits
        if self.plan_cache is not None:
            data["plan_cache"] = self.plan_cache.snapshot()
        return data


def _cache(capacity: int) -> Optional[BoundedCache]:
    """A memo of ``capacity`` entries, or None where 0 disables it."""
    return BoundedCache(capacity) if capacity > 0 else None
