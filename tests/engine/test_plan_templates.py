"""Physical plan templates: lifetime, catalogued schemas and sharing.

A plan's template (``QueryPlan.template``) holds what its executions share —
request keys, the optimizer preamble, per branch the stages and the operator
tree, lowered from the schemas the branch's requests are catalogued to ship.
Pinned here:

* **lifetime** — the template hangs off the cached plan object, so whatever
  retires the plan (catalog generation, knowledge generation, a material
  error on a feedback key it consulted) yields a fresh template, and a warm
  statement reuses the one it has;
* **the catalogued schema** — a shipment is fitted to the columns the
  branch was lowered against: permuted columns are picked by name and extra
  ones dropped, the template kept; a shipment lacking a catalogued column is
  refused, never read at a stale position;
* **the subquery rule** — a branch whose kernels fold a subquery keeps no
  lowering, stages included: each execution folds for itself;
* **sharing** — concurrent executions of one cached plan, spilling under a
  64 KiB budget, agree with the serial answer and leave nothing behind;
* **kept builds** — a hash join over a staged request-cache hit keeps its
  second in-memory build over that hit with the template (the first only
  names the hit) and later executions probe it; whatever
  makes the cache drop or replace the entry frees it, and bound requests,
  uncached fetches and subquery-bearing branches keep nothing;
* bind-join plans and partial answers over a dead source execute from a
  template exactly as they did the first time;
* **the root** — a union, the statement's finish over it, a constraint
  check's anti-join or a repair enumeration lowers once with the template,
  over placeholders for the branches, and every later execution binds a
  copy that answers exactly as the first.
"""

import sys
import threading

import pytest

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.engine.engine import MultiDatabaseEngine
from repro.engine.planner import PlannerConfig
from repro.engine.request_cache import SourceResultCache
from repro.consistency import InclusionDependency, PrimaryKey
from repro.engine.resilience import ResiliencePolicy, RetryPolicy
from repro.errors import EvaluationError, ExecutionError
from repro.relational import algebra
from repro.relational.algebra import left_deep
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.sources.base import SourceCapabilities
from repro.sources.faults import FaultInjectingSource, FaultSchedule
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper

from tests.consistency.fedbuild import build_consistency_federation
from tests.engine.test_report_snapshot import _masked


def _source(name, table, columns, values):
    source = MemorySQLSource(name)
    source.load_sql(f"CREATE TABLE {table} ({columns})",
                    f"INSERT INTO {table} VALUES {values}")
    return source


def _two_source_engine(rows=40, **kwargs):
    engine = MultiDatabaseEngine(**kwargs)
    for name in ("t", "u"):
        values = ", ".join(f"({index}, {float((index * 37) % 100)}, '{'xyz'[index % 3]}')"
                           for index in range(rows))
        engine.register_wrapper(
            RelationalWrapper(_source(f"db_{name}", name, "a integer, v float, b varchar", values)),
            estimate_rows=False)
    return engine


JOIN = "SELECT t.a, u.v FROM t, u WHERE t.a = u.a AND t.v <= u.v ORDER BY 2, 1"


def _kept(plan, branch=0):
    """The operator template the branch keeps (None before its first run)."""
    kept = plan.template.branches[branch]._lowered
    return None if kept is None else kept[1]


def _probed_key(plan):
    """The request key of the first branch's first probed (right) transfer."""
    probed = left_deep(plan.branches[0].tree)[0][1]
    bindings = [request.transfer.binding for request in plan.branches[0].requests]
    return plan.template.keys[0][bindings.index(probed.binding)]


def _joins(plan, branch=0):
    """The hash joins of the branch's kept operator template, root first."""
    found, pending = [], [_kept(plan, branch)]
    while pending:
        operator = pending.pop()
        if operator.operator_name == "HashJoin":
            found.append(operator)
        pending.extend(operator.children)
    return found


class TestLifetime:
    def test_a_warm_statement_reuses_its_plans_template(self):
        federation = build_paper_federation().federation
        first = federation.query(PAPER_QUERY).execution.plan
        lowered = [_kept(first, index) for index in range(len(first.branches))]
        assert all(operators is not None for operators in lowered)
        second = federation.query(PAPER_QUERY).execution.plan
        assert second is first
        assert [_kept(second, index) for index in range(len(second.branches))] == lowered

    @pytest.mark.parametrize("retire", ["catalog", "knowledge", "feedback"])
    def test_what_retires_the_plan_retires_the_template(self, retire):
        federation = build_paper_federation().federation
        before = federation.query(PAPER_QUERY)
        if retire == "catalog":
            federation.invalidate_source_cache(relation="r1")
        elif retire == "knowledge":
            federation.system.contexts.get("c_receiver").declare_constant(
                "companyFinancials", "scaleFactor", 1)
        else:
            federation.engine.catalog.feedback.record_request(
                "r2", "", 10_000, planned_rows=10)
        after = federation.query(PAPER_QUERY)
        assert after.execution.plan is not before.execution.plan
        assert after.execution.plan.template is not before.execution.plan.template
        assert _kept(after.execution.plan) is not _kept(before.execution.plan)
        assert after.relation.rows == before.relation.rows

    def test_a_replanned_statement_recalls_its_kernels_from_the_shared_table(self):
        from repro.relational import compile as compile_module

        engine = _two_source_engine(request_cache=SourceResultCache(capacity=8))
        engine.execute(JOIN)  # sources compile their pushed SQL into _MEMO
        plan = engine.plan(JOIN)
        engine.execute(plan)  # all fetches cached: only the mediator lowers
        before = len(compile_module._MEMO)
        fresh = engine.plan(JOIN)
        engine.execute(fresh)
        assert _kept(fresh) is not None and _kept(fresh) is not _kept(plan)
        # New plan, new trees, new template memo — the same structures.
        assert len(compile_module._MEMO) == before
        first, second = (plan.template.branches[0]._lowered[1],
                         fresh.template.branches[0]._lowered[1])
        assert first is not second and first.explain() == second.explain()


class _ShiftingWrapper(RelationalWrapper):
    """Ships relation ``t`` in the columns ``self.order`` names, in that
    order; a name ``t`` lacks ships as a column of NULLs."""

    order = ("a", "v", "b")

    def _reshape(self, relation):
        schema = relation.schema
        positions = [schema.index_of(name) if schema.has(name) else None
                     for name in self.order]
        reshaped = Relation(Schema(
            Attribute(name) if position is None else schema[position]
            for name, position in zip(self.order, positions)), name=relation.name)
        reshaped.rows = [tuple(None if position is None else row[position]
                               for position in positions)
                         for row in relation.rows]
        return reshaped

    def fetch(self, relation):
        return self._reshape(super().fetch(relation))

    def query(self, statement):
        return self._reshape(super().query(statement))


class TestSchemaGuard:
    QUERY = ("SELECT t.b, t.a, u.v FROM t, u WHERE t.a = u.a AND t.b <> 'x' "
             "ORDER BY t.a")

    def _engine(self):
        engine = MultiDatabaseEngine()
        values = ", ".join(f"({index}, {float(index % 7)}, '{'xyz'[index % 3]}')"
                           for index in range(30))
        t = MemorySQLSource("db_t", capabilities=SourceCapabilities.scan_only())
        t.load_sql("CREATE TABLE t (a integer, v float, b varchar)",
                   f"INSERT INTO t VALUES {values}")
        wrapper = _ShiftingWrapper(t)
        engine.register_wrapper(wrapper, estimate_rows=False)
        engine.register_wrapper(RelationalWrapper(
            _source("db_u", "u", "a integer, v float, b varchar", values)),
            estimate_rows=False)
        return engine, wrapper

    @pytest.mark.parametrize("order", [("b", "v", "a"), ("v", "x", "a", "b")],
                             ids=["permuted", "extra"])
    def test_a_shipment_in_other_columns_is_fitted_to_the_template(self, order):
        engine, wrapper = self._engine()
        plan = engine.plan(self.QUERY)
        expected = list(engine.execute(plan).relation.rows)
        assert expected and all(row[0] in "yz" for row in expected)
        first = _kept(plan)

        wrapper.order = order  # other positions, and an extra column
        for _ in range(2):
            assert list(engine.execute(plan).relation.rows) == expected
            assert _kept(plan) is first  # no re-lowering, no stale position

    def test_a_shipment_lacking_a_catalogued_column_is_refused(self):
        engine, wrapper = self._engine()
        wrapper.order = ("a", "b")
        stream = engine.execute_stream(engine.plan(self.QUERY))
        with pytest.raises(ExecutionError) as raised:
            stream.fetchall()
        message = str(raised.value)
        assert "'db_t'" in message and "FETCH t" in message
        assert "['a', 'b']" in message and "['a', 'v', 'b']" in message
        assert stream.closed and stream.report.rows_streamed == 0
        assert engine.temp_store.handles == []

    def test_equal_schemas_from_fresh_objects_keep_the_template(self):
        engine, _wrapper = self._engine()  # reshapes: a new Schema per fetch
        plan = engine.plan("SELECT t.a FROM t WHERE t.v > 3")
        first_rows = list(engine.execute(plan).relation.rows)
        first = _kept(plan)
        assert list(engine.execute(plan).relation.rows) == first_rows
        assert _kept(plan) is first


class TestSubqueryRule:
    def test_a_subquery_bearing_branch_never_reuses_a_folded_result(self):
        engine = _two_source_engine(request_cache=SourceResultCache(capacity=8))
        plan = engine.plan("SELECT t.a, (SELECT 7) AS seven FROM t, u "
                           "WHERE t.a = u.a AND t.a < 3")
        runs = []
        original = engine.subquery_executor

        def counting(select):
            runs.append(select)
            return original(select)

        engine.subquery_executor = counting
        for execution in (1, 2, 3):
            rows = sorted(engine.execute(plan).relation.rows)
            assert rows == [(0, 7), (1, 7), (2, 7)]
            assert len(runs) == execution  # folded anew by every execution
            assert _kept(plan) is None  # handed out, never kept
        # Nor are the stages lowered with it: a private lowering keeps nothing.
        assert plan.template.branches[0]._lowered is None


class TestSharing:
    THREADS = 8

    # 64 KiB: the join's build (1500 rows, ~110 KB) spills in every execution
    # and nothing is kept.  192 KiB: it fits, is kept and shared while the
    # sort above it spills — each thread reserving the kept bytes on its own.
    @pytest.mark.parametrize("budget", [64 * 1024, 192 * 1024])
    def test_concurrent_executions_of_one_cached_plan(self, budget):
        engine = _two_source_engine(
            rows=1500, memory_budget_bytes=budget,
            request_cache=SourceResultCache(capacity=8))
        plan = engine.plan("SELECT DISTINCT t.b, u.v FROM t, u WHERE t.a = u.a "
                           "ORDER BY 2 DESC, 1")
        serial = engine.execute(plan)
        expected = list(serial.relation.rows)
        assert serial.report.spill_count > 0 and len(expected) > 100
        keeps = budget > 64 * 1024
        assert _joins(plan)[0].spilled is False  # the template itself never runs

        outcomes, shared, barrier = [], [], threading.Barrier(self.THREADS)

        def worker():
            try:
                barrier.wait(timeout=30)
                for _ in range(3):
                    stream = engine.execute_stream(plan)
                    rows = stream.fetchall()
                    stream.close()
                    outcomes.append((rows == expected, stream.budget.used_bytes,
                                     stream.report.spill_count,
                                     stream.report.peak_memory_bytes))
                    shared.append(stream.report.join_builds_shared)
            except Exception as exc:  # noqa: BLE001 - reported below
                outcomes.append(repr(exc))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [(True, 0, serial.report.spill_count,
                             serial.report.peak_memory_bytes)] * (3 * self.THREADS)
        assert engine.temp_store.handles == []
        # Racing first executions only name the origin; racing second ones may
        # each build and keep (one result stays); every third one probes.
        # Buckets are read-only, so nobody saw another's.
        assert set(shared) <= {0, 1} and (keeps or not any(shared))
        assert not keeps or sum(shared) >= self.THREADS
        assert engine.execute(plan).report.join_builds_shared == int(keeps)
        assert (_joins(plan)[0]._kept.build is not None) == keeps

    def test_racing_first_executions_through_the_federation(self):
        federation = build_paper_federation().federation
        expected = federation.query(PAPER_QUERY).relation.rows
        federation.invalidate_source_cache()  # next execution is a plan miss
        answers, barrier = [], threading.Barrier(self.THREADS)

        def worker():
            barrier.wait(timeout=30)
            with federation.query(PAPER_QUERY, stream=True) as cursor:
                answers.append(cursor.fetchall())

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * self.THREADS
        assert federation.engine.temp_store.handles == []
        statistics = federation.engine.statistics.snapshot()
        assert statistics["streams_opened"] == self.THREADS


class TestKeptBuilds:
    """The slot lives on the template's ``HashJoin`` (``_kept``), names its
    origin weakly, and is only ever filled from a staged request-cache hit —
    and only by the second build over that hit, so a plan that runs once
    keeps nothing."""

    def _warm(self, **kwargs):
        engine = _two_source_engine(
            rows=300, request_cache=SourceResultCache(capacity=4), **kwargs)
        plan = engine.plan(JOIN)
        reports, slots = [], []
        for _ in range(4):
            reports.append(engine.execute(plan).report)
            (join,) = _joins(plan)
            build = join._kept.build
            slots.append("empty" if build is None
                         else "origin" if build[1] is None else "buckets")
        # Miss (plain fetches: no origin), first hit (builds, names the
        # origin), second hit (builds, keeps), probe.
        assert [report.join_builds_shared for report in reports] == [0, 0, 0, 1]
        assert slots == ["empty", "origin", "buckets", "buckets"]
        assert len({report.peak_memory_bytes for report in reports}) == 1
        return engine, plan, join

    def test_a_plan_run_once_over_a_cache_hit_keeps_no_buckets(self):
        engine = _two_source_engine(
            rows=300, request_cache=SourceResultCache(capacity=4))
        engine.execute(JOIN)  # fills the request cache
        plan = engine.plan(JOIN)
        assert engine.execute(plan).report.cache_hits == 2
        origin, buckets, rows, nbytes = _joins(plan)[0]._kept.build
        assert origin() is not None and (buckets, rows, nbytes) == (None, 0, 0)

    def test_a_warm_statement_probes_the_kept_build(self):
        engine, plan, join = self._warm()
        origin, buckets, rows, nbytes = join._kept.build
        assert rows == 300 and sum(map(len, buckets.values())) == 300
        first = engine.execute(plan)
        assert join._kept.build[1] is buckets  # probed, not rebuilt
        assert first.report.peak_memory_bytes >= nbytes > 0
        assert engine.statistics.snapshot()["join_builds_shared"] == 2
        # The rows are the cache entry's own tuples: keeping the buckets
        # retains containers, never a second copy of the data.
        assert {id(row) for bucket in buckets.values() for row in bucket} == {
            id(row) for row in origin().rows}

    @pytest.mark.parametrize("drop", ["invalidate", "put", "evict"])
    def test_what_drops_the_cache_entry_frees_the_slot_and_forces_a_rebuild(self, drop):
        import gc

        engine, plan, join = self._warm()
        expected = list(engine.execute(plan).relation.rows)
        origin = join._kept.build[0]
        cache = engine.request_cache
        key = _probed_key(plan)
        assert origin() is cache._entries[key]
        gc.disable()  # the slot must empty by reference count alone
        try:
            if drop == "invalidate":
                engine.invalidate_source_cache()
            elif drop == "put":
                cache.put(key, origin())  # the same rows, another entry
            else:
                for index in range(cache.capacity):
                    cache.put(key._replace(text=f"filler {index}"), origin())
            assert origin() is None and join._kept.build is None
        finally:
            gc.enable()
        reports = [engine.execute(plan) for _ in range(3)]
        # A replaced entry is hit at once (name it, keep, probe); a dropped
        # one is fetched anew first, and a plain fetch names no origin.
        assert [result.report.join_builds_shared for result in reports] == (
            [0, 0, 1] if drop == "put" else [0, 0, 0])
        assert all(list(result.relation.rows) == expected for result in reports)
        del reports  # a report pins its bound operators, and so the origin
        assert join._kept.build[0]() is cache._entries[key]

    def test_a_cache_entry_that_changed_is_never_answered_from_old_buckets(self):
        engine, plan, join = self._warm()
        key = _probed_key(plan)
        entry = engine.request_cache._entries[key]
        halved = Relation(entry.schema, name=entry.name)
        halved.rows = entry.rows[::2]
        del entry
        engine.request_cache.put(key, halved)
        answers = [engine.execute(plan) for _ in range(3)]
        assert [len(answer.relation.rows) for answer in answers] == [150] * 3
        assert [answer.report.join_builds_shared for answer in answers] == [0, 0, 1]

    def test_uncached_and_undeduplicated_fetches_keep_nothing(self):
        for kwargs in ({}, {"request_cache": SourceResultCache(capacity=4),
                            "deduplicate_requests": False}):
            engine = _two_source_engine(rows=60, **kwargs)
            plan = engine.plan(JOIN)
            reports = [engine.execute(plan).report for _ in range(3)]
            assert [report.join_builds_shared for report in reports] == [0, 0, 0]
            assert _joins(plan)[0]._kept.build is None

    def test_bound_requests_keep_nothing(self):
        engine = MultiDatabaseEngine(
            planner_config=PlannerConfig(bind_join_batch_size=2),
            request_cache=SourceResultCache(capacity=16))
        hot = ", ".join(f"({key}, 'hot')" for key in (1, 2, 3))
        engine.register_wrapper(RelationalWrapper(
            _source("drv", "d", "k integer, tag varchar", f"{hot}, (21, 'cold')")))
        orders = ", ".join(f"({key}, {key * 100 + i})"
                           for key in range(1, 31) for i in range(10))
        engine.register_wrapper(RelationalWrapper(
            _source("ord", "o", "k integer, v integer", orders)))
        query = "SELECT o.v FROM d, o WHERE d.k = o.k AND d.tag = 'hot'"
        engine.execute(query)  # cold: feedback enables binding
        plan = engine.plan(query)
        assert plan.branches[0].requests[1].bind is not None
        reports = [engine.execute(plan).report for _ in range(3)]
        # Every batch is a cache hit by now, but what is staged is their
        # concatenation under this execution's key set: it names no origin.
        assert reports[-1].cache_hits == reports[-1].distinct_requests == 3
        assert [report.join_builds_shared for report in reports] == [0, 0, 0]
        assert _joins(plan)[0]._kept.build is None

    def test_a_subquery_bearing_branch_keeps_nothing(self):
        engine = _two_source_engine(request_cache=SourceResultCache(capacity=8))
        plan = engine.plan("SELECT t.a, (SELECT 7) AS seven FROM t, u "
                           "WHERE t.a = u.a AND t.a < 3")
        reports = [engine.execute(plan).report for _ in range(3)]
        assert _kept(plan) is None  # lowered per execution: no slot survives one
        assert [report.join_builds_shared for report in reports] == [0, 0, 0]


def _chain(operator):
    """Operator names of a unary pipeline, leaf first."""
    names = []
    while True:
        names.append(operator.operator_name)
        if not operator.children:
            return names[::-1]
        operator = operator.children[0]


class TestOneFinish:
    """``lower_select`` builds the one finish; the local processor
    (``test_query.py``), the eager drain and the cursor all execute it, and
    the report lists its operators, a grouped branch's included."""

    HAVING = "SELECT r1.cname FROM r1 HAVING r1.revenue > 1"

    def test_having_without_group_by_is_one_group_eager_and_streamed(self):
        # Regression: the eager finalizer ignored HAVING and kept every row,
        # while the streaming one already treated it as "not streamable".
        federation = build_paper_federation().federation
        eager = federation.query(self.HAVING, mediate=False)
        assert eager.relation.rows == [("IBM",)]
        with federation.query(self.HAVING, mediate=False, stream=True) as cursor:
            assert cursor.fetchall() == [("IBM",)]
        chain = ["Scan", "Aggregate", "Filter", "Project"]
        assert _chain(_kept(eager.execution.plan)) == chain
        listed = [(entry["operator"], entry["rows_out"])
                  for entry in eager.execution.report.snapshot()["operators"]]
        # One implicit group, which HAVING keeps.
        assert listed == [("Scan", 2), ("Aggregate", 1), ("Filter", 1), ("Project", 1)]

    def test_a_grouped_branch_lists_its_operators_with_rows_out_per_group(self):
        engine = _two_source_engine()
        plan = engine.plan("SELECT t.b, COUNT(*) AS n, SUM(u.v) FROM t, u WHERE t.a = u.a "
                           "GROUP BY t.b HAVING COUNT(*) > 13 ORDER BY SUM(u.v) DESC")
        result = engine.execute(plan)
        by_b = {b: [float((a * 37) % 100) for a in range(40) if "xyz"[a % 3] == b]
                for b in "xyz"}
        assert result.relation.rows == [("x", 14, sum(by_b["x"]))]
        assert _chain(_kept(plan)) == [
            "Scan", "HashJoin", "Aggregate", "Filter", "Project", "Sort"]
        listed = [(entry["operator"], entry["rows_out"])
                  for entry in result.report.snapshot()["operators"]]
        assert listed == [("Scan", 40), ("HashJoin", 40), ("Aggregate", 3),
                          ("Filter", 1), ("Project", 1), ("Sort", 1)]
        assert engine.execute(plan).relation.rows == result.relation.rows

    def test_order_by_an_aggregate_through_the_federation(self):
        # Regression: ORDER BY keys were compiled against the ungrouped row,
        # where COUNT is an unknown function.
        federation = build_paper_federation().federation
        counted = ("SELECT r3.fromCur, COUNT(*) FROM r3 GROUP BY r3.fromCur "
                   "ORDER BY COUNT(*) DESC, r3.fromCur")
        aliased = ("SELECT r3.fromCur, COUNT(*) AS n FROM r3 GROUP BY r3.fromCur "
                   "ORDER BY n DESC, r3.fromCur")
        rows = federation.query(counted, mediate=False).relation.rows
        assert rows[:3] == [("USD", 6), ("EUR", 3), ("JPY", 3)]
        assert rows == federation.query(aliased, mediate=False).relation.rows
        summed = "SELECT r3.fromCur FROM r3 GROUP BY r3.fromCur ORDER BY SUM(r3.rate) DESC"
        with federation.query(summed, mediate=False, stream=True) as cursor:
            assert cursor.fetchmany(2) == [("USD",), ("EUR",)]

    def test_a_nested_aggregate_is_refused_through_the_federation(self):
        federation = build_paper_federation().federation
        nested = "SELECT MAX(SUM(r3.rate)) FROM r3 GROUP BY r3.fromCur"
        with pytest.raises(EvaluationError, match="aggregate calls cannot be nested"):
            federation.query(nested, mediate=False)
        with pytest.raises(EvaluationError, match="aggregate calls cannot be nested"):
            with federation.query(nested, mediate=False, stream=True) as cursor:
                cursor.fetchall()

    def test_order_by_beneath_the_select_list_sorts_beneath_the_projection(self):
        engine = _two_source_engine()
        plan = engine.plan("SELECT t.b FROM t, u WHERE t.a = u.a AND t.a < 6 "
                           "ORDER BY u.v DESC, t.a")
        rows = [row[0] for row in engine.execute(plan).relation.rows]
        assert _chain(_kept(plan)) == ["Scan", "HashJoin", "Sort", "Project"]
        expected = sorted(range(6), key=lambda a: (-float((a * 37) % 100), a))
        assert rows == ["xyz"[a % 3] for a in expected]
        assert [row[0] for row in engine.execute(plan).relation.rows] == rows


def _shape(report):
    """What two executions of one plan must agree on (timings aside)."""
    snapshot = report.snapshot()
    return (
        [(entry["operator"], entry["rows_out"]) for entry in snapshot["operators"]],
        snapshot["branch_rows"], snapshot["result_rows"],
        {key: value for key, value in snapshot["optimizer"].items()},
        snapshot["resilience"]["degraded_branches"],
    )


class TestExecutedTwice:
    def test_a_bind_join_plan(self):
        engine = MultiDatabaseEngine(planner_config=PlannerConfig(bind_join_batch_size=2))
        hot = ", ".join(f"({key}, 'hot')" for key in (1, 2, 3))
        cold = ", ".join(f"({key}, 'cold')" for key in range(21, 28))
        engine.register_wrapper(RelationalWrapper(
            _source("drv", "d", "k integer, tag varchar", f"{hot}, {cold}")))
        orders = ", ".join(f"({key}, {key * 100 + i})"
                           for key in range(1, 31) for i in range(10))
        engine.register_wrapper(RelationalWrapper(
            _source("ord", "o", "k integer, v integer", orders)))
        query = "SELECT o.v FROM d, o WHERE d.k = o.k AND d.tag = 'hot'"
        unbound = engine.execute(query)  # cold: feedback enables binding
        plan = engine.plan(query)
        assert any(request.bind is not None for request in plan.branches[0].requests)
        first, second = engine.execute(plan), engine.execute(plan)
        assert sorted(first.relation.rows) == sorted(unbound.relation.rows)
        assert list(second.relation.rows) == list(first.relation.rows)
        assert _shape(second.report) == _shape(first.report)
        assert second.report.bind_batches == 2

    def test_a_partial_answer_over_a_dead_source(self):
        engine = MultiDatabaseEngine(resilience=ResiliencePolicy(
            retry_policy=RetryPolicy(max_attempts=2, base_delay_seconds=0.001,
                                     max_delay_seconds=0.002, seed=1)))
        for index in (1, 2, 3):
            values = ", ".join(f"({key}, {float(key * index)})" for key in range(20))
            wrapper = RelationalWrapper(_source(
                f"src{index}", f"s{index}", f"k integer, v{index} float", values))
            if index == 2:
                wrapper = FaultInjectingSource(wrapper, FaultSchedule(failure_rate=1.0))
            engine.register_wrapper(wrapper, estimate_rows=False)
        plan = engine.plan(
            "SELECT s1.k, s1.v1 AS v FROM s1 WHERE s1.k < 5"
            " UNION SELECT s2.k, s2.v2 AS v FROM s2 WHERE s2.k < 5"
            " UNION SELECT s3.k, s3.v3 AS v FROM s3 WHERE s3.k < 5")
        first = engine.execute(plan, on_source_error="partial")
        second = engine.execute(plan, on_source_error="partial")
        assert list(first.relation.rows) and list(second.relation.rows) == list(
            first.relation.rows)
        degraded = [entry["branch"] for entry in
                    second.report.snapshot()["resilience"]["degraded_branches"]]
        assert degraded == [1]
        assert _shape(second.report)[:3] == _shape(first.report)[:3]
        # A branch lowers before it fetches, so the dead branch keeps its
        # lowering like the live ones, which execute from theirs.
        assert _kept(plan, 1) is not None and _kept(plan, 0) is not None
        with pytest.raises(Exception):
            engine.execute(plan)  # "fail" mode still fails on the same plan


def _referencing_engine(budget):
    """``t.a`` runs over 0..1499, ``u.a`` over the even numbers below 3000:
    the odd ``t.a`` reference no ``u`` row."""
    engine = MultiDatabaseEngine(memory_budget_bytes=budget)
    for name, keys in (("t", range(1500)), ("u", range(0, 3000, 2))):
        values = ", ".join(f"({key}, {float((key * 37) % 100)}, '{'xyz'[key % 3]}')"
                           for key in keys)
        engine.register_wrapper(RelationalWrapper(
            _source(f"db_{name}", name, "a integer, v float, b varchar", values)),
            estimate_rows=False)
    return engine


def _union_root(budget):
    engine = _referencing_engine(budget)
    plan = engine.plan("SELECT t.a, t.b FROM t UNION SELECT u.a, u.b FROM u")
    return plan, lambda: engine.execute(plan)


def _finish_root(budget):
    engine = _referencing_engine(budget)
    plan = engine.plan("SELECT m.a, m.v FROM (SELECT t.a, t.v FROM t UNION ALL "
                       "SELECT u.a, u.v FROM u) m ORDER BY m.v DESC, m.a")
    return plan, lambda: engine.execute(plan)


def _unmatched_root(budget):
    # The plan the violation scanner runs for an inclusion dependency.
    engine = _referencing_engine(budget)
    check = InclusionDependency(
        "t_refs_u", relation="t", columns=("a",), referenced_relation="u",
        referenced_columns=("a",)).check_query(engine.catalog.schema_of)
    plan = engine.planner.plan_branches(list(check.selects))
    plan.root = algebra.Unmatched(tuple(branch.tree for branch in plan.branches),
                                  check.keys)
    return plan, lambda: engine.execute(plan)


def _repairs_root(budget):
    federation = build_consistency_federation(memory_budget_bytes=budget)
    federation.engine.request_cache = None  # both executions fetch alike
    for relation in ("accounts", "ratings"):
        federation.register_constraint(
            PrimaryKey(f"{relation}_pk", relation=relation, columns=("id",)))
    statement = ("SELECT accounts.owner, ratings.score FROM accounts, ratings "
                 "WHERE accounts.id = ratings.id ORDER BY accounts.owner")

    def execute():
        answer = federation.query(statement, mediate=False, consistency="certain")
        return answer.execution

    return execute().plan, execute


class TestRootTemplate:
    """The root above the branches is lowered once, with the template; each
    execution binds a copy over its own branches, budget and report."""

    ROOTS = {"union": (_union_root, algebra.Union),
             "finish": (_finish_root, algebra.Finish),
             "unmatched": (_unmatched_root, algebra.Unmatched),
             "repairs": (_repairs_root, algebra.Repairs)}

    @pytest.mark.parametrize("budget", [None, 64 * 1024], ids=["unbounded", "64KiB"])
    @pytest.mark.parametrize("kind", list(ROOTS))
    def test_a_bound_root_answers_as_the_lowered_one(self, kind, budget):
        build, root_class = self.ROOTS[kind]
        plan, execute = build(budget)
        assert plan.root.__class__ is root_class
        first = execute()  # lowers the root
        lowered = plan.template._lowered_root
        assert lowered is not None
        second = execute()  # binds a copy of it
        assert second.plan is plan and plan.template._lowered_root is lowered
        assert list(first.relation.rows)
        assert list(second.relation.rows) == list(first.relation.rows)
        snapshot = _masked(second.report.snapshot())
        assert snapshot == _masked(first.report.snapshot())
        # Only the branches' operators are listed, as before the root was kept.
        assert "RepairEnumeration" not in {entry["operator"] for entry in snapshot["operators"]}
        if kind == "repairs":
            assert snapshot["consistency"]["repairs_enumerated"] > 1
        elif budget is not None:
            assert second.report.spill_count > 0  # the root's own operator spilled
        else:
            assert second.report.spill_count == 0

    def test_a_subquery_bearing_root_is_handed_out_and_not_kept(self):
        engine = _two_source_engine()
        plan = engine.plan("SELECT m.a, (SELECT 7) AS seven FROM (SELECT t.a FROM t "
                           "WHERE t.a < 2 UNION ALL SELECT u.a FROM u WHERE u.a < 2) m "
                           "ORDER BY m.a")
        for _ in range(2):
            assert engine.execute(plan).relation.rows == [(0, 7), (0, 7), (1, 7), (1, 7)]
            assert plan.template._lowered_root is None
        assert all(branch._lowered is not None for branch in plan.template.branches)
