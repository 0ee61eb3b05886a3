"""Tests for the adaptive optimizer: runtime feedback, epochs, bind joins.

Covers the feedback registry itself (recording, material-error epoch policy,
generation-scoped clearing), the cost model's feedback-first estimation and
the composite-key join-cardinality fix, the pipeline's feedback-epoch plan
retirement, the executor's feedback ingestion (including the guards that keep
filtered/limited/bind-batch results out of the catalog estimates), and the
bind-join execution path end to end: batched IN-list fetches, empty-key-set
skips, transfer accounting and answer equivalence with the unbound oracle.
"""

import pytest

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.engine.cost import CostModel
from repro.engine.engine import MultiDatabaseEngine
from repro.engine.feedback import CardinalityFeedback
from repro.engine.planner import PlannerConfig
from repro.engine.request_cache import SourceResultCache
from repro.engine.resilience import MIN_LATENCY_SAMPLES, ResiliencePolicy
from repro.relational.algebra import left_deep
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper


def _digest(relation):
    return sorted(tuple(row) for row in relation.rows)


def _bind_engine(cache: bool = False, **planner_overrides) -> MultiDatabaseEngine:
    """A two-source federation shaped so a bind join becomes profitable.

    ``d`` (12 rows) has three 'hot' rows with keys 1..3 and two 'warm' rows
    whose keys are NULL; ``o`` (300 rows) has ten rows per key 1..30.
    """
    config = dict(bind_join_batch_size=2)
    config.update(planner_overrides)
    engine = MultiDatabaseEngine(
        planner_config=PlannerConfig(**config),
        request_cache=SourceResultCache(capacity=32) if cache else None,
    )
    driver = MemorySQLSource("drv")
    hot = ", ".join(f"({key}, 'hot')" for key in (1, 2, 3))
    warm = ", ".join("(NULL, 'warm')" for _ in range(2))
    cold = ", ".join(f"({key}, 'cold')" for key in range(21, 28))
    driver.load_sql(
        "CREATE TABLE d (k integer, tag varchar)",
        f"INSERT INTO d VALUES {hot}, {warm}, {cold}",
    )
    orders = MemorySQLSource("ord")
    values = ", ".join(
        f"({key}, {key * 100 + i})" for key in range(1, 31) for i in range(10)
    )
    orders.load_sql(
        "CREATE TABLE o (k integer, v integer)",
        f"INSERT INTO o VALUES {values}",
    )
    engine.register_wrapper(RelationalWrapper(driver))
    engine.register_wrapper(RelationalWrapper(orders))
    engine._test_sources = (driver, orders)
    return engine


BIND_QUERY = "SELECT o.v FROM d, o WHERE d.k = o.k AND d.tag = 'hot'"


class TestCardinalityFeedback:
    def test_request_rows_keyed_by_relation_and_fingerprint(self):
        feedback = CardinalityFeedback()
        feedback.record_request("T", "t.a = 1", 7)
        assert feedback.request_rows("t", "t.a = 1") == 7
        assert feedback.request_rows("t", "") is None
        assert feedback.request_rows("other", "t.a = 1") is None

    def test_epoch_needs_both_absolute_floor_and_ratio(self):
        feedback = CardinalityFeedback(replan_ratio=2.0, replan_min_rows=256)
        # Large ratio, tiny absolute error: a demo-sized miss never re-plans.
        feedback.record_request("t", "", 30, planned_rows=3)
        assert feedback.epoch == 0
        # Large absolute error, accurate ratio: stable estimates stay put.
        feedback.record_request("t", "", 10_000, planned_rows=9_500)
        assert feedback.epoch == 0
        # Material on both axes: the epoch advances.
        feedback.record_request("t", "", 40, planned_rows=4_250)
        assert feedback.epoch == 1
        assert feedback.counters.epoch_bumps == 1

    def test_unplanned_observations_never_bump(self):
        feedback = CardinalityFeedback()
        feedback.record_request("t", "", 100_000)
        feedback.record_join("abcd", 100_000)
        assert feedback.epoch == 0

    def test_empty_join_fingerprint_is_ignored(self):
        feedback = CardinalityFeedback()
        feedback.record_join("", 50)
        assert feedback.join_rows("") is None

    def test_clear_drops_observations_but_keeps_epoch(self):
        feedback = CardinalityFeedback()
        feedback.record_request("t", "", 5_000, planned_rows=10)
        assert feedback.epoch == 1
        feedback.clear()
        assert feedback.request_rows("t", "") is None
        assert feedback.epoch == 1  # monotonic: plan-cache keys never collide

    def test_capacity_bound_evicts_oldest(self):
        feedback = CardinalityFeedback(capacity=2)
        for index in range(3):
            feedback.record_request(f"t{index}", "", index + 1)
        assert feedback.request_rows("t0", "") is None
        assert feedback.request_rows("t2", "") == 3

    def test_catalog_generation_bump_clears_feedback(self):
        engine = MultiDatabaseEngine()
        engine.catalog.feedback.record_request("t", "", 42)
        engine.catalog.bump_generation()
        assert engine.catalog.feedback.request_rows("t", "") is None


class TestLatencyProfile:
    """A wrapper's latency profile lives on its record: fed once per
    successful round trip, kept across generation bumps, dropped with a
    replaced wrapper."""

    def test_profile_is_published_after_minimum_samples(self):
        policy = ResiliencePolicy()
        for _ in range(MIN_LATENCY_SAMPLES - 1):
            policy.source("w").succeeded(0.5, 100)
        assert policy.profile("w") is None
        policy.source("w").succeeded(0.5, 100)
        profile = policy.profile("W")
        assert profile is not None
        assert profile == (pytest.approx(0.5), pytest.approx(0.005))

    def test_profile_lookup_creates_no_record(self):
        policy = ResiliencePolicy()
        assert policy.profile("never-fetched") is None
        assert policy.snapshot() == {"breakers": {}, "sources": {}}

    def test_every_round_trip_is_booked_once(self, monkeypatch):
        from repro.engine.resilience import SourceRecord

        booked = []
        book = SourceRecord.succeeded

        def spy(record, latency_seconds, rows=0):
            booked.append(rows)
            book(record, latency_seconds, rows)

        monkeypatch.setattr(SourceRecord, "succeeded", spy)
        engine = _bind_engine()
        for _ in range(2):  # the second run binds: two IN-list batches
            booked.clear()
            report = engine.execute(BIND_QUERY).report
            assert len(booked) == report.source_round_trips
            assert sum(booked) == report.rows_transferred
        assert report.bind_batches == 2

    @staticmethod
    def _matured_paper_federation():
        """The paper federation after enough round trips to publish every
        wrapper's profile (each invalidation forces the next round trips)."""
        federation = build_paper_federation().federation
        for _ in range(MIN_LATENCY_SAMPLES):
            federation.query(PAPER_QUERY)
            federation.invalidate_source_cache()
        return federation

    def test_matured_profile_survives_generation_bumps(self):
        from repro.consistency import PrimaryKey

        federation = self._matured_paper_federation()
        policy = federation.engine.resilience
        profile = policy.profile("source1")
        assert profile is not None
        federation.register_constraint(
            PrimaryKey("r1_pk", relation="r1", columns=("cname",)))
        federation.invalidate_source_cache()
        assert policy.profile("source1") == profile

    def test_replaced_wrapper_starts_without_a_profile(self):
        from repro.demo.scenarios import build_exchange_wrapper

        federation = self._matured_paper_federation()
        policy = federation.engine.resilience
        kept = policy.profile("source1")
        assert kept is not None and policy.profile("exchange") is not None
        federation.register_wrapper(build_exchange_wrapper(), estimate_rows=False)
        assert policy.profile("exchange") is None
        assert policy.profile("source1") == kept


class TestCostModelFeedback:
    def test_composite_equi_key_applies_selectivity_per_key(self):
        model = CostModel()
        single = model.join_cardinality(1_000, 1_000, equi_keys=1)
        composite = model.join_cardinality(1_000, 1_000, equi_keys=2)
        assert single == 100_000
        assert composite == 10_000  # was 100_000 before the per-key fix

    def test_legacy_boolean_keyword_still_means_one_key(self):
        model = CostModel()
        assert (model.join_cardinality(100, 100, has_equi_join=True)
                == model.join_cardinality(100, 100, equi_keys=1))
        assert (model.join_cardinality(100, 100)
                == model.join_cardinality(100, 100, equi_keys=0))

    def test_request_cardinality_prefers_feedback(self):
        feedback = CardinalityFeedback()
        model = CostModel(feedback=feedback)
        rows, source = model.request_cardinality("t", 900, 2, "t.a = 1")
        assert source == "default"
        assert rows == 100
        feedback.record_request("t", "t.a = 1", 7)
        rows, source = model.request_cardinality("t", 900, 2, "t.a = 1")
        assert (rows, source) == (7, "feedback")

    def test_latency_profile_only_worsens_static_costs(self):
        from repro.engine.cost import COST_UNITS_PER_SECOND
        from repro.sources.base import SourceCapabilities

        policy = ResiliencePolicy()
        for _ in range(MIN_LATENCY_SAMPLES):
            policy.source("slow").succeeded(1.0, 10)   # 100 cost units overhead
            policy.source("fast").succeeded(0.001, 10)  # well under the static 10
        model = CostModel(resilience=policy)
        capabilities = SourceCapabilities()
        slow = model.source_query_cost(capabilities, 10, 10, wrapper_name="slow")
        fast = model.source_query_cost(capabilities, 10, 10, wrapper_name="fast")
        baseline = model.source_query_cost(capabilities, 10, 10)
        assert slow.source_execution > baseline.source_execution
        assert fast.source_execution == baseline.source_execution
        assert slow.source_execution >= 1.0 * COST_UNITS_PER_SECOND


class TestExecutorFeedbackIngestion:
    def test_filtered_fetch_no_longer_poisons_base_estimate(self):
        engine = _bind_engine()
        assert engine.catalog.entry("d").estimated_rows == 12
        plan = engine.plan("SELECT d.k FROM d WHERE d.tag = 'hot'")
        engine.execute(plan)
        # The 3-row filtered result must not overwrite the 12-row base
        # estimate; it is recorded under its predicate fingerprint instead.
        assert engine.catalog.entry("d").estimated_rows == 12
        fingerprint = plan.branches[0].requests[0].transfer.target.fingerprint
        assert fingerprint
        assert engine.catalog.feedback.request_rows("d", fingerprint) == 3

    def test_unfiltered_fetch_still_updates_base_estimate(self):
        engine = _bind_engine()
        engine.catalog.update_estimate("d", 999)
        engine.execute("SELECT d.k FROM d")
        assert engine.catalog.entry("d").estimated_rows == 12
        assert engine.catalog.feedback.request_rows("d", "") == 12

    def test_limited_fetch_feeds_nothing(self):
        engine = _bind_engine()
        plan = engine.plan("SELECT o.v FROM o LIMIT 5")
        scan = plan.branches[0].requests[0].transfer.target
        assert scan.query is not None and scan.query.limit is not None
        engine.execute(plan)
        # A pushed LIMIT truncates deliberately: 5 rows say nothing about o.
        assert engine.catalog.entry("o").estimated_rows == 300
        assert engine.catalog.feedback.request_rows("o", "") is None

    def test_drained_join_records_observed_cardinality(self):
        engine = _bind_engine()
        plan = engine.plan(BIND_QUERY)
        step = left_deep(plan.branches[0].tree)[1][0]
        assert step.feedback_key
        assert step.estimate_source == "default"
        result = engine.execute(plan)
        assert len(result.relation) == 30
        assert engine.catalog.feedback.join_rows(step.feedback_key) == 30

    def test_closed_early_stream_records_no_join_feedback(self):
        engine = _bind_engine()
        plan = engine.plan(BIND_QUERY)
        step = left_deep(plan.branches[0].tree)[1][0]
        stream = engine.execute_stream(plan)
        stream.fetchmany(1)
        stream.close()  # abandoned mid-join: partial counts must not leak
        assert engine.catalog.feedback.join_rows(step.feedback_key) is None

    def test_report_carries_estimate_provenance(self):
        engine = _bind_engine()
        first = engine.execute(BIND_QUERY)
        assert first.report.estimates_from_defaults > 0
        assert first.report.join_orders == [["d", "o"]]
        second = engine.execute(BIND_QUERY)
        assert second.report.estimates_from_feedback > 0


class TestFeedbackEpochPlanRetirement:
    def test_material_error_retires_cached_plans(self):
        federation = build_paper_federation().federation
        pipeline = federation.pipeline
        federation.query(PAPER_QUERY)
        misses_warm = pipeline.statistics.plan_misses
        federation.query(PAPER_QUERY)
        assert pipeline.statistics.plan_misses == misses_warm  # warm hit

        federation.engine.catalog.feedback.record_request(
            "r2", "", 10_000, planned_rows=10
        )
        assert federation.engine.catalog.feedback.epoch == 1
        federation.query(PAPER_QUERY)
        assert pipeline.statistics.plan_misses == misses_warm + 1
        assert pipeline.statistics.feedback_replans >= 1

    def test_prepared_plans_go_stale_on_epoch_bump(self):
        federation = build_paper_federation().federation
        prepared = federation.pipeline.prepare(PAPER_QUERY)
        assert federation.pipeline.is_current(prepared)
        federation.engine.catalog.feedback.record_request(
            "r2", "", 10_000, planned_rows=10
        )
        assert not federation.pipeline.is_current(prepared)

    def test_an_error_on_a_key_the_plan_never_consulted_retires_nothing(self):
        federation = build_paper_federation().federation
        pipeline, feedback = federation.pipeline, federation.engine.catalog.feedback
        prepared = pipeline.prepare(PAPER_QUERY)
        assert ("r2", "") in prepared.plan.feedback_keys  # a miss is a lookup
        assert ("r1", "") not in prepared.plan.feedback_keys  # r1 is filtered
        misses = pipeline.statistics.plan_misses
        feedback.record_request("r1", "", 10_000, planned_rows=10)
        feedback.record_join("no-such-join-prefix", 10_000, planned_rows=10)
        assert feedback.epoch == 2
        assert pipeline.is_current(prepared)
        assert pipeline.prepare(PAPER_QUERY) is prepared
        assert prepared.feedback_epoch == 2  # checked once, then one int compare
        assert pipeline.statistics.plan_misses == misses
        assert pipeline.statistics.feedback_replans == 0

    def test_a_novel_statements_own_plan_is_re_priced_on_its_second_run(self):
        engine = MultiDatabaseEngine()
        for name, rows in (("t", 600), ("u", 600), ("w", 5)):
            source = MemorySQLSource(f"db_{name}")
            values = ", ".join(f"({index}, {index % 7})" for index in range(rows))
            source.load_sql(f"CREATE TABLE {name} (a integer, b integer)",
                            f"INSERT INTO {name} VALUES {values}")
            engine.register_wrapper(RelationalWrapper(source))
        feedback = engine.catalog.feedback
        bystander = engine.plan("SELECT w.a FROM w, t WHERE w.a = t.a")
        engine.execute(bystander)
        quiet = feedback.epoch
        novel = engine.plan("SELECT t.a FROM t, u WHERE t.a = u.a")
        step = left_deep(novel.branches[0].tree)[1][0]
        assert step.feedback_key in novel.feedback_keys  # looked up, not found
        assert step.estimated_rows > 10 * 600
        engine.execute(novel)  # the join's first observation: 600 rows
        assert feedback.epoch == quiet + 1
        assert feedback.retired_since(novel.feedback_keys, novel.feedback_epoch)
        assert not feedback.retired_since(bystander.feedback_keys, quiet)
        again = engine.plan("SELECT t.a FROM t, u WHERE t.a = u.a")
        assert left_deep(again.branches[0].tree)[1][0].estimate_source == "feedback"
        engine.execute(again)  # priced from the observation: nothing to retire
        assert feedback.epoch == quiet + 1
        assert not feedback.retired_since(again.feedback_keys, again.feedback_epoch)

    def test_retirements_beyond_capacity_retire_every_older_plan(self):
        from repro.engine.feedback import CardinalityFeedback

        feedback = CardinalityFeedback(capacity=2)
        for index in range(3):
            feedback.record_request(f"t{index}", "", 10_000, planned_rows=10)
        assert feedback.retired_since([("t2", "")], 2)
        assert not feedback.retired_since([("t2", "")], 3)
        # t0's retirement (epoch 1) fell off the list: plans priced before it
        # cannot be told apart any more and count as retired.
        assert feedback.retired_since([], 0)
        assert not feedback.retired_since([("t0", "")], 1)

    def test_small_workloads_never_bump_the_epoch(self):
        federation = build_paper_federation().federation
        for _ in range(3):
            federation.query(PAPER_QUERY)
        # Demo relations sit far below the 256-row material-error floor.
        assert federation.engine.catalog.feedback.epoch == 0


class TestBindJoinExecution:
    def test_cold_plan_stays_unbound_then_feedback_enables_binding(self):
        engine = _bind_engine()
        cold = engine.plan(BIND_QUERY)
        assert all(request.bind is None
                   for request in cold.branches[0].requests)
        baseline = engine.execute(cold)
        assert baseline.report.rows_transferred == 303  # 3 + whole of o

        warm = engine.plan(BIND_QUERY)
        bound = [request for request in warm.branches[0].requests
                 if request.bind is not None]
        assert len(bound) == 1
        spec = bound[0].bind
        assert spec.driver_binding == "d"
        assert spec.bound_columns == ("k",)
        assert spec.estimated_keys == 3
        assert "bind join" in warm.explain()

        result = engine.execute(warm)
        assert _digest(result.relation) == _digest(baseline.relation)
        report = result.report
        assert report.bind_joins == 1
        assert report.bind_batches == 2  # 3 keys, batch size 2
        assert report.bind_keys_shipped == 3
        assert report.bind_rows_fetched == 30
        assert report.bind_rows_avoided == 270
        assert report.bind_bytes_saved > 0
        # 3 driver rows + 30 bound rows instead of 303: a 9x reduction.
        assert result.report.rows_transferred == 33
        assert baseline.report.rows_transferred >= 5 * result.report.rows_transferred

    def test_bind_join_streams_identically(self):
        engine = _bind_engine()
        baseline = engine.execute(BIND_QUERY)
        warm = engine.plan(BIND_QUERY)
        assert any(request.bind is not None
                   for request in warm.branches[0].requests)
        with engine.execute_stream(warm) as stream:
            rows = stream.fetchall()
        assert sorted(rows) == _digest(baseline.relation)

    def test_repeat_bind_runs_hit_the_request_cache(self):
        engine = _bind_engine(cache=True)
        engine.execute(BIND_QUERY)  # cold, unbound
        warm = engine.plan(BIND_QUERY)
        first = engine.execute(warm)
        assert first.report.cache_hits < first.report.distinct_requests
        second = engine.execute(warm)
        # Driver fetch and every IN-list batch are canonical request texts:
        # the repeat is answered without a single source round trip.
        assert second.report.source_round_trips == 0
        assert second.report.rows_transferred == 0
        assert _digest(second.relation) == _digest(first.relation)

    def test_a_batch_is_the_bound_scan_with_its_in_lists_appended(self):
        engine = _bind_engine(cache=True)
        query = f"{BIND_QUERY} AND o.v > 0"
        engine.execute(query)  # cold, unbound
        warm = engine.plan(query)
        bound = [request for request in warm.branches[0].requests if request.bind]
        assert [request.transfer.target.text for request in bound] == [
            "SELECT o.k, o.v FROM o WHERE o.v > 0"]
        engine.execute(warm)
        # The request texts (and so the cache keys) the batches were always
        # sent under: the pushed conjunct first, then one IN list per batch.
        assert sorted(key.text for key in engine.request_cache._entries) == [
            "SELECT d.k, d.tag FROM d WHERE d.tag = 'hot'",
            "SELECT o.k, o.v FROM o WHERE o.v > 0",
            "SELECT o.k, o.v FROM o WHERE o.v > 0 AND o.k IN (1, 2)",
            "SELECT o.k, o.v FROM o WHERE o.v > 0 AND o.k IN (3)",
        ]

    def test_empty_key_set_skips_the_bound_fetch(self):
        engine = _bind_engine()
        warm_query = "SELECT o.v FROM d, o WHERE d.k = o.k AND d.tag = 'warm'"
        cold = engine.plan(warm_query)
        assert len(engine.execute(cold).relation) == 0  # warm keys are NULL

        plan = engine.plan(warm_query)
        assert any(request.bind is not None
                   for request in plan.branches[0].requests)
        _driver, orders = engine._test_sources
        queries_before = orders.statistics.queries
        result = engine.execute(plan)
        assert len(result.relation) == 0
        assert result.report.bind_empty_key_skips == 1
        # NULL keys never equi-join: no IN list is worth shipping.
        assert orders.statistics.queries == queries_before

    def test_bind_joins_disabled_by_config(self):
        engine = _bind_engine(bind_joins=False)
        engine.execute(BIND_QUERY)
        warm = engine.plan(BIND_QUERY)
        assert all(request.bind is None
                   for request in warm.branches[0].requests)

    def test_bound_batch_failure_surfaces_an_error(self):
        engine = _bind_engine()
        engine.execute(BIND_QUERY)
        warm = engine.plan(BIND_QUERY)
        assert any(request.bind is not None
                   for request in warm.branches[0].requests)
        _driver, orders = engine._test_sources

        def explode(_statement):
            raise ConnectionError("orders source down")

        orders.execute_sql = explode
        with pytest.raises(Exception, match="orders|o|down"):
            engine.execute(warm)
