"""The staged query pipeline: caching, generations, prepared queries, threads.

These tests pin the PR-3 contract: the warm path of repeated receiver
queries performs **zero mediation and zero planning work** (verified through
the mediator's and engine's counters), answers stay byte-identical across
the cold and warm paths, catalog/knowledge generation bumps invalidate
exactly what they must, and the whole lifecycle is safe under concurrent
sessions.
"""

import hashlib
import threading

import pytest

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_exchange_wrapper, build_paper_federation
from repro.engine.engine import MultiDatabaseEngine
from repro.errors import CircuitOpenError, RequestFailedError, SourceError
from repro.sources.base import SourceCapabilities
from repro.sources.exchange import DEFAULT_RATES, build_exchange_rate_site
from repro.sources.memory import MemorySQLSource
from repro.sql.normalize import statement_fingerprint
from repro.sql.parser import parse
from repro.wrappers.wrapper import RelationalWrapper


def digest(relation) -> str:
    payload = repr(sorted(repr(row) for row in relation.rows)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture
def federation():
    return build_paper_federation().federation


def mediations(federation) -> int:
    return federation.mediator.statistics.snapshot()["queries_mediated"]


def plans(federation) -> int:
    return federation.engine.statistics.snapshot()["plans_built"]


class TestWarmPath:
    def test_repeat_query_skips_mediation_and_planning(self, federation):
        cold = federation.query(PAPER_QUERY)
        med, pln = mediations(federation), plans(federation)
        warm = federation.query(PAPER_QUERY)
        assert mediations(federation) == med, "warm path must not mediate"
        assert plans(federation) == pln, "warm path must not plan"
        assert digest(warm.relation) == digest(cold.relation)

    def test_textually_different_equivalent_statements_share_one_plan(self, federation):
        federation.query(PAPER_QUERY)
        med, pln = mediations(federation), plans(federation)
        reformatted = PAPER_QUERY.replace("SELECT", "select   ").replace("FROM", "from")
        federation.query(reformatted)
        assert mediations(federation) == med
        assert plans(federation) == pln

    def test_contexts_cache_independently(self, federation):
        federation.query(PAPER_QUERY, receiver_context="c_receiver")
        med = mediations(federation)
        federation.query(PAPER_QUERY, receiver_context="c_receiver_jpy")
        assert mediations(federation) == med + 1  # different context: new work
        federation.query(PAPER_QUERY, receiver_context="c_receiver_jpy")
        assert mediations(federation) == med + 1  # …memoized per context

    def test_warm_answers_reuse_mediation_result(self, federation):
        first = federation.query(PAPER_QUERY)
        second = federation.query(PAPER_QUERY)
        assert second.mediation is first.mediation
        assert second.mediated_sql == first.mediated_sql


class TestGenerationInvalidation:
    def test_source_invalidation_replans_but_does_not_remediate(self, federation):
        federation.query(PAPER_QUERY)
        med, pln = mediations(federation), plans(federation)
        federation.invalidate_source_cache(relation="r1")
        answer = federation.query(PAPER_QUERY)
        assert plans(federation) == pln + 1, "catalog bump must replan"
        assert mediations(federation) == med, "mediation does not read the catalog"
        assert len(answer.relation) == 1

    def test_wrapper_registration_bumps_catalog_generation(self, federation):
        before = federation.engine.catalog.generation
        extra = MemorySQLSource("extra")
        extra.load_sql("CREATE TABLE extra_rel (k integer)", "INSERT INTO extra_rel VALUES (1)")
        federation.register_wrapper(RelationalWrapper(extra))
        assert federation.engine.catalog.generation > before

    def test_knowledge_change_remediates(self, federation):
        federation.query(PAPER_QUERY)
        med = mediations(federation)
        # Re-declaring a receiver constant is a knowledge change, even to the
        # same value: the mediation cache must not trust its old entries.
        federation.system.contexts.get("c_receiver").declare_constant(
            "companyFinancials", "scaleFactor", 1
        )
        federation.query(PAPER_QUERY)
        assert mediations(federation) == med + 1

    def test_replacing_a_context_keeps_generation_monotonic(self, federation):
        from repro.coin.context import Context

        contexts = federation.system.contexts
        contexts.get("c_receiver").declare_constant(
            "companyFinancials", "scaleFactor", 1
        )
        before = federation.system.generation
        # A fresh replacement context restarts its own declaration count at
        # zero; the roll-up must still move forward, or cached plans from the
        # old knowledge would become reachable again.
        replacement = Context("c_receiver", "replaced")
        replacement.declare_constant("companyFinancials", "currency", "USD")
        replacement.declare_constant("companyFinancials", "scaleFactor", 1)
        contexts.register(replacement)
        assert federation.system.generation > before

    def test_one_fingerprint_names_the_statement(self, federation):
        answer = federation.query(PAPER_QUERY)
        prepared = federation.prepare(PAPER_QUERY)
        assert answer.mediation is prepared.plan.mediation
        assert prepared.fingerprint == statement_fingerprint(parse(PAPER_QUERY))
        assert federation.pipeline.fingerprint(PAPER_QUERY) == prepared.fingerprint
        assert federation.pipeline.fingerprint("NOT SQL AT ALL") is None


def counters(federation):
    return federation.pipeline.snapshot()


class TestRecompileInPlace:
    """One compile-cache entry per statement shape: a stale entry is
    recompiled from itself, under the same shape."""

    def test_catalog_bump_recompiles_in_place_reusing_the_mediation(self, federation):
        first = federation.pipeline.prepare(PAPER_QUERY)
        entries, before = len(federation.pipeline.plan_cache), counters(federation)
        federation.invalidate_source_cache(relation="r1")
        second = federation.pipeline.prepare(PAPER_QUERY)
        after = counters(federation)
        assert len(federation.pipeline.plan_cache) == entries
        assert after["mediation_hits"] == before["mediation_hits"] + 1
        assert after["mediation_misses"] == before["mediation_misses"]
        assert after["plan_misses"] == before["plan_misses"] + 1
        assert after["feedback_replans"] == before["feedback_replans"]
        assert after["plan_changes"] == before["plan_changes"]  # the same plan
        assert second.plan.signature() == first.plan.signature()
        assert second is not first and second.mediation is first.mediation
        assert second.key.catalog_generation > first.key.catalog_generation
        assert federation.pipeline.prepare(PAPER_QUERY) is second

    def test_knowledge_bump_remediates_in_place(self, federation):
        first = federation.pipeline.prepare(PAPER_QUERY)
        entries, before = len(federation.pipeline.plan_cache), counters(federation)
        federation.system.contexts.get("c_receiver").declare_constant(
            "companyFinancials", "scaleFactor", 1)
        second = federation.pipeline.prepare(PAPER_QUERY)
        after = counters(federation)
        assert len(federation.pipeline.plan_cache) == entries
        assert after["mediation_misses"] == before["mediation_misses"] + 1
        assert after["mediation_hits"] == before["mediation_hits"]
        assert second.mediation is not first.mediation

    def test_passthrough_recompiles_uncounted(self, federation):
        federation.pipeline.prepare(PAPER_QUERY, mediate=False)
        before = counters(federation)
        federation.invalidate_source_cache()
        federation.pipeline.prepare(PAPER_QUERY, mediate=False)
        after = counters(federation)
        assert after["plan_misses"] == before["plan_misses"] + 1
        assert (after["mediation_hits"], after["mediation_misses"]) == (
            before["mediation_hits"], before["mediation_misses"])

    def test_feedback_retirement_counts_a_plan_change_against_the_entry(self, federation):
        pipeline = federation.pipeline
        first = pipeline.prepare(PAPER_QUERY)
        before = counters(federation)
        # r2 is far larger than planned: the re-plan binds into it.
        federation.engine.catalog.feedback.record_request(
            "r2", "", 100_000, planned_rows=1)
        second = pipeline.prepare(PAPER_QUERY)
        after = counters(federation)
        assert second.plan.signature() != first.plan.signature()
        assert after["feedback_replans"] == before["feedback_replans"] + 1
        assert after["plan_changes"] == before["plan_changes"] + 1
        assert after["mediation_hits"] == before["mediation_hits"] + 1
        assert len(pipeline.plan_cache) == 1
        # A catalog bump clears the observations and the plan reverts: a
        # change against the entry it replaces, not against the first plan.
        federation.invalidate_source_cache(relation="r3")
        assert pipeline.prepare(PAPER_QUERY).plan.signature() == first.plan.signature()
        assert counters(federation)["plan_changes"] == after["plan_changes"] + 1

    def test_mediate_only_after_query_runs_no_mediation(self, federation):
        answer = federation.query(PAPER_QUERY)
        med, before = mediations(federation), counters(federation)
        shown = federation.mediate_only(PAPER_QUERY)
        assert shown is answer.mediation
        assert mediations(federation) == med
        assert counters(federation)["mediation_hits"] == before["mediation_hits"]

    def test_mediate_only_without_an_entry_plans_nothing(self, federation):
        pln = plans(federation)
        shown = federation.mediate_only(PAPER_QUERY)
        assert shown.branch_count > 1
        assert plans(federation) == pln
        assert len(federation.pipeline.plan_cache) == 0


class TestPreparedQueries:
    def test_prepared_reuse_returns_byte_identical_answers(self, federation):
        prepared = federation.prepare(PAPER_QUERY)
        first = prepared.execute()
        med, pln = mediations(federation), plans(federation)
        digests = {digest(prepared.execute().relation) for _ in range(5)}
        assert digests == {digest(first.relation)}
        assert mediations(federation) == med
        assert plans(federation) == pln

    def test_stale_prepared_query_recompiles_transparently(self, federation):
        prepared = federation.prepare(PAPER_QUERY)
        prepared.execute()
        pln = plans(federation)
        federation.invalidate_source_cache(relation="r2")
        answer = prepared.execute()
        assert plans(federation) == pln + 1
        assert len(answer.relation) == 1
        # Once refreshed, it is warm again.
        prepared.execute()
        assert plans(federation) == pln + 1

    def test_prepared_exposes_mediation_metadata(self, federation):
        prepared = federation.prepare(PAPER_QUERY)
        assert "UNION" in prepared.mediated_sql
        assert prepared.receiver_context == "c_receiver"
        assert prepared.sql == prepared.plan.mediation.original_sql


class TestNaiveFastPath:
    def test_unmediated_query_runs_verbatim(self, federation):
        naive = federation.query(PAPER_QUERY, mediate=False)
        assert naive.records == []
        assert naive.mediated_sql == naive.mediation.original_sql

    def test_unmediated_query_skips_conflict_detection_and_abduction(self, federation):
        med = mediations(federation)
        naive = federation.query(PAPER_QUERY, mediate=False)
        assert mediations(federation) == med, "passthrough must not mediate"
        assert naive.mediation.analyses == []
        assert naive.mediation.branch_count == 0

    def test_unmediated_and_mediated_cache_separately(self, federation):
        federation.query(PAPER_QUERY, mediate=False)
        mediated = federation.query(PAPER_QUERY, mediate=True)
        assert len(mediated.relation) == 1  # not served from the naive entry


class TestConcurrentQueries:
    THREADS = 8
    ROUNDS = 5

    def test_threaded_queries_agree_and_count_exactly(self, federation):
        warm = federation.query(PAPER_QUERY)
        expected = digest(warm.relation)
        med, pln = mediations(federation), plans(federation)
        executed_before = federation.engine.statistics.snapshot()["statements_executed"]

        results, errors = [], []

        def worker():
            try:
                for _ in range(self.ROUNDS):
                    results.append(digest(federation.query(PAPER_QUERY).relation))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert set(results) == {expected}
        assert mediations(federation) == med
        assert plans(federation) == pln
        executed = federation.engine.statistics.snapshot()["statements_executed"]
        assert executed == executed_before + self.THREADS * self.ROUNDS


class TestConcurrentDistinctStatements:
    """Different statements stage under the same binding labels; the shared
    temporary store must not let one session read another's staged rows."""

    COMPANIES = ("NTT", "IBM")
    ROUNDS = 25

    def test_interleaved_statements_never_swap_answers(self, federation):
        queries = {
            company: f"SELECT r1.revenue FROM r1 WHERE r1.cname = '{company}'"
            for company in self.COMPANIES
        }
        expected = {
            company: digest(federation.query(sql, mediate=False).relation)
            for company, sql in queries.items()
        }
        mismatches, errors = [], []

        def worker(company):
            try:
                for _ in range(self.ROUNDS):
                    got = digest(federation.query(queries[company], mediate=False).relation)
                    if got != expected[company]:
                        mismatches.append(company)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(company,))
            for company in self.COMPANIES for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert mismatches == []


#: Every r1 row in the receiver's own currency: IBM's 1 000 000 USD is
#: 104 000 thousand JPY at the default quotes.
R1_REVENUES = "SELECT r1.cname, r1.revenue FROM r1"


def ibm_revenue(relation) -> float:
    return next(row[1] for row in relation.rows if row[0] == "IBM")


def doubled_rates():
    return {pair: 2 * rate for pair, rate in DEFAULT_RATES.items()}


def publish_doubled_quotes(site) -> None:
    """The exchange site publishes new quotes: every rate doubled."""
    doubled = build_exchange_rate_site(doubled_rates())
    index = doubled.fetch_page("index.html")
    for url in ("index.html", *index.find_links()):
        site.add_page(doubled.fetch_page(url))


def exchange_of(federation):
    return federation.engine.catalog.wrapper_for("r3")


def jpy_revenues(federation):
    """IBM's revenue as mediated for, and as converted to, the JPY receiver."""
    mediated = federation.query(R1_REVENUES, receiver_context="c_receiver_jpy")
    converted = federation.convert_answer(federation.query(R1_REVENUES), "c_receiver_jpy")
    return ibm_revenue(mediated.relation), ibm_revenue(converted)


class TestRateEnvironmentStaleness:
    """``convert_answer`` reads the rate relation through the engine and
    re-reads it after any source change; an invalidation that does not
    cover the rate relation leaves the rates as they were read."""

    def test_invalidation_of_rate_relation_resets_the_lookup(self, federation):
        answer = federation.query(PAPER_QUERY)
        baseline = federation.convert_answer(answer, "c_receiver_jpy").rows[0][1]
        site = exchange_of(federation).site
        publish_doubled_quotes(site)
        pages = site.statistics.snapshot()["pages_fetched"]

        federation.invalidate_source_cache(relation="r1")  # unrelated relation
        assert federation.convert_answer(answer, "c_receiver_jpy").rows[0][1] == baseline
        assert site.statistics.snapshot()["pages_fetched"] == pages

        federation.invalidate_source_cache(relation="r3")  # the rate relation
        refreshed = federation.convert_answer(answer, "c_receiver_jpy").rows[0][1]
        assert refreshed == pytest.approx(baseline * 2)
        assert site.statistics.snapshot()["pages_fetched"] > pages

    def test_conversion_after_invalidation_consults_fresh_rates(self, federation):
        answer = federation.query(PAPER_QUERY)
        baseline = federation.convert_answer(answer, "c_receiver_jpy").rows[0][1]

        publish_doubled_quotes(exchange_of(federation).site)
        # Without invalidation the rates read before the change still hold.
        assert federation.convert_answer(answer, "c_receiver_jpy").rows[0][1] == baseline
        federation.invalidate_source_cache(relation="r3")
        refreshed = federation.convert_answer(answer, "c_receiver_jpy").rows[0][1]
        assert refreshed == pytest.approx(baseline * 2)

    def test_full_invalidation_also_resets_the_lookup(self, federation):
        answer = federation.query(PAPER_QUERY)
        baseline = federation.convert_answer(answer, "c_receiver_jpy").rows[0][1]
        publish_doubled_quotes(exchange_of(federation).site)
        federation.invalidate_source_cache()
        refreshed = federation.convert_answer(answer, "c_receiver_jpy").rows[0][1]
        assert refreshed == pytest.approx(baseline * 2)

    def test_the_rate_lookup_books_no_statement(self, federation):
        answer = federation.query(PAPER_QUERY)
        before = federation.statistics()["engine"]
        converted = federation.convert_answer(answer, "c_receiver_jpy")
        after = federation.statistics()["engine"]
        assert len(converted) == len(answer.relation) == 1
        assert {name: after[name] - before[name] for name in (
            "statements_executed", "plans_built", "rows_returned")} == {
            "statements_executed": 0, "plans_built": 0, "rows_returned": 0}

    def test_the_rates_are_read_through_the_engine(self, federation):
        record = federation.engine.resilience.source("exchange")
        for _ in range(record.failure_threshold):
            record.failed(SourceError("down"))
        answer = federation.query(R1_REVENUES, mediate=False)
        with pytest.raises(RequestFailedError) as raised:
            federation.convert_answer(answer, "c_receiver_jpy")
        assert isinstance(raised.value.__cause__, CircuitOpenError)


class TestOneFreshnessPath:
    """Every signal that a source changed — the wrapper's own, the
    federation's by relation or by wrapper, a registration — reaches every
    memo of the source's data: the wrapper's crawl, the request cache and
    the rate lookup of ``convert_answer``."""

    @pytest.mark.parametrize("signal", [
        lambda federation: exchange_of(federation).invalidate(),
        lambda federation: federation.invalidate_source_cache(relation="r3"),
        lambda federation: federation.invalidate_source_cache(wrapper="exchange"),
    ], ids=["wrapper-invalidate", "by-relation", "by-wrapper"])
    def test_a_change_signal_reaches_both_answers(self, federation, signal):
        assert jpy_revenues(federation) == (104_000, 104_000)
        publish_doubled_quotes(exchange_of(federation).site)
        signal(federation)
        assert jpy_revenues(federation) == (208_000, 208_000)

    def test_a_new_exchange_wrappers_rates_reach_convert_answer(self, federation):
        assert jpy_revenues(federation) == (104_000, 104_000)
        federation.register_wrapper(build_exchange_wrapper(doubled_rates()),
                                    estimate_rows=False)
        assert jpy_revenues(federation) == (208_000, 208_000)

    def test_a_new_wrapper_is_not_refused_by_the_replaced_ones_breaker(self, federation):
        record = federation.engine.resilience.source("exchange")
        for _ in range(record.failure_threshold):
            record.failed(SourceError("down"))
        assert record.state == "open"
        federation.register_wrapper(build_exchange_wrapper(), estimate_rows=False)
        assert jpy_revenues(federation) == (104_000, 104_000)
        assert federation.engine.resilience.source("exchange").state == "closed"

    def test_the_same_wrapper_registered_again_keeps_its_record(self, federation):
        record = federation.engine.resilience.source("exchange")
        federation.register_wrapper(exchange_of(federation), estimate_rows=False)
        assert federation.engine.resilience.source("exchange") is record

    def test_a_registration_is_one_source_change(self, federation, monkeypatch):
        catalog = federation.engine.catalog
        clear = catalog.feedback.clear
        clears = []
        monkeypatch.setattr(catalog.feedback, "clear",
                            lambda: (clears.append(1), clear()))
        before = catalog.generation
        federation.register_wrapper(build_exchange_wrapper(), estimate_rows=False)
        assert catalog.generation == before + 1
        assert clears == [1]


class TestCrossBranchCommonSubplans:
    def test_identical_scan_requests_are_shared_across_branches(self):
        engine = MultiDatabaseEngine()
        for index in (1, 2):
            source = MemorySQLSource(f"src{index}",
                                     capabilities=SourceCapabilities.scan_only())
            source.load_sql(
                f"CREATE TABLE t{index} (k integer, v{index} float)",
                f"INSERT INTO t{index} VALUES (1, {index}.5), (2, {index * 2}.5)",
            )
            engine.register_wrapper(RelationalWrapper(source), estimate_rows=False)

        plan = engine.plan(
            "SELECT t1.k FROM t1, t2 WHERE t1.k = t2.k AND t1.v1 > t2.v2 "
            "UNION "
            "SELECT t1.k FROM t1, t2 WHERE t1.k = t2.k AND t1.v1 < t2.v2"
        )
        # Both branches FETCH the same two relations: the second branch's
        # requests are recognized at plan time and shared.
        assert plan.shared_requests == 2
        shared = plan.branches[0].requests[0]
        assert plan.branches[1].requests[0] is shared
