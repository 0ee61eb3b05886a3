"""Consistent query answering: exactness, containment, threading.

The load-bearing checks are property-style: on randomized dirty instances
the rewrite's certain/possible answers must equal brute-force repair
enumeration (the definition), and certain ⊆ raw ⊆ possible must hold as
sets in every mode/strategy combination.
"""

import random

import pytest

from repro.consistency import PrimaryKey
from repro.engine.stream import ResultStream
from repro.errors import ConsistencyError, RepairEnumerationError
from repro.federation import FederationCursor
from repro.relational import algebra
from repro.server import odbc
from repro.server.protocol import Request
from repro.server.server import MediationServer

from fedbuild import build_consistency_federation

LEDGER_QUERY = (
    "SELECT accounts.owner, accounts.balance FROM accounts "
    "WHERE accounts.balance > 5"
)


def _register_keys(federation):
    federation.register_constraint(
        PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
    )
    federation.register_constraint(
        PrimaryKey("ratings_pk", relation="ratings", columns=("id",))
    )
    return federation


def _rows(answer):
    return {tuple(row) for row in answer.relation.rows}


class TestModes:
    def test_unknown_mode_rejected(self, federation):
        with pytest.raises(ConsistencyError, match="unknown consistency mode"):
            federation.query(LEDGER_QUERY, mediate=False, consistency="strict")
        with pytest.raises(ConsistencyError):
            federation.prepare(LEDGER_QUERY, mediate=False, consistency="maybe")

    def test_raw_mode_is_untouched(self, federation):
        _register_keys(federation)
        answer = federation.query(LEDGER_QUERY, mediate=False)
        # Raw answers keep bag semantics and carry no consistency block.
        assert answer.execution.report.consistency is None
        assert sorted(answer.relation.rows) == [
            ("ann", 10.0), ("bob", 20.0), ("bob", 25.0), ("eve", 30.0),
            ("kim", 50.0), ("kim", 50.0), ("lou", 60.0),
        ]

    def test_certain_drops_conflicted_projections(self, federation):
        _register_keys(federation)
        certain = federation.query(LEDGER_QUERY, mediate=False, consistency="certain")
        # bob's balance differs across repairs -> dropped; kim's duplicate
        # rows agree -> kept.
        assert _rows(certain) == {
            ("ann", 10.0), ("eve", 30.0), ("kim", 50.0), ("lou", 60.0),
        }
        block = certain.execution.report.consistency
        assert block["strategy"] == "rewrite"
        assert block["repairs_enumerated"] == 0
        # The quantifier's work is operator work: six key groups examined,
        # four kept (bob's disagrees on balance, joe's fails the filter).
        rows_out = {entry["operator"]: entry["rows_out"]
                    for entry in certain.execution.report.snapshot()["operators"]}
        assert (rows_out["Aggregate"], rows_out["Filter"]) == (6, 4)

    def test_possible_equals_raw_as_set(self, federation):
        _register_keys(federation)
        raw = federation.query(LEDGER_QUERY, mediate=False)
        possible = federation.query(LEDGER_QUERY, mediate=False, consistency="possible")
        assert _rows(possible) == _rows(raw)

    def test_clean_statement_short_circuits(self, federation):
        _register_keys(federation)
        # A query over no key-constrained relation... none here, so restrict
        # to a projection-only dictionary-free select over ratings with its
        # key dropped: build a fresh federation without the ratings key.
        fresh = build_consistency_federation()
        fresh.register_constraint(
            PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
        )
        answer = fresh.query(
            "SELECT ratings.id FROM ratings", mediate=False, consistency="certain"
        )
        assert answer.execution.report.consistency["strategy"] == "clean"
        assert _rows(answer) == {(1,), (2,), (3,), (99,)}


class TestEnumeratedOrder:
    """Repair enumeration unions the repairs' rows in repair order; the
    statement's ORDER BY must still order the answer."""

    JOIN = ("SELECT a.id, r.score FROM accounts a, ratings r "
            "WHERE a.id = r.id ORDER BY ")

    def test_possible_answer_of_an_enumerated_join_follows_order_by(self, federation):
        _register_keys(federation)
        answer = federation.query(self.JOIN + "r.score", mediate=False,
                                  consistency="possible")
        assert answer.execution.report.consistency["strategy"] == "fallback"
        assert answer.relation.rows == [(1, 2.0), (3, 3.0), (1, 4.0), (2, 5.0)]
        descending = federation.query(self.JOIN + "2 DESC, 1", mediate=False,
                                      consistency="possible")
        assert descending.relation.rows == [(2, 5.0), (1, 4.0), (3, 3.0), (1, 2.0)]
        certain = federation.query(self.JOIN + "r.score", mediate=False,
                                   consistency="certain")
        assert certain.relation.rows == [(3, 3.0), (2, 5.0)]

    def test_a_key_outside_the_select_list_keeps_first_seen_order(self, federation):
        _register_keys(federation)
        sql = ("SELECT a.id FROM accounts a, ratings r WHERE a.id = r.id "
               "ORDER BY r.score")
        answer = federation.query(sql, mediate=False, consistency="possible")
        assert answer.execution.report.consistency["strategy"] == "fallback"
        # Across repairs a row has several scores: under set semantics the
        # key orders nothing, and the rows stay in the order first seen.
        assert sorted(answer.relation.rows) == [(1,), (2,), (3,)]


class TestOneStatement:
    """An answer only repair enumeration gives is one plan: one full-scan
    branch per relation under a repair-enumeration root, which the engine
    books, reports and streams as one statement."""

    SQL = "SELECT a.owner, r.score FROM accounts a, ratings r WHERE a.id = r.id"

    def test_the_engine_books_one_statement(self, federation):
        _register_keys(federation)
        before = federation.statistics()["engine"]
        answer = federation.query(self.SQL, mediate=False, consistency="certain")
        after = federation.statistics()["engine"]
        assert answer.execution.report.consistency["strategy"] == "fallback"
        assert _rows(answer) == {("bob", 5.0), ("eve", 3.0)}
        assert {name: after[name] - before[name]
                for name in ("statements_executed", "rows_returned")} == {
            "statements_executed": 1, "rows_returned": len(answer.relation)}

    def test_each_relation_is_a_branch_of_the_report(self, federation):
        _register_keys(federation)
        report = federation.query(self.SQL, mediate=False,
                                  consistency="certain").execution.report
        snapshot = report.snapshot()
        assert snapshot["branch_rows"] == [8, 5]
        assert [(entry.binding, entry.branch) for entry in report.requests] == [
            ("accounts", 0), ("ratings", 1)]
        assert [(entry["branch"], entry["operator"], entry["detail"])
                for entry in snapshot["operators"]][2:] == [
            (1, "Scan", "(ratings_stage, 5 rows)"), (1, "Project", "(id, score)")]
        assert snapshot["streaming"]["rows_streamed"] == snapshot["result_rows"] == 2

    def test_the_enumeration_is_the_plans_root(self, federation):
        _register_keys(federation)
        plan = federation.query(self.SQL, mediate=False,
                                consistency="certain").execution.plan
        assert isinstance(plan.root, algebra.Repairs)
        assert plan.root.branches == tuple(branch.tree for branch in plan.branches)
        assert plan.explain().endswith(
            "[certain rows over at most 512 repairs of the branches] " + self.SQL)

    def test_a_streamed_enumeration_is_a_live_stream(self, federation):
        _register_keys(federation)
        eager = federation.query(self.SQL, mediate=False, consistency="possible")
        cursor = federation.query(self.SQL, mediate=False, consistency="possible",
                                  stream=True)
        assert isinstance(cursor.stream, ResultStream)
        assert [attribute.name for attribute in cursor.schema] == ["owner", "score"]
        assert cursor.fetchall() == eager.relation.rows
        assert cursor.report.consistency == eager.execution.report.consistency

    def test_a_refused_enumeration_raises_at_the_first_fetch(self):
        federation = _register_keys(build_consistency_federation(max_repairs=2))
        cursor = federation.query(self.SQL, mediate=False, consistency="certain",
                                  stream=True)
        assert isinstance(cursor.stream, ResultStream)
        with pytest.raises(RepairEnumerationError, match="more than 2 repairs"):
            cursor.fetchmany(1)
        assert cursor.closed

    def test_a_refused_eager_enumeration_raises_inside_query(self):
        federation = _register_keys(build_consistency_federation(max_repairs=2))
        with pytest.raises(RepairEnumerationError, match="more than 2 repairs"):
            federation.query(self.SQL, mediate=False, consistency="certain")

    def test_on_the_wire_the_refusal_is_a_fetch_failure(self):
        federation = _register_keys(build_consistency_federation(max_repairs=2))
        server = MediationServer(federation)
        opened = server.handle(Request("open_cursor", {
            "sql": self.SQL, "mediate": False, "consistency": "certain",
        }))
        assert opened.ok
        fetched = server.handle(Request("fetch_cursor", {
            "cursor_id": opened.payload["cursor_id"], "count": 10,
        }))
        assert not fetched.ok
        assert fetched.error_kind == "RepairEnumerationError"


class TestStrategySelection:
    def test_self_join_falls_back(self, federation):
        _register_keys(federation)
        answer = federation.query(
            "SELECT a.owner FROM accounts a, accounts b "
            "WHERE a.id = b.id AND a.balance > 15",
            mediate=False, consistency="certain",
        )
        block = answer.execution.report.consistency
        assert block["strategy"] == "fallback"
        assert block["repairs_enumerated"] >= 2
        assert _rows(answer) == {("bob",), ("eve",), ("kim",), ("lou",)}

    def test_two_dirty_relations_fall_back(self, federation):
        _register_keys(federation)
        answer = federation.query(
            "SELECT accounts.owner, ratings.score FROM accounts, ratings "
            "WHERE accounts.id = ratings.id",
            mediate=False, consistency="certain",
        )
        assert answer.execution.report.consistency["strategy"] == "fallback"
        # ann (id 1) is rated 4.0 or 2.0 depending on the repair -> neither
        # pairing is certain; bob's cluster disagrees only on balance, which
        # the query never reads, so his single rating survives every repair,
        # as does eve's.
        assert _rows(answer) == {("bob", 5.0), ("eve", 3.0)}

    def test_aggregates_fall_back_exactly(self, federation):
        _register_keys(federation)
        answer = federation.query(
            "SELECT COUNT(*) AS n FROM accounts WHERE accounts.balance > 15",
            mediate=False, consistency="certain",
        )
        assert answer.execution.report.consistency["strategy"] == "fallback"
        # Repairs give 4 rows either way (bob at 20 or 25 both pass > 15),
        # so the count is certain.
        assert _rows(answer) == {(4,)}

    def test_fallback_collapses_exact_duplicates_uniformly(self, federation):
        """Repairs are tuple *sets*: kim's exact-duplicate row counts once,
        with or without an unrelated conflict cluster in the relation."""
        _register_keys(federation)
        answer = federation.query(
            "SELECT COUNT(*) AS n FROM accounts WHERE accounts.balance > 30",
            mediate=False, consistency="certain",
        )
        # kim (50, duplicated) and lou (60): every repair holds each once.
        assert _rows(answer) == {(2,)}
        # Restrict past the conflicted cluster entirely: still collapsed.
        narrowed = federation.query(
            "SELECT COUNT(*) AS n FROM accounts WHERE accounts.balance > 40",
            mediate=False, consistency="certain",
        )
        assert _rows(narrowed) == {(2,)}

    def test_zero_cluster_fallback_still_collapses_duplicates(self):
        """With no conflict clusters the unique repair is still a set: the
        exact-duplicate row must not inflate certain aggregates."""
        federation = build_consistency_federation()
        source = federation.engine.catalog.wrappers.get("ledger").source
        table = source.database.table("accounts")
        table.rows = [row for row in table.rows if row != (2, "bob", 25.0, "us")]
        federation.invalidate_source_cache(wrapper="ledger")
        _register_keys(federation)
        answer = federation.query(
            "SELECT COUNT(*) AS n FROM accounts",
            mediate=False, consistency="certain",
        )
        block = answer.execution.report.consistency
        assert block["strategy"] == "fallback"
        assert block["clusters"] == 0 and block["repairs_enumerated"] == 1
        assert _rows(answer) == {(6,)}  # kim's duplicate counts once

    def test_row_bound_over_clean_relations_is_enumerated(self):
        """Set semantics and a row bound do not commute: the bounded answer is
        deduplicated, not the distinct answer bounded — enumeration's reading,
        which a statement with LIMIT/OFFSET gets keyed or not."""
        federation = build_consistency_federation()
        federation.register_constraint(
            PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
        )
        query = "SELECT ratings.id FROM ratings ORDER BY ratings.id LIMIT 3"
        prepared = federation.pipeline.prepare(query, None, mediate=False)
        for mode in ("certain", "possible"):
            answer = federation.query(query, mediate=False, consistency=mode)
            brute = federation.cqa.execute(prepared, mode, force_strategy="fallback")
            assert answer.execution.report.consistency["strategy"] == "fallback"
            # ids 1, 1, 2 are the bounded rows; DISTINCT … LIMIT 3 would add 3.
            assert list(answer.relation.rows) == list(brute.relation.rows) == [(1,), (2,)]

    def test_non_key_join_falls_back(self, federation):
        _register_keys(federation)
        answer = federation.query(
            "SELECT accounts.id FROM accounts, ratings "
            "WHERE accounts.balance = ratings.score",
            mediate=False, consistency="certain",
        )
        assert answer.execution.report.consistency["strategy"] == "fallback"

    def test_mixed_select_item_falls_back_exactly(self):
        """An item combining the dirty relation's non-key columns with a
        clean relation's defeats per-group reasoning: a value can be certain
        through *different* clean partners in different repairs, so the
        statement must take the fallback — and get the answer right."""
        federation = build_consistency_federation()
        ledger = federation.engine.catalog.wrappers.get("ledger")
        ledger.source.load_sql("CREATE TABLE weights (id integer, w float)")
        ledger.source.database.table("weights").rows = [(2, 5.0), (2, 10.0)]
        federation.register_wrapper(ledger)
        federation.register_constraint(
            PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
        )
        query = (
            "SELECT accounts.balance + weights.w AS total "
            "FROM accounts, weights WHERE accounts.id = weights.id"
        )
        prepared = federation.pipeline.prepare(query, None, mediate=False)
        fast = federation.cqa.execute(prepared, "certain")
        brute = federation.cqa.execute(prepared, "certain", force_strategy="fallback")
        assert fast.report.consistency["strategy"] == "fallback"
        # bob at 20 pairs with w=10 and bob at 25 with w=5: 30.0 is certain
        # though no single (clean row, cluster) skeleton survives all repairs.
        assert {tuple(r) for r in fast.relation.rows} \
            == {tuple(r) for r in brute.relation.rows} == {(30.0,)}

    def test_union_sharing_dirty_relation_falls_back(self, federation):
        """A row can be certain for a UNION while certain for no branch."""
        _register_keys(federation)
        source = federation.engine.catalog.wrappers.get("ledger").source
        source.database.table("accounts").rows.append((2, "bob", -20.0, "us"))
        federation.invalidate_source_cache(wrapper="ledger")

        prepared = federation.pipeline.prepare(
            "SELECT accounts.owner FROM accounts WHERE accounts.balance > 0",
            None, mediate=False,
        )
        # Branch-local certainty would drop bob (one variant is negative)...
        branch_certain = federation.cqa.execute(prepared, "certain")
        assert ("bob",) not in {tuple(r) for r in branch_certain.relation.rows}

        # ...but the UNION with the complementary branch must keep bob: every
        # repair satisfies one side or the other.
        union_sql = (
            "SELECT accounts.owner FROM accounts WHERE accounts.balance > 0 "
            "UNION "
            "SELECT accounts.owner FROM accounts WHERE accounts.balance <= 0"
        )
        import repro.sql.parser as sql_parser

        statement = sql_parser.parse(union_sql)
        plan = federation.engine.planner.plan(statement)
        from repro.pipeline import MediatedPlan, PlanCacheKey

        mediation = federation.mediator.unmediated(
            statement.selects[0], "c_plain"
        )
        prepared_union = MediatedPlan(
            key=PlanCacheKey("t", "c_plain", False, 0, 0),
            mediation=mediation, plan=plan,
        )
        union_answer = federation.cqa.execute(prepared_union, "certain")
        assert union_answer.report.consistency["strategy"] == "fallback"
        assert ("bob",) in {tuple(r) for r in union_answer.relation.rows}

    def test_repair_bound_enforced(self):
        federation = build_consistency_federation(max_repairs=2)
        _register_keys(federation)
        with pytest.raises(RepairEnumerationError, match="more than 2 repairs"):
            federation.query(
                "SELECT a.owner FROM accounts a, ratings b WHERE a.id = b.id",
                mediate=False, consistency="certain",
            )


class TestPropertyStyle:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_rewrite_matches_bruteforce_on_random_instances(self, seed):
        rng = random.Random(seed)
        for _trial in range(8):
            federation = build_consistency_federation()
            source = federation.engine.catalog.wrappers.get("ledger").source
            table = source.database.table("accounts")
            table.rows = []
            for key in range(6):
                for _copy in range(rng.choice([1, 1, 2, 3])):
                    table.rows.append((
                        key, f"o{rng.randint(0, 2)}",
                        float(rng.randint(-2, 3)), "eu",
                    ))
            federation.invalidate_source_cache(wrapper="ledger")
            federation.register_constraint(
                PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
            )
            query = (
                "SELECT accounts.owner FROM accounts WHERE accounts.balance > 0"
            )
            prepared = federation.pipeline.prepare(query, None, mediate=False)
            raw = {tuple(r) for r in federation.engine.execute(prepared.plan).relation.rows}
            for mode in ("certain", "possible"):
                fast = federation.cqa.execute(prepared, mode)
                brute = federation.cqa.execute(prepared, mode, force_strategy="fallback")
                fast_rows = {tuple(r) for r in fast.relation.rows}
                brute_rows = {tuple(r) for r in brute.relation.rows}
                assert fast.report.consistency["strategy"] == "rewrite"
                assert fast_rows == brute_rows, (seed, mode, sorted(table.rows))
                if mode == "certain":
                    assert fast_rows <= raw
                else:
                    assert raw <= fast_rows

    @pytest.mark.parametrize("seed", [7, 23, 41])
    def test_rewrite_with_clean_join_matches_bruteforce(self, seed):
        """The hardest eligible class: dirty relation joined through its key
        to a clean relation, separate select items from both sides."""
        rng = random.Random(seed)
        for _trial in range(5):
            federation = build_consistency_federation()
            ledger = federation.engine.catalog.wrappers.get("ledger").source
            table = ledger.database.table("accounts")
            table.rows = []
            for key in range(5):
                for _copy in range(rng.choice([1, 2, 2])):
                    table.rows.append((
                        key, f"o{rng.randint(0, 2)}",
                        float(rng.randint(-1, 3)), "eu",
                    ))
            reviews = federation.engine.catalog.wrappers.get("reviews").source
            reviews.database.table("ratings").rows = [
                (rng.randint(0, 5), float(rng.randint(0, 4))) for _ in range(8)
            ]
            federation.invalidate_source_cache()
            # Only accounts is keyed; ratings stays clean.
            federation.register_constraint(
                PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
            )
            query = (
                "SELECT accounts.owner, ratings.score FROM accounts, ratings "
                "WHERE accounts.id = ratings.id AND accounts.balance > 0"
            )
            prepared = federation.pipeline.prepare(query, None, mediate=False)
            for mode in ("certain", "possible"):
                fast = federation.cqa.execute(prepared, mode)
                brute = federation.cqa.execute(prepared, mode,
                                               force_strategy="fallback")
                assert fast.report.consistency["strategy"] == "rewrite"
                assert ({tuple(r) for r in fast.relation.rows}
                        == {tuple(r) for r in brute.relation.rows}), (
                    seed, mode, sorted(table.rows),
                    sorted(reviews.database.table("ratings").rows),
                )

    @pytest.mark.parametrize("seed", [5, 17])
    def test_containment_through_joins(self, seed):
        rng = random.Random(seed)
        federation = build_consistency_federation()
        source = federation.engine.catalog.wrappers.get("reviews").source
        table = source.database.table("ratings")
        table.rows = [
            (rng.randint(1, 4), float(rng.randint(0, 5))) for _ in range(10)
        ]
        federation.invalidate_source_cache(wrapper="reviews")
        _register_keys(federation)
        query = (
            "SELECT accounts.owner, ratings.score FROM accounts, ratings "
            "WHERE accounts.id = ratings.id AND ratings.score > 1"
        )
        raw = _rows(federation.query(query, mediate=False))
        certain = _rows(federation.query(query, mediate=False, consistency="certain"))
        possible = _rows(federation.query(query, mediate=False, consistency="possible"))
        assert certain <= raw <= possible


class TestThreading:
    def test_order_by_and_distinct_on_rewrite(self, federation):
        _register_keys(federation)
        answer = federation.query(
            "SELECT DISTINCT accounts.owner FROM accounts "
            "WHERE accounts.balance > 5 ORDER BY owner DESC",
            mediate=False, consistency="certain",
        )
        assert answer.execution.report.consistency["strategy"] == "rewrite"
        # bob stays: his cluster disagrees only on balance, and both variants
        # pass the filter and project to the same owner.
        assert [row[0] for row in answer.relation.rows] == [
            "lou", "kim", "eve", "bob", "ann",
        ]

    def test_statement_report_carries_resilience_block(self, federation):
        _register_keys(federation)
        answer = federation.query(
            LEDGER_QUERY, mediate=False, consistency="certain",
            timeout_seconds=30.0,
        )
        block = answer.execution.report.snapshot()["resilience"]
        # The deadline the consistent statement ran under and its source
        # attempts are in the surfaced resilience block.
        assert block["mode"] == "fail"
        assert block["timeout_seconds"] == 30.0
        assert 0 < block["deadline_remaining_seconds"] <= 30.0
        assert block["attempts"] >= 1
        assert block["degraded_branches"] == []

    def test_streamed_consistent_cursor(self, federation):
        _register_keys(federation)
        cursor = federation.query(
            LEDGER_QUERY, mediate=False, consistency="certain", stream=True
        )
        assert isinstance(cursor, FederationCursor)
        assert [a.name for a in cursor.schema] == ["owner", "balance"]
        first = cursor.fetchmany(2)
        rest = cursor.fetchall()
        assert {tuple(r) for r in first + rest} == {
            ("ann", 10.0), ("eve", 30.0), ("kim", 50.0), ("lou", 60.0),
        }
        assert cursor.report.consistency["strategy"] == "rewrite"
        cursor.close()

    def test_streamed_cursor_counts_the_rows_it_hands_over(self, federation):
        """A consistent cursor is a live stream of the rewritten plan, so the
        streaming block and the engine's counters see it."""
        _register_keys(federation)
        before = federation.statistics()["engine"]["rows_streamed"]
        cursor = federation.query(
            "SELECT accounts.owner FROM accounts WHERE accounts.balance > 5",
            mediate=False, consistency="possible", stream=True,
        )
        rows = cursor.fetchall()
        cursor.close()
        report = cursor.report
        assert report.rows_streamed == report.result_rows == len(rows) == 5
        assert report.first_row_seconds > 0.0
        assert federation.statistics()["engine"]["rows_streamed"] == before + 5

    def test_second_execution_is_one_statement_and_compiles_nothing(self, federation):
        _register_keys(federation)
        first = federation.query(LEDGER_QUERY, mediate=False, consistency="certain")
        before = federation.statistics()["engine"]
        second = federation.query(LEDGER_QUERY, mediate=False, consistency="certain")
        after = federation.statistics()["engine"]
        assert _rows(second) == _rows(first)
        assert {name: after[name] - before[name] for name in (
            "statements_executed", "plans_built", "source_round_trips",
        )} == {"statements_executed": 1, "plans_built": 0, "source_round_trips": 0}

    def test_prepared_consistency_mode_sticks(self, federation):
        _register_keys(federation)
        prepared = federation.prepare(
            LEDGER_QUERY, mediate=False, consistency="certain"
        )
        first = prepared.execute()
        assert _rows(first) == {
            ("ann", 10.0), ("eve", 30.0), ("kim", 50.0), ("lou", 60.0),
        }
        # Source change + invalidation: re-execution recompiles and rescans.
        source = federation.engine.catalog.wrappers.get("ledger").source
        source.database.table("accounts").rows.append((6, "lou", 61.0, "eu"))
        federation.invalidate_source_cache(wrapper="ledger")
        second = prepared.execute()
        assert ("lou", 60.0) not in _rows(second)
        streamed = prepared.execute(stream=True)
        assert {tuple(r) for r in streamed.fetchall()} == _rows(second)

    def test_server_protocol_threading(self, federation):
        _register_keys(federation)
        server = MediationServer(federation)
        response = server.handle(Request("query", {
            "sql": LEDGER_QUERY, "mediate": False, "consistency": "certain",
        }))
        assert response.ok
        rows = {tuple(row) for row in response.payload["relation"]["rows"]}
        assert rows == {
            ("ann", 10.0), ("eve", 30.0), ("kim", 50.0), ("lou", 60.0),
        }
        assert response.payload["execution"]["consistency"]["strategy"] == "rewrite"

        opened = server.handle(Request("open_cursor", {
            "sql": LEDGER_QUERY, "mediate": False, "consistency": "certain",
        }))
        assert opened.ok
        fetched = server.handle(Request("fetch_cursor", {
            "cursor_id": opened.payload["cursor_id"], "count": 100,
        }))
        assert fetched.ok and fetched.payload["done"]
        assert {tuple(row) for row in fetched.payload["rows"]} == rows

        prepared = server.handle(Request("prepare", {
            "sql": LEDGER_QUERY, "mediate": False, "consistency": "certain",
        }))
        assert prepared.ok and prepared.payload["consistency"] == "certain"
        executed = server.handle(Request("execute_prepared", {
            "statement_id": prepared.payload["statement_id"],
        }))
        assert executed.ok
        assert {tuple(row) for row in executed.payload["relation"]["rows"]} == rows

    def test_odbc_driver_threading(self, federation):
        _register_keys(federation)
        connection = odbc.connect(federation)
        cursor = connection.cursor()
        cursor.execute(LEDGER_QUERY, mediate=False, consistency="certain")
        assert {tuple(row) for row in cursor.fetchall()} == {
            ("ann", 10.0), ("eve", 30.0), ("kim", 50.0), ("lou", 60.0),
        }
        streaming = connection.cursor()
        streaming.execute(LEDGER_QUERY, mediate=False, consistency="certain",
                          stream=True)
        assert {tuple(row) for row in streaming.fetchall()} == {
            ("ann", 10.0), ("eve", 30.0), ("kim", 50.0), ("lou", 60.0),
        }
        prepared = connection.prepare(LEDGER_QUERY, mediate=False,
                                      consistency="possible")
        result = prepared.execute()
        assert ("bob", 20.0) in {tuple(row) for row in result.fetchall()}
        prepared.close()


class TestTheFinishOverAMediatedUnion:
    """A multi-branch statement's ORDER BY, LIMIT and aggregates sit in one
    finish above its branches; the strategy reads them there.  The paper's
    federation, with NTT also listed at 2 000 000 USD: r1 keyed on cname
    has one conflict cluster, spread over two branches."""

    @pytest.fixture
    def paper(self):
        from repro.demo.scenarios import build_paper_federation

        scenario = build_paper_federation()
        scenario.source1.database.table("r1").rows.append(("NTT", 2_000_000.0, "USD"))
        return scenario.federation

    @staticmethod
    def _answer(federation, sql, mode):
        answer = federation.query(sql, consistency=mode)
        prepared = federation.pipeline.prepare(sql)
        assert prepared.mediation.branch_count == 3
        brute = federation.cqa.execute(prepared, mode, force_strategy="fallback")
        assert answer.relation.rows == brute.relation.rows
        return answer.execution.report.consistency["strategy"], answer.relation.rows

    @pytest.mark.parametrize("mode", ["certain", "possible"])
    def test_a_bound_over_the_union_takes_enumeration(self, paper, mode):
        paper.register_constraint(PrimaryKey("r2_pk", relation="r2", columns=("cname",)))
        strategy, rows = self._answer(
            paper, "SELECT r1.cname, r1.revenue FROM r1 ORDER BY r1.revenue DESC LIMIT 2", mode)
        assert strategy == "fallback"
        assert rows == [("NTT", 9_600_000.0), ("NTT", 2_000_000.0)]

    @pytest.mark.parametrize("mode", ["certain", "possible"])
    def test_a_clean_statement_keeps_its_finish(self, paper, mode):
        paper.register_constraint(PrimaryKey("r2_pk", relation="r2", columns=("cname",)))
        strategy, rows = self._answer(
            paper, "SELECT r1.cname FROM r1 ORDER BY r1.revenue DESC", mode)
        assert strategy == "clean"
        assert rows == [("NTT",), ("IBM",)]

    def test_a_dirty_relation_under_the_finish_takes_enumeration(self, paper):
        paper.register_constraint(PrimaryKey("r1_pk", relation="r1", columns=("cname",)))
        sql = "SELECT r1.cname, r1.revenue FROM r1 ORDER BY r1.revenue DESC"
        assert self._answer(paper, sql, "certain") == ("fallback", [("IBM", 1_000_000.0)])
        # The finish's ORDER BY orders the union of the repairs too.
        assert self._answer(paper, sql, "possible") == ("fallback", [
            ("NTT", 9_600_000.0), ("NTT", 2_000_000.0), ("IBM", 1_000_000.0)])
