"""Violation scanner: detection, attribution, caching, memory budgets."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.consistency import (
    DenialConstraint,
    FunctionalDependency,
    InclusionDependency,
    PrimaryKey,
    ViolationScanner,
)
from repro.consistency import violations
from repro.datalog.clause import atom, neg, pos
from repro.datalog.terms import Variable
from repro.engine.resilience import ResiliencePolicy
from repro.errors import ConstraintError, PlanningError
from repro.relational.storage import TemporaryStore

from fedbuild import build_consistency_federation


def _declare_all(federation):
    federation.register_constraint(
        PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
    )
    federation.register_constraint(
        PrimaryKey("ratings_pk", relation="ratings", columns=("id",))
    )
    federation.register_constraint(FunctionalDependency(
        "owner_fixes_region", relation="accounts",
        determinants=("owner",), dependents=("region",),
    ))
    federation.register_constraint(InclusionDependency(
        "rating_refs_account", relation="ratings", columns=("id",),
        referenced_relation="accounts", referenced_columns=("id",),
    ))
    x, o, b, r = (Variable(n) for n in "XOBR")
    federation.register_constraint(DenialConstraint(
        "no_negative_balance",
        body=(pos(atom("accounts", x, o, b, r)), pos(atom("lt", b, 0))),
        witness=(x, b),
    ))


class TestDetection:
    def test_primary_key_duplicates(self, federation):
        federation.register_constraint(
            PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
        )
        report = federation.scan_violations()
        finding = report.for_constraint("accounts_pk")
        # id 2 conflicts (distinct balances) and id 5 is an exact duplicate:
        # both are key violations — two tuples share a key either way.
        assert finding.violations == 2
        assert finding.relation == "accounts"
        assert finding.wrapper == "ledger"
        witnessed = {witness["id"] for witness in finding.witnesses}
        assert witnessed == {2, 5}
        conflicting = [w for w in finding.witnesses if w["id"] == 2]
        assert conflicting and "conflicts_with" in conflicting[0]

    def test_functional_dependency(self, federation):
        # bob's two rows agree on region -> the FD holds even where the key
        # does not; plant a region conflict to see it trip.
        source = federation.engine.catalog.wrappers.get("ledger").source
        source.database.table("accounts").rows.append((7, "ann", 70.0, "us"))
        federation.invalidate_source_cache(wrapper="ledger")
        federation.register_constraint(FunctionalDependency(
            "owner_fixes_region", relation="accounts",
            determinants=("owner",), dependents=("region",),
        ))
        report = federation.scan_violations()
        finding = report.for_constraint("owner_fixes_region")
        assert finding.violations == 1
        assert finding.witnesses[0]["owner"] == "ann"

    def test_inclusion_dependency(self, federation):
        federation.register_constraint(InclusionDependency(
            "rating_refs_account", relation="ratings", columns=("id",),
            referenced_relation="accounts", referenced_columns=("id",),
        ))
        report = federation.scan_violations()
        finding = report.for_constraint("rating_refs_account")
        assert finding.violations == 1  # the dangling id 99
        assert finding.witnesses == [{"id": 99}]
        assert finding.wrapper == "reviews"

    def test_denial_constraint_with_builtins(self, federation):
        x, o, b, r = (Variable(n) for n in "XOBR")
        federation.register_constraint(DenialConstraint(
            "no_negative_balance",
            body=(pos(atom("accounts", x, o, b, r)), pos(atom("lt", b, 0))),
            witness=(x, b),
        ))
        report = federation.scan_violations()
        finding = report.for_constraint("no_negative_balance")
        assert finding.violations == 1
        assert finding.witnesses == [{"X": 4, "B": -5.0}]

    def test_per_source_attribution(self, federation):
        _declare_all(federation)
        report = federation.scan_violations()
        attribution = report.by_source()
        assert attribution["ledger"] >= 3  # key dups + negative balance
        assert attribution["reviews"] >= 2  # rating key dup + dangling ref
        assert report.total_violations == sum(attribution.values())
        assert report.dirty

    def test_clean_federation_reports_zero(self):
        federation = build_consistency_federation()
        federation.register_constraint(
            PrimaryKey("ratings_owner_pk", relation="ratings",
                       columns=("id", "score"))
        )
        report = federation.scan_violations()
        assert report.total_violations == 0
        assert not report.dirty

    def test_relation_filter(self, federation):
        _declare_all(federation)
        report = federation.scan_violations(relations=["ratings"])
        names = {finding.constraint for finding in report.findings}
        assert names == {"ratings_pk", "rating_refs_account"}


class TestNullSemantics:
    """SQL's three-valued logic: a comparison with a NULL is no violation,
    and a NULL joins with nothing."""

    def test_a_null_compared_is_no_violation(self, federation):
        source = federation.engine.catalog.wrappers.get("ledger").source
        source.database.table("accounts").rows.append((7, "zed", None, "eu"))
        federation.invalidate_source_cache(wrapper="ledger")
        _declare_all(federation)
        report = federation.scan_violations()
        finding = report.for_constraint("no_negative_balance")
        assert finding.violations == 1
        assert finding.witnesses == [{"X": 4, "B": -5.0}]

    def test_a_null_join_variable_joins_with_nothing(self, federation):
        catalog = federation.engine.catalog
        catalog.wrappers.get("ledger").source.database.table("accounts").rows.append(
            (None, "nul", 1.0, "eu"))
        catalog.wrappers.get("reviews").source.database.table("ratings").rows.append(
            (None, 9.0))
        federation.invalidate_source_cache()
        x, o, b, r, s = (Variable(n) for n in "XOBRS")
        federation.register_constraint(DenialConstraint(
            "rated_above_balance",
            body=(pos(atom("accounts", x, o, b, r)), pos(atom("ratings", x, s)),
                  pos(atom("gt", s, b))),
            witness=(o,),
        ))
        federation.register_constraint(DenialConstraint(
            "unrated",
            body=(pos(atom("accounts", x, o, b, r)), neg(atom("ratings", x, s))),
            witness=(o,),
        ))
        report = federation.scan_violations()
        # The NULL ids do not meet: no rating is above its balance ...
        assert report.for_constraint("rated_above_balance").violations == 0
        # ... and the NULL-id account has no rating (NOT EXISTS).
        unrated = report.for_constraint("unrated")
        assert sorted(witness["O"] for witness in unrated.witnesses) == [
            "joe", "kim", "kim", "lou", "nul"]


class TestCheckQueries:
    def test_an_inclusion_is_one_plan_over_both_sides(self, federation):
        constraint = InclusionDependency(
            "rating_refs_account", relation="ratings", columns=("id",),
            referenced_relation="accounts", referenced_columns=("id",),
        )
        check = constraint.check_query(federation.engine.catalog.schema_of)
        assert [select.tables[0].name for select in check.selects] == ["ratings", "accounts"]
        assert check.witness == ("id",)

    def test_a_receiver_subquery_over_a_catalogued_relation_is_still_refused(self, federation):
        with pytest.raises(PlanningError, match="unknown table binding"):
            federation.query(
                "SELECT accounts.id FROM accounts WHERE NOT EXISTS (SELECT ratings.id "
                "FROM ratings WHERE ratings.id = accounts.id)", mediate=False)

    def test_a_body_that_is_not_range_restricted_is_refused(self, federation):
        x, o, b, r, y = (Variable(n) for n in "XOBRY")
        with pytest.raises(ConstraintError, match="range-restricted"):
            federation.register_constraint(DenialConstraint(
                "unbound_comparison",
                body=(pos(atom("accounts", x, o, b, r)), pos(atom("lt", y, 0))),
            ))


class TestCaching:
    def test_repeat_scan_hits_cache(self, federation):
        federation.register_constraint(
            PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
        )
        first = federation.scan_violations()
        second = federation.scan_violations()
        assert second is first
        stats = federation.scanner.snapshot()
        assert stats["cache_hits"] == 1 and stats["cache_misses"] == 1

    def test_invalidation_forces_rescan(self, federation):
        federation.register_constraint(
            PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
        )
        first = federation.scan_violations()
        source = federation.engine.catalog.wrappers.get("ledger").source
        source.database.table("accounts").rows.append((1, "ann", 11.0, "eu"))
        federation.invalidate_source_cache(wrapper="ledger")
        second = federation.scan_violations()
        assert second is not first
        assert second.for_constraint("accounts_pk").violations == 3

    def test_constraint_registration_invalidates_report(self, federation):
        federation.register_constraint(
            PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
        )
        first = federation.scan_violations()
        federation.register_constraint(
            PrimaryKey("ratings_pk", relation="ratings", columns=("id",))
        )
        second = federation.scan_violations()
        assert second is not first
        assert {finding.constraint for finding in second.findings} == {
            "accounts_pk", "ratings_pk",
        }

    def test_use_cache_false_bypasses(self, federation):
        federation.register_constraint(
            PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
        )
        first = federation.scan_violations()
        fresh = federation.scan_violations(use_cache=False)
        assert fresh is not first
        assert fresh.total_violations == first.total_violations


class TestBudgets:
    def test_budgeted_scan_spills_and_agrees(self):
        federation = build_consistency_federation()
        source = federation.engine.catalog.wrappers.get("ledger").source
        rows = source.database.table("accounts").rows
        for index in range(2000):
            rows.append((1000 + index, f"o{index}", float(index), "eu"))
        rows.append((1000, "o0", 1.0, "eu"))  # one extra planted duplicate
        federation.invalidate_source_cache(wrapper="ledger")
        federation.register_constraint(
            PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
        )

        unbounded = federation.scan_violations()
        tight = ViolationScanner(federation.engine, memory_budget_bytes=16 * 1024)
        budgeted = tight.scan()
        assert budgeted.spill_count > 0
        assert budgeted.peak_memory_bytes <= 16 * 1024 + 1024
        assert (budgeted.for_constraint("accounts_pk").violations
                == unbounded.for_constraint("accounts_pk").violations == 3)

    def test_scans_run_on_the_engine_under_their_own_budget(self):
        # The engine owns execution state: a scan fetches on its pool under
        # its policy and stages into its temp store, with only the memory
        # budget its own — and a scan is no statement.
        federation = build_consistency_federation(memory_budget_bytes=1_000_000)
        engine = federation.engine
        source = engine.catalog.wrappers.get("ledger").source
        rows = source.database.table("accounts").rows
        for index in range(2000):
            rows.append((1000 + index, f"o{index}", float(index), "eu"))
        federation.invalidate_source_cache(wrapper="ledger")
        federation.register_constraint(
            PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
        )
        scanner = ViolationScanner(engine, memory_budget_bytes=16 * 1024)
        # Nothing the scanner holds, nor anything inside that, but the engine.
        held = [value for value in vars(scanner).values() if value is not engine]
        held += [inner for value in held
                 for inner in getattr(value, "__dict__", {}).values()]
        assert not [value for value in held if isinstance(
            value, (ThreadPoolExecutor, TemporaryStore, ResiliencePolicy))]

        tables_created = engine.temp_store.statistics.tables_created
        # A deadline forces pooled dispatch even for a lone fetch.
        report = scanner.scan(timeout_seconds=30.0)
        assert report.spill_count > 0
        assert report.for_constraint("accounts_pk").violations == 2
        assert engine.temp_store.statistics.tables_created > tables_created
        assert engine.temp_store.handles == []
        assert engine.statistics.statements_executed == 0

        answer = federation.query("SELECT accounts.id FROM accounts", mediate=False)
        assert answer.execution.report.snapshot()["memory"]["limit_bytes"] == 1_000_000
        assert engine.statistics.statements_executed == 1

    def test_a_large_denial_joins_and_spills_under_the_budget(self):
        federation = build_consistency_federation()
        catalog = federation.engine.catalog
        accounts = catalog.wrappers.get("ledger").source.database.table("accounts")
        ratings = catalog.wrappers.get("reviews").source.database.table("ratings")
        accounts.rows = [(index, f"o{index}", float(index % 100), "eu") for index in range(5000)]
        ratings.rows = [(index, float(index % 100) - (100 if index % 997 else -1))
                        for index in range(5000)]
        federation.invalidate_source_cache()
        x, o, b, r, s = (Variable(n) for n in "XOBRS")
        federation.register_constraint(DenialConstraint(
            "rated_above_balance",
            body=(pos(atom("accounts", x, o, b, r)), pos(atom("ratings", x, s)),
                  pos(atom("gt", s, b))),
            witness=(x,),
        ))
        planted = [index for index in range(5000) if index % 997 == 0]
        report = ViolationScanner(federation.engine, memory_budget_bytes=64 * 1024).scan()
        assert report.spill_count > 0
        finding = report.for_constraint("rated_above_balance")
        assert finding.violations == len(planted) == 6
        # A spilled join emits partition by partition: any five of the six.
        witnessed = [witness["X"] for witness in finding.witnesses]
        assert len(set(witnessed)) == 5 and set(witnessed) < set(planted)

    def test_an_anti_join_spills_and_keeps_null_references(self):
        federation = build_consistency_federation()
        catalog = federation.engine.catalog
        accounts = catalog.wrappers.get("ledger").source.database.table("accounts")
        ratings = catalog.wrappers.get("reviews").source.database.table("ratings")
        accounts.rows = [(None if index % 1000 == 1 else index, f"o{index}", 1.0, "eu")
                         for index in range(5000)]
        ratings.rows = [(index, 1.0) for index in range(5000) if index % 1000 != 2]
        federation.invalidate_source_cache()
        x, o, b, r, s = (Variable(n) for n in "XOBRS")
        federation.register_constraint(DenialConstraint(
            "unrated", body=(pos(atom("accounts", x, o, b, r)), neg(atom("ratings", x, s))),
            witness=(o,),
        ))
        federation.register_constraint(InclusionDependency(
            "account_rated", relation="accounts", columns=("id",),
            referenced_relation="ratings", referenced_columns=("id",),
        ))
        report = ViolationScanner(federation.engine, memory_budget_bytes=16 * 1024).scan()
        assert report.spill_count > 0
        # Five NULL ids and five unrated ones; an inclusion skips the NULLs.
        assert report.for_constraint("unrated").violations == 10
        assert report.for_constraint("account_rated").violations == 5

    def test_a_spilled_anti_join_reads_partitions_nothing_matches(self):
        # Four referenced ids fill at most four of the spilled partitions; the
        # references hashed to the others match nothing.
        federation = build_consistency_federation()
        catalog = federation.engine.catalog
        catalog.wrappers.get("ledger").source.database.table("accounts").rows = [
            (index, f"o{index}", 1.0, "eu") for index in range(5000)]
        catalog.wrappers.get("reviews").source.database.table("ratings").rows = [
            (index % 4, 1.0) for index in range(5000)]
        federation.invalidate_source_cache()
        federation.register_constraint(InclusionDependency(
            "account_rated", relation="accounts", columns=("id",),
            referenced_relation="ratings", referenced_columns=("id",),
        ))
        report = ViolationScanner(federation.engine, memory_budget_bytes=16 * 1024).scan()
        assert report.spill_count > 0
        assert report.for_constraint("account_rated").violations == 4996

    def test_witness_cap(self, federation, monkeypatch):
        monkeypatch.setattr(violations, "MAX_WITNESSES", 1)
        scanner = ViolationScanner(federation.engine)
        federation.register_constraint(
            PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
        )
        report = scanner.scan()
        finding = report.for_constraint("accounts_pk")
        assert finding.violations == 2
        assert len(finding.witnesses) == 1

    def test_snapshot_shape(self, federation):
        _declare_all(federation)
        snapshot = federation.scan_violations().snapshot()
        assert set(snapshot) >= {
            "generation", "total_violations", "rows_scanned",
            "elapsed_seconds", "by_source", "findings",
        }
        assert snapshot["rows_scanned"] > 0
