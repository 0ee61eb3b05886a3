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
from repro.datalog.clause import atom, pos
from repro.datalog.terms import Variable
from repro.engine.resilience import ResiliencePolicy
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

    def test_witness_cap(self, federation):
        scanner = ViolationScanner(federation.engine, max_witnesses=1)
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
