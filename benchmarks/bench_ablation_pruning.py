"""Ablation — consistency pruning in the abductive enumeration (PERFORMANCE.md,
"Paper-artifact benches").

The mediator only emits UNION branches whose accumulated context assumptions
are mutually consistent.  This ablation compares the number of branches (and
the enumeration latency) produced by the abductive procedure against a naive
cross-product enumeration without the constraint store, as the number of
attribute-valued (i.e. case-splitting) modifiers in the query grows.
"""

import pytest

from repro.coin.context import Context, Guard, ModifierCase, ConstantValue
from repro.coin.conversion import build_financial_conversions
from repro.coin.domain import build_financial_domain_model
from repro.coin.elevation import ElevationRegistry
from repro.coin.context import ContextRegistry
from repro.coin.system import CoinSystem
from repro.mediation.abduction import enumerate_branches, enumerate_branches_naive
from repro.mediation.conflicts import analyze_query
from repro.sql.parser import parse


def build_wide_system(column_count: int) -> CoinSystem:
    """One relation with ``column_count`` monetary columns, each currency-tagged."""
    domain_model = build_financial_domain_model()
    contexts = ContextRegistry()
    source = Context("c_source")
    source.declare_attribute("companyFinancials", "currency", "currency")
    source.declare_cases("companyFinancials", "scaleFactor", [
        ModifierCase(ConstantValue(1000), (Guard("currency", "=", "JPY"),)),
        ModifierCase(ConstantValue(1), (Guard("currency", "<>", "JPY"),)),
    ])
    receiver = Context("c_receiver")
    receiver.declare_constant("companyFinancials", "currency", "USD")
    receiver.declare_constant("companyFinancials", "scaleFactor", 1)
    contexts.register(source)
    contexts.register(receiver)

    elevations = ElevationRegistry()
    columns = {"currency": "currencyType"}
    for index in range(column_count):
        columns[f"amount{index}"] = "companyFinancials"
    elevations.elevate("s", "wide", "c_source", columns)

    conversions = build_financial_conversions(domain_model)
    return CoinSystem(domain_model, contexts, elevations, conversions, name="ablation")


def query_over(column_count: int) -> str:
    columns = ", ".join(f"wide.amount{index}" for index in range(column_count))
    return f"SELECT {columns} FROM wide"


def test_ablation_branch_counts():
    print("\n=== Ablation: branches with vs without consistency pruning ===")
    print(f"{'monetary columns':>17} {'pruned (abduction)':>20} {'naive cross product':>21}")
    for column_count in (1, 2, 3):
        system = build_wide_system(column_count)
        analyses = analyze_query(parse(query_over(column_count)), system, "c_receiver")
        pruned = enumerate_branches(analyses, max_branches=4096)
        naive = enumerate_branches_naive(analyses, prune=False)
        print(f"{column_count:>17} {len(pruned):>20} {len(naive):>21}")
        # All columns share the single currency column, so the consistent
        # combinations stay at 3 per column-set while the naive enumeration
        # explodes as 4^n.
        assert len(naive) == 4 ** column_count
        assert len(pruned) < len(naive) or column_count == 0


def test_ablation_pruned_enumeration_latency(benchmark):
    system = build_wide_system(3)
    analyses = analyze_query(parse(query_over(3)), system, "c_receiver")
    branches = benchmark(lambda: enumerate_branches(analyses, max_branches=4096))
    benchmark.extra_info["branches"] = len(branches)


def test_ablation_naive_enumeration_latency(benchmark):
    system = build_wide_system(3)
    analyses = analyze_query(parse(query_over(3)), system, "c_receiver")
    branches = benchmark(lambda: enumerate_branches_naive(analyses, prune=False))
    benchmark.extra_info["branches"] = len(branches)
