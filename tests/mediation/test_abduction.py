"""Unit tests for the abductive enumeration of mediation branches."""

import pytest

from repro.errors import AbductionError
from repro.coin.context import Guard
from repro.coin.conversion import Operand
from repro.demo.scenarios import build_paper_coin_system
from repro.mediation.abduction import (
    MediationBranch,
    enumerate_branches,
    enumerate_branches_naive,
    order_branches,
)
from repro.mediation.constraints import normalize_guards
from repro.mediation.conflicts import ConflictAnalysis, ModifierResolution, SemanticValueRef, analyze_query
from repro.sql.parser import parse

PAPER_QUERY = (
    "SELECT r1.cname, r1.revenue FROM r1, r2 "
    "WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses"
)


def paper_analyses():
    return analyze_query(parse(PAPER_QUERY), build_paper_coin_system(), "c_receiver")


class TestEnumeration:
    def test_paper_example_produces_three_branches(self):
        branches = enumerate_branches(paper_analyses())
        assert len(branches) == 3

    def test_branches_are_mutually_consistent_assumption_sets(self):
        for branch in enumerate_branches(paper_analyses()):
            assert normalize_guards(branch.guards) == branch.guards

    def test_branch_guard_sets_match_paper(self):
        branches = order_branches(enumerate_branches(paper_analyses()))
        signatures = [tuple(guard.describe() for guard in branch.guards) for branch in branches]
        assert signatures[0] == ("r1.currency = 'USD'",)
        assert signatures[1] == ("r1.currency = 'JPY'",)
        assert set(signatures[2]) == {"r1.currency <> 'JPY'", "r1.currency <> 'USD'"}

    def test_branch_conversion_counts(self):
        branches = order_branches(enumerate_branches(paper_analyses()))
        assert [len(branch.conversions) for branch in branches] == [0, 2, 1]

    def test_no_analyses_gives_single_empty_branch(self):
        branches = enumerate_branches([])
        assert len(branches) == 1
        assert branches[0].guards == ()
        assert branches[0].resolutions == ()

    def test_empty_resolution_list_raises(self):
        value = SemanticValueRef("r1", "r1", "revenue", "companyFinancials", "c1")
        analysis = ConflictAnalysis(value=value, modifier="currency", receiver_value="USD",
                                    resolutions=[])
        with pytest.raises(AbductionError):
            enumerate_branches([analysis])

    def test_max_branches_guard(self):
        with pytest.raises(AbductionError):
            enumerate_branches(paper_analyses(), max_branches=1)


class TestNaiveEnumeration:
    def test_unpruned_cross_product_is_larger(self):
        analyses = paper_analyses()
        pruned = enumerate_branches(analyses)
        naive = enumerate_branches_naive(analyses, prune=False)
        # currency(2 options for r1) x scale(2) x currency(1 for r2) x scale(1) = 4 combos.
        assert len(naive) == 4
        assert len(pruned) == 3

    def test_naive_with_pruning_matches_abduction(self):
        analyses = paper_analyses()
        pruned_naive = enumerate_branches_naive(analyses, prune=True)
        abductive = enumerate_branches(analyses)
        assert len(pruned_naive) == len(abductive)
        naive_signatures = {
            tuple(sorted(guard.describe() for guard in branch.guards)) for branch in pruned_naive
        }
        abductive_signatures = {
            tuple(sorted(guard.describe() for guard in branch.guards)) for branch in abductive
        }
        assert naive_signatures == abductive_signatures


class TestOrdering:
    def test_order_is_deterministic_and_paper_like(self):
        branches = order_branches(enumerate_branches(paper_analyses()))
        reordered = order_branches(list(reversed(branches)))
        assert [b.guards for b in reordered] == [b.guards for b in branches]
        # The no-conversion (USD) branch always comes first.
        assert len(branches[0].conversions) == 0

    def test_describe_mentions_assumptions(self):
        branch = order_branches(enumerate_branches(paper_analyses()))[1]
        text = branch.describe()
        assert "r1.currency = 'JPY'" in text
        assert "convert" in text
