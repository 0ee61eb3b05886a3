"""Clause indexing: first-argument buckets.

The knowledge base's index must be invisible to resolution semantics — same
solutions, same order — while letting the engine skip clauses that cannot
unify.  These tests pin both properties.
"""

from decimal import Decimal

from repro.datalog.clause import KnowledgeBase, atom, pos, rule
from repro.datalog.engine import Resolver
from repro.datalog.terms import Variable, term_to_python
from repro.datalog.unify import apply

N, X, Y = Variable("N"), Variable("X"), Variable("Y")


def _kb(*heads_and_rules):
    kb = KnowledgeBase()
    for entry in heads_and_rules:
        kb.add(entry if hasattr(entry, "head") else rule(entry))
    return kb


def _solve(kb, goal):
    return list(Resolver(kb).solve([pos(goal)]))


def _heads(kb, goal):
    return [str(entry.head) for _seq, entry, _ground in kb.goal_entries(goal)]


class TestGoalEntries:
    def build(self):
        return _kb(atom("p", 1, "a"), atom("p", 2, "b"),
                   rule(atom("p", N, Y), [atom("q", N, Y)]), atom("p", 1, "c"))

    def test_bound_first_argument_prunes_candidates(self):
        # Facts with first arg 1, plus the variable-headed rule; p(2, b) pruned.
        assert _heads(self.build(), atom("p", 1, Y)) == ["p(1, 'a')", "p(N, Y)", "p(1, 'c')"]

    def test_unbound_first_argument_returns_all_in_order(self):
        assert _heads(self.build(), atom("p", X, Y)) == [
            "p(1, 'a')", "p(2, 'b')", "p(N, Y)", "p(1, 'c')"]

    def test_numeric_keys_coerce_like_the_unifier(self):
        assert _heads(_kb(atom("r", 1), atom("r", 2)), atom("r", 1.0)) == ["r(1)"]

    def test_boolean_keys_stay_distinct_from_numbers(self):
        assert _heads(_kb(atom("flag", True), atom("flag", 1)), atom("flag", True)) == [
            "flag(True)"]

    def test_ground_flag_marks_variable_free_clauses(self):
        flags = [ground for _seq, _rule, ground in self.build().goal_entries(atom("p", X, Y))]
        assert flags == [True, True, False, True]

    def test_decimal_constants_stay_on_the_scan_path(self):
        # _constants_equal falls back to == for exotic numerics, which no
        # bucket key can mirror: Decimal clauses and goals bypass the index.
        kb = _kb(atom("p", 1), atom("p", Decimal("2")))
        assert _solve(kb, atom("p", Decimal("1")))  # Decimal("1") == 1
        assert _solve(kb, atom("p", 2))             # 2 == Decimal("2")
        assert not _solve(kb, atom("p", 3))


class TestResolutionSemanticsUnchanged:
    def test_duplicate_facts_yield_duplicate_solutions(self):
        assert len(_solve(_kb(atom("d", 1), atom("d", 1)), atom("d", 1))) == 2

    def test_indexed_and_scan_order_agree(self):
        kb = _kb(atom("edge", "a", "b"), rule(atom("edge", X, "z"), [atom("mid", X)]),
                 atom("edge", "a", "c"), atom("mid", "a"))
        where = Variable("W")
        solutions = _solve(kb, atom("edge", "a", where))
        assert [term_to_python(apply(where, solution.substitution))
                for solution in solutions] == ["b", "z", "c"]
