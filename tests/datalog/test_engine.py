"""Unit tests for SLD resolution and abduction."""

import pytest

from repro.errors import ResolutionError
from repro.datalog.clause import KnowledgeBase, atom, neg, pos, rule
from repro.datalog.engine import ResolutionConfig, Resolver
from repro.datalog.terms import Variable, term_to_python
from repro.datalog.unify import apply


def solve(kb, goals, **config):
    return list(Resolver(kb, ResolutionConfig(**config)).solve(goals))


def value(solution, variable):
    return term_to_python(apply(variable, solution.substitution))


@pytest.fixture
def family_kb():
    X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
    kb = KnowledgeBase()
    for parent, child in [("tom", "bob"), ("tom", "liz"), ("bob", "ann"), ("bob", "pat")]:
        kb.add(rule(atom("parent", parent, child)))
    kb.add(rule(atom("grandparent", X, Z), [atom("parent", X, Y), atom("parent", Y, Z)]))
    kb.add(rule(atom("ancestor", X, Y), [atom("parent", X, Y)]))
    kb.add(rule(atom("ancestor", X, Z), [atom("parent", X, Y), atom("ancestor", Y, Z)]))
    return kb


class TestResolution:
    def test_ground_query(self, family_kb):
        assert solve(family_kb, [pos(atom("parent", "tom", "bob"))])
        assert not solve(family_kb, [pos(atom("parent", "bob", "tom"))])

    def test_variable_bindings(self, family_kb):
        solutions = solve(family_kb, [pos(atom("grandparent", "tom", Variable("W")))])
        assert sorted(value(solution, Variable("W")) for solution in solutions) == ["ann", "pat"]

    def test_recursive_rules(self, family_kb):
        solutions = solve(family_kb, [pos(atom("ancestor", "tom", Variable("W")))])
        assert sorted({value(solution, Variable("W")) for solution in solutions}) == [
            "ann", "bob", "liz", "pat",
        ]

    def test_conjunction_of_goals(self, family_kb):
        solutions = solve(family_kb, [
            pos(atom("parent", Variable("X"), "ann")),
            pos(atom("parent", "tom", Variable("X"))),
        ])
        assert [value(solution, Variable("X")) for solution in solutions] == ["bob"]

    def test_unknown_predicate_fails_silently(self, family_kb):
        assert solve(family_kb, [pos(atom("sibling", Variable("X"), Variable("Y")))]) == []

    def test_max_solutions(self, family_kb):
        solutions = solve(family_kb, [pos(atom("parent", Variable("X"), Variable("Y")))],
                          max_solutions=1)
        assert len(solutions) == 1

    def test_depth_limit(self):
        kb = KnowledgeBase()
        kb.add(rule(atom("loop", Variable("X")), [atom("loop", Variable("X"))]))
        with pytest.raises(ResolutionError):
            solve(kb, [pos(atom("loop", 1))], max_depth=50)

    def test_negative_literal_is_refused(self, family_kb):
        with pytest.raises(ResolutionError, match="negative literal"):
            solve(family_kb, [neg(atom("parent", "ann", "tom"))])


class TestAbduction:
    def test_abducible_goal_is_assumed(self):
        kb = KnowledgeBase()
        kb.add(rule(atom("answerable", Variable("Q")), [atom("assume", Variable("Q"), "usd")]))
        solutions = solve(kb, [pos(atom("answerable", "q1"))], abducibles={("assume", 2)})
        assert len(solutions) == 1
        assert str(solutions[0].abduced[0]) == "assume('q1', 'usd')"

    def test_non_abducible_unknown_goal_fails(self):
        kb = KnowledgeBase()
        kb.add(rule(atom("answerable", Variable("Q")), [atom("assume", Variable("Q"), "usd")]))
        assert solve(kb, [pos(atom("answerable", "q1"))]) == []

    def test_abduction_filter_can_veto(self):
        kb = KnowledgeBase()
        kb.add(rule(atom("ok", Variable("X")), [atom("assume", Variable("X"))]))

        def reject_everything(assumed, abduced, substitution):
            return False

        assert solve(kb, [pos(atom("ok", 1))], abducibles={("assume", 1)},
                     abduction_filter=reject_everything) == []

    def test_abduction_accumulates_assumptions(self):
        kb = KnowledgeBase()
        kb.add(rule(atom("both"), [atom("assume", "a"), atom("assume", "b")]))
        solutions = solve(kb, [pos(atom("both"))], abducibles={("assume", 1)})
        assert len(solutions) == 1
        assert len(solutions[0].abduced) == 2

    def test_clauses_preferred_but_abduction_still_offered(self):
        kb = KnowledgeBase()
        kb.add(rule(atom("assume", "known")))
        kb.add(rule(atom("ok", Variable("X")), [atom("assume", Variable("X"))]))
        solutions = solve(kb, [pos(atom("ok", "known"))], abducibles={("assume", 1)})
        # One solution from the fact, one from assuming the literal outright.
        assert len(solutions) == 2
        assert solutions[0].abduced == ()
        assert len(solutions[1].abduced) == 1
