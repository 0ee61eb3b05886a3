"""Unit tests for atoms, literals and rules."""

import pytest

from repro.errors import DatalogError
from repro.datalog.clause import KnowledgeBase, atom, neg, pos, rule
from repro.datalog.terms import Variable


class TestAtomsAndLiterals:
    def test_atom_builder_lifts_constants(self):
        a = atom("parent", "tom", Variable("X"))
        assert a.predicate == "parent"
        assert a.arity == 2
        assert a.indicator == ("parent", 2)

    def test_atom_rename_is_consistent(self):
        a = atom("p", Variable("X"), Variable("X"))
        renamed = a.rename({})
        assert renamed.args[0] == renamed.args[1]
        assert renamed.args[0] != Variable("X")

    def test_literal_signs(self):
        a = atom("p", 1)
        assert pos(a).positive is True
        assert neg(a).positive is False
        assert str(neg(a)) == "not p(1)"


class TestRules:
    def test_rule_accepts_atoms_and_literals(self):
        r = rule(atom("p", Variable("X")), [atom("q", Variable("X")), neg(atom("r", Variable("X")))])
        assert len(r.body) == 2
        assert r.body[1].positive is False

    def test_rule_rejects_garbage_body(self):
        with pytest.raises(DatalogError):
            rule(atom("p"), ["not-a-literal"])

    def test_rename_apart_links_head_and_body(self):
        r = rule(atom("p", Variable("X")), [atom("q", Variable("X"))])
        renamed = r.rename_apart()
        assert renamed.head.args[0] == renamed.body[0].atom.args[0]
        assert renamed.head.args[0] != Variable("X")


class TestKnowledgeBase:
    def test_indexing_by_predicate_and_arity(self):
        kb = KnowledgeBase()
        kb.add(rule(atom("p", 1)))
        kb.add(rule(atom("p", 1, 2)))
        kb.add(rule(atom("q", Variable("X")), [atom("p", Variable("X"))]))
        assert [str(entry.head) for _seq, entry, _ground in kb.goal_entries(atom("p", 1))] == [
            "p(1)"]
        assert len(kb.goal_entries(atom("p", 1, Variable("Y")))) == 1
        assert len(kb.goal_entries(atom("q", Variable("X")))) == 1
        assert not kb.goal_entries(atom("q", 1, 2))
