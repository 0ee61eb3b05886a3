"""Unit tests for atoms, rules and knowledge bases."""

import pytest

from repro.errors import DatalogError
from repro.datalog.clause import Atom, KnowledgeBase, Literal, atom, fact, neg, pos, rule
from repro.datalog.terms import var


class TestAtomsAndLiterals:
    def test_atom_builder_lifts_constants(self):
        a = atom("parent", "tom", var("X"))
        assert a.predicate == "parent"
        assert a.arity == 2
        assert a.indicator == ("parent", 2)

    def test_atom_rename_is_consistent(self):
        a = atom("p", var("X"), var("X"))
        renamed = a.rename({})
        assert renamed.args[0] == renamed.args[1]
        assert renamed.args[0] != var("X")

    def test_literal_signs(self):
        a = atom("p", 1)
        assert pos(a).positive is True
        assert neg(a).positive is False
        assert str(neg(a)) == "not p(1)"


class TestRules:
    def test_fact_is_rule_without_body(self):
        f = fact("parent", "tom", "bob")
        assert f.is_fact
        assert str(f) == "parent('tom', 'bob')."

    def test_rule_accepts_atoms_and_literals(self):
        r = rule(atom("p", var("X")), [atom("q", var("X")), neg(atom("r", var("X")))])
        assert len(r.body) == 2
        assert r.body[1].positive is False

    def test_rule_rejects_garbage_body(self):
        with pytest.raises(DatalogError):
            rule(atom("p"), ["not-a-literal"])

    def test_rename_apart_links_head_and_body(self):
        r = rule(atom("p", var("X")), [atom("q", var("X"))])
        renamed = r.rename_apart()
        assert renamed.head.args[0] == renamed.body[0].atom.args[0]
        assert renamed.head.args[0] != var("X")

    def test_label_preserved(self):
        r = rule(atom("p"), [], label="ctx:c1")
        assert r.rename_apart().label == "ctx:c1"


class TestKnowledgeBase:
    def test_indexing_by_predicate_and_arity(self):
        kb = KnowledgeBase()
        kb.add_fact("p", 1)
        kb.add_fact("p", 1, 2)
        kb.add(rule(atom("q", var("X")), [atom("p", var("X"))]))
        assert len(kb.rules_for("p", 1)) == 1
        assert len(kb.rules_for("p", 2)) == 1
        assert kb.defines("q", 1)
        assert not kb.defines("q", 2)
        assert len(kb) == 3

    def test_predicates_listing(self):
        kb = KnowledgeBase()
        kb.add_fact("b", 1)
        kb.add_fact("a", 1, 2)
        assert kb.predicates == [("a", 2), ("b", 1)]

    def test_iteration_and_str(self):
        kb = KnowledgeBase()
        kb.add_fact("p", 1)
        assert [str(r) for r in kb] == ["p(1)."]
        assert "p(1)" in str(kb)
