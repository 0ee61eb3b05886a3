"""Unit tests for unification and substitutions."""

import pytest

from repro.datalog.terms import Constant, Variable, compound
from repro.datalog.unify import apply, unify, unify_sequences, walk


class TestUnify:
    def test_variable_binds_to_constant(self):
        substitution = unify(Variable("X"), Constant(5))
        assert substitution == {Variable("X"): Constant(5)}

    def test_constant_matches_itself(self):
        assert unify(Constant("USD"), Constant("USD")) == {}
        assert unify(Constant(1), Constant(1.0)) == {}

    def test_constant_mismatch_fails(self):
        assert unify(Constant("USD"), Constant("JPY")) is None
        assert unify(Constant(True), Constant(1)) is None

    def test_compound_unification_binds_arguments(self):
        substitution = unify(compound("f", Variable("X"), 2), compound("f", 1, Variable("Y")))
        assert apply(Variable("X"), substitution) == Constant(1)
        assert apply(Variable("Y"), substitution) == Constant(2)

    def test_functor_or_arity_mismatch_fails(self):
        assert unify(compound("f", 1), compound("g", 1)) is None
        assert unify(compound("f", 1), compound("f", 1, 2)) is None

    def test_variable_aliasing(self):
        substitution = unify(Variable("X"), Variable("Y"))
        assert apply(Variable("X"), substitution) == apply(Variable("Y"), substitution)

    def test_occurs_check(self):
        assert unify(Variable("X"), compound("f", Variable("X"))) is None

    def test_input_substitution_not_mutated(self):
        initial = {Variable("X"): Constant(1)}
        result = unify(Variable("Y"), Constant(2), initial)
        assert Variable("Y") not in initial
        assert result[Variable("Y")] == Constant(2)

    def test_unify_respects_existing_bindings(self):
        initial = unify(Variable("X"), Constant(1))
        assert unify(Variable("X"), Constant(2), initial) is None
        assert unify(Variable("X"), Constant(1), initial) == initial


class TestSequencesAndHelpers:
    def test_unify_sequences(self):
        substitution = unify_sequences([Variable("X"), Constant(2)], [Constant(1), Constant(2)])
        assert substitution[Variable("X")] == Constant(1)
        assert unify_sequences([Variable("X")], [Constant(1), Constant(2)]) is None

    def test_walk_follows_chains(self):
        substitution = {Variable("X"): Variable("Y"), Variable("Y"): Constant(7)}
        assert walk(Variable("X"), substitution) == Constant(7)

    def test_apply_rebuilds_compounds(self):
        substitution = {Variable("X"): Constant(1)}
        assert apply(compound("f", Variable("X"), Variable("Z")), substitution) == compound("f", 1, Variable("Z"))
