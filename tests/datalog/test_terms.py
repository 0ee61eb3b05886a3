"""Unit tests for logic terms."""

import pytest

from repro.datalog.terms import (
    Compound,
    Constant,
    Variable,
    compound,
    fresh_var,
    lift,
    rename_term,
    term_to_python,
    variables_of,
)


class TestConstruction:
    def test_var_const_compound(self):
        term = compound("skolem", "revenue", Variable("Row"))
        assert term.functor == "skolem"
        assert term.args == (Constant("revenue"), Variable("Row"))
        assert term.arity == 2

    def test_lift_passthrough_and_wrap(self):
        assert lift(Variable("X")) == Variable("X")
        assert lift(42) == Constant(42)

    def test_fresh_vars_are_distinct(self):
        assert fresh_var() != fresh_var()

    def test_str_rendering(self):
        assert str(compound("f", Variable("X"), 1)) == "f(X, 1)"
        assert str(Constant("usd")) == "'usd'"
        assert str(Variable("X")) == "X"


class TestStructure:
    def test_variables_of(self):
        term = compound("f", Variable("X"), compound("g", Variable("Y"), Variable("X")))
        assert [variable.name for variable in variables_of(term)] == ["X", "Y", "X"]

    def test_term_to_python(self):
        assert term_to_python(Constant(3)) == 3
        assert term_to_python(compound("pair", 1, "a")) == ("pair", 1, "a")
        with pytest.raises(ValueError):
            term_to_python(Variable("X"))

    def test_rename_term_consistent(self):
        mapping = {}
        term = compound("f", Variable("X"), Variable("X"), Variable("Y"))
        renamed = rename_term(term, mapping)
        assert renamed.args[0] == renamed.args[1]
        assert renamed.args[0] != renamed.args[2]
        assert renamed.args[0] != Variable("X")
