"""Terms of the deductive substrate: variables, constants and compound terms.

The COIN framework is "built on a deductive and object-oriented data model of
the family of Frame-Logic".  This reproduction encodes that model over a
conventional logic-programming term language: semantic objects become compound
(skolem) terms, attribute/modifier relationships become predicates, and the
context and elevation axioms become Horn clauses evaluated by
:mod:`repro.datalog.engine`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Tuple, Union

#: Anything that can appear as an argument of an atom.
Term = Union["Variable", "Constant", "Compound"]


@dataclass(frozen=True)
class Variable:
    """A logic variable, identified by name."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({self.name!r})"


@dataclass(frozen=True)
class Constant:
    """A ground scalar value (string, number, boolean or None)."""

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return repr(self.value)
        return str(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constant({self.value!r})"


@dataclass(frozen=True)
class Compound:
    """A functor applied to argument terms, e.g. ``skolem(revenue, 'NTT')``."""

    functor: str
    args: Tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.functor
        return f"{self.functor}({', '.join(str(arg) for arg in self.args)})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Compound({self.functor!r}, {self.args!r})"

    @property
    def arity(self) -> int:
        return len(self.args)


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

_variable_counter = itertools.count(1)


def var(name: str) -> Variable:
    """Build a variable."""
    return Variable(name)


def fresh_var(prefix: str = "_G") -> Variable:
    """Build a globally fresh variable (used to standardize clauses apart)."""
    return Variable(f"{prefix}{next(_variable_counter)}")


def const(value: Any) -> Constant:
    """Build a constant."""
    return Constant(value)


def compound(functor: str, *args: Any) -> Compound:
    """Build a compound term, lifting raw Python values to constants."""
    return Compound(functor, tuple(lift(arg) for arg in args))


def lift(value: Any) -> Term:
    """Lift a Python value into a term (terms pass through unchanged)."""
    if isinstance(value, (Variable, Constant, Compound)):
        return value
    return Constant(value)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def is_ground(term: Term) -> bool:
    """True when the term contains no variables."""
    if isinstance(term, Variable):
        return False
    if isinstance(term, Compound):
        return all(is_ground(arg) for arg in term.args)
    return True


def variables_of(term: Term) -> Iterator[Variable]:
    """Yield every variable occurring in the term (with repetitions)."""
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, Compound):
        for arg in term.args:
            yield from variables_of(arg)


def term_to_python(term: Term) -> Any:
    """Convert a ground term to a plain Python value.

    Constants unwrap to their value; compound terms become
    ``(functor, arg0, arg1, ...)`` tuples, which is enough for callers that
    only need a hashable, comparable representation (the abduction engine's
    answer keys, for instance).
    """
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, Compound):
        return (term.functor,) + tuple(term_to_python(arg) for arg in term.args)
    raise ValueError(f"term {term} is not ground")


def rename_term(term: Term, mapping: Dict[Variable, Variable]) -> Term:
    """Rename variables according to ``mapping``, creating fresh ones on demand."""
    if isinstance(term, Variable):
        if term not in mapping:
            mapping[term] = fresh_var(f"_{term.name}_")
        return mapping[term]
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(rename_term(arg, mapping) for arg in term.args))
    return term
