"""Substitutions and unification.

A substitution is an immutable-by-convention dict mapping variables to terms.
``unify`` extends a substitution so two terms become equal, or returns None
when they cannot.  The occurs check is performed: the knowledge bases built by
the mediation layer are small, so the safety is worth the cost.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.datalog.terms import Compound, Constant, Term, Variable

Substitution = Dict[Variable, Term]


def walk(term: Term, substitution: Substitution) -> Term:
    """Follow variable bindings until reaching a non-variable or unbound variable."""
    while isinstance(term, Variable) and term in substitution:
        term = substitution[term]
    return term


def apply(term: Term, substitution: Substitution) -> Term:
    """Apply a substitution throughout a term."""
    term = walk(term, substitution)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(apply(arg, substitution) for arg in term.args))
    return term


def occurs_in(variable: Variable, term: Term, substitution: Substitution) -> bool:
    """True when ``variable`` occurs in ``term`` under the substitution."""
    term = walk(term, substitution)
    if term == variable:
        return True
    if isinstance(term, Compound):
        return any(occurs_in(variable, arg, substitution) for arg in term.args)
    return False


def unify(left: Term, right: Term, substitution: Optional[Substitution] = None) -> Optional[Substitution]:
    """Unify two terms, returning an extended substitution or None.

    The input substitution is never mutated; a new dict is returned on
    success.
    """
    if substitution is None:
        substitution = {}
    left = walk(left, substitution)
    right = walk(right, substitution)

    if isinstance(left, Variable) and isinstance(right, Variable) and left == right:
        return substitution
    if isinstance(left, Variable):
        if occurs_in(left, right, substitution):
            return None
        extended = dict(substitution)
        extended[left] = right
        return extended
    if isinstance(right, Variable):
        return unify(right, left, substitution)

    if isinstance(left, Constant) and isinstance(right, Constant):
        return substitution if _constants_equal(left.value, right.value) else None

    if isinstance(left, Compound) and isinstance(right, Compound):
        if left.functor != right.functor or left.arity != right.arity:
            return None
        current: Optional[Substitution] = substitution
        for left_arg, right_arg in zip(left.args, right.args):
            current = unify(left_arg, right_arg, current)
            if current is None:
                return None
        return current

    return None


def unify_sequences(lefts: Sequence[Term], rights: Sequence[Term],
                    substitution: Optional[Substitution] = None) -> Optional[Substitution]:
    """Unify two equal-length sequences of terms element-wise."""
    if len(lefts) != len(rights):
        return None
    current: Optional[Substitution] = dict(substitution) if substitution else {}
    for left, right in zip(lefts, rights):
        current = unify(left, right, current)
        if current is None:
            return None
    return current


def _constants_equal(left, right) -> bool:
    """Constant equality with numeric coercion but no bool/int confusion."""
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right
