"""Deductive substrate: terms, unification, Horn clauses and SLD(NF) resolution.

The COIN framework is defined over a deductive object-oriented data model
(Frame-Logic family).  The reproduction's mediator reads that model — the
domain model, elevation axioms and context theories — directly
(:mod:`repro.coin`, :mod:`repro.mediation.conflicts`); none of it is compiled
to rules.  :class:`~repro.datalog.engine.Resolver` runs over two knowledge
bases: the abductive enumeration of a mediated query's branches
(:mod:`repro.mediation.abduction`, with ``choose/2`` abducible), and the
facts a violation scan streams in to solve a denial constraint's body
(:mod:`repro.consistency.violations`), whose literals, variables and
builtins the constraint language spells with this package.
"""

from repro.datalog.terms import (
    Compound,
    Constant,
    Term,
    Variable,
    compound,
    const,
    fresh_var,
    is_ground,
    lift,
    term_to_python,
    var,
    variables_of,
)
from repro.datalog.unify import Substitution, apply, compose, unify, unify_sequences, walk
from repro.datalog.clause import (
    Atom,
    KnowledgeBase,
    Literal,
    Rule,
    atom,
    fact,
    neg,
    pos,
    rule,
)
from repro.datalog.builtins import BUILTINS, call_builtin, evaluate_arithmetic, is_builtin
from repro.datalog.engine import ResolutionConfig, Resolver, Solution, solve

__all__ = [
    "Compound",
    "Constant",
    "Term",
    "Variable",
    "compound",
    "const",
    "fresh_var",
    "is_ground",
    "lift",
    "term_to_python",
    "var",
    "variables_of",
    "Substitution",
    "apply",
    "compose",
    "unify",
    "unify_sequences",
    "walk",
    "Atom",
    "KnowledgeBase",
    "Literal",
    "Rule",
    "atom",
    "fact",
    "neg",
    "pos",
    "rule",
    "BUILTINS",
    "call_builtin",
    "evaluate_arithmetic",
    "is_builtin",
    "ResolutionConfig",
    "Resolver",
    "Solution",
    "solve",
]
