"""Deductive substrate: terms, unification, Horn clauses and SLD resolution
with abduction.

The COIN framework is defined over a deductive object-oriented data model
(Frame-Logic family).  The reproduction's mediator reads that model — the
domain model, elevation axioms and context theories — directly
(:mod:`repro.coin`, :mod:`repro.mediation.conflicts`); none of it is compiled
to rules.  :class:`~repro.datalog.engine.Resolver` serves one job: the
abductive enumeration of a mediated query's branches
(:mod:`repro.mediation.abduction`, with ``choose/2`` abducible).  The
constraint language (:mod:`repro.consistency.constraints`) spells a denial's
literals and variables with this package's syntax, but a denial runs as a
query, not on the resolver.
"""

from repro.datalog.terms import (
    Compound,
    Constant,
    Term,
    Variable,
    compound,
    fresh_var,
    lift,
    term_to_python,
    variables_of,
)
from repro.datalog.unify import Substitution, apply, unify, unify_sequences, walk
from repro.datalog.clause import Atom, KnowledgeBase, Literal, Rule, atom, neg, pos, rule
from repro.datalog.engine import ResolutionConfig, Resolver, Solution

__all__ = [
    "Compound",
    "Constant",
    "Term",
    "Variable",
    "compound",
    "fresh_var",
    "lift",
    "term_to_python",
    "variables_of",
    "Substitution",
    "apply",
    "unify",
    "unify_sequences",
    "walk",
    "Atom",
    "KnowledgeBase",
    "Literal",
    "Rule",
    "atom",
    "neg",
    "pos",
    "rule",
    "ResolutionConfig",
    "Resolver",
    "Solution",
]
