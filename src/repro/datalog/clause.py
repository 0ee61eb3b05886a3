"""Atoms, rules and knowledge bases for the deductive substrate.

A :class:`KnowledgeBase` indexes its rules by predicate indicator and, per
indicator, by the first argument of the head: clauses whose first argument
is a ground constant are bucketed by (a normalized form of) that constant,
so a goal with a bound first argument only visits clauses that can possibly
unify.  Candidates come out in program order (the order a linear scan would
produce), and key normalization mirrors the unifier's constant equality
(numeric coercion, booleans distinct from numbers).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DatalogError
from repro.datalog.terms import Compound, Constant, Term, Variable, lift, rename_term, variables_of
from repro.datalog.unify import Substitution
from repro.datalog.unify import apply as _apply_binding
from repro.datalog.unify import walk as _walk_binding


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms, e.g. ``attr(Object, currency, Value)``."""

    predicate: str
    args: Tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def indicator(self) -> Tuple[str, int]:
        """The predicate indicator ``(name, arity)`` used for clause lookup."""
        return (self.predicate, self.arity)

    def variables(self) -> Iterator[Variable]:
        for arg in self.args:
            yield from variables_of(arg)

    def rename(self, mapping: Dict[Variable, Variable]) -> "Atom":
        return Atom(self.predicate, tuple(rename_term(arg, mapping) for arg in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(str(arg) for arg in self.args)})"


def atom(predicate: str, *args) -> Atom:
    """Build an atom, lifting raw Python values to constants."""
    return Atom(predicate, tuple(lift(arg) for arg in args))


@dataclass(frozen=True)
class Literal:
    """An atom with a sign.  The resolver takes positive literals only; a
    negative one is constraint syntax (a denial's NOT EXISTS)."""

    atom: Atom
    positive: bool = True

    def rename(self, mapping: Dict[Variable, Variable]) -> "Literal":
        return Literal(self.atom.rename(mapping), self.positive)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


def pos(literal_atom: Atom) -> Literal:
    return Literal(literal_atom, True)


def neg(literal_atom: Atom) -> Literal:
    return Literal(literal_atom, False)


@dataclass(frozen=True)
class Rule:
    """A Horn clause ``head :- body``.  A fact is a rule with an empty body."""

    head: Atom
    body: Tuple[Literal, ...] = ()

    def rename_apart(self) -> "Rule":
        """Return a copy with all variables renamed to fresh ones."""
        mapping: Dict[Variable, Variable] = {}
        head = self.head.rename(mapping)
        body = tuple(literal.rename(mapping) for literal in self.body)
        return Rule(head, body)


def rule(head: Atom, body: Sequence = ()) -> Rule:
    """Build a rule; body entries may be atoms (taken as positive) or literals."""
    literals: List[Literal] = []
    for entry in body:
        if isinstance(entry, Literal):
            literals.append(entry)
        elif isinstance(entry, Atom):
            literals.append(Literal(entry, True))
        else:
            raise DatalogError(f"invalid body element {entry!r}")
    return Rule(head, tuple(literals))


class _Unindexable(Exception):
    """Raised when a term has no hashable index key."""


def _constant_key(value) -> Tuple:
    """A hashable key matching the unifier's constant equality: numbers
    coerce (1 == 1.0), booleans stay distinct from numbers.  Other constants
    (``Decimal``, user objects...) compare by ``==``, which no bucket key can
    mirror: their clauses and goals stay on the linear-scan path."""
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        return ("n", float(value))
    if isinstance(value, str) or value is None:
        return ("s", value)
    raise _Unindexable


def _term_key(term: Term) -> Tuple:
    """A hashable key for a *ground* term; raises :class:`_Unindexable` for
    variables, non-ground compounds and non-indexable constants."""
    if isinstance(term, Constant):
        return _constant_key(term.value)
    if isinstance(term, Compound):
        return ("c", term.functor, tuple(_term_key(arg) for arg in term.args))
    raise _Unindexable


def _rule_is_ground(rule: Rule) -> bool:
    """True when the rule contains no variables (standardizing apart is a no-op)."""
    for _variable in rule.head.variables():
        return False
    for literal in rule.body:
        for _variable in literal.atom.variables():
            return False
    return True


#: One clause as stored in the index: (sequence number, rule, is_ground).
_Entry = Tuple[int, Rule, bool]


class _PredicateIndex:
    """Per-indicator clause store with first-argument access."""

    __slots__ = ("entries", "by_first_arg", "catch_all")

    def __init__(self) -> None:
        self.entries: List[_Entry] = []
        #: first-arg key -> entries whose head starts with that ground term.
        self.by_first_arg: Dict[Tuple, List[_Entry]] = {}
        #: entries whose first argument is not an indexable ground term
        #: (variables, non-ground compounds, 0-arity heads).
        self.catch_all: List[_Entry] = []

    def add(self, seq: int, rule: Rule) -> None:
        entry = (seq, rule, _rule_is_ground(rule))
        self.entries.append(entry)
        try:
            first_key = _term_key(rule.head.args[0]) if rule.head.args else None
        except _Unindexable:
            first_key = None
        if first_key is None:
            self.catch_all.append(entry)
        else:
            self.by_first_arg.setdefault(first_key, []).append(entry)

    def candidates(self, first_key: Optional[Tuple]) -> List[_Entry]:
        """Entries that may match a goal whose first argument has the given
        key (None = unknown/unbound), in program order."""
        if first_key is None:
            return self.entries
        indexed = self.by_first_arg.get(first_key)
        if not indexed:
            return self.catch_all
        if not self.catch_all:
            return indexed
        # Two seq-sorted runs; sequence numbers are unique, so no rule is compared.
        return list(heapq.merge(indexed, self.catch_all))


class KnowledgeBase:
    """A collection of rules indexed by predicate indicator.

    The abductive enumeration of a mediated query's branches
    (:mod:`repro.mediation.abduction`) builds one per enumeration.
    """

    def __init__(self):
        self._index: Dict[Tuple[str, int], _PredicateIndex] = {}
        self._count = 0

    def add(self, new_rule: Rule) -> None:
        self._index.setdefault(new_rule.head.indicator, _PredicateIndex()).add(
            self._count, new_rule)
        self._count += 1

    def goal_entries(self, goal: Atom,
                     substitution: Optional[Substitution] = None) -> Sequence[_Entry]:
        """Raw ``(seq, rule, is_ground)`` entries that may resolve ``goal``,
        in program order: when the goal's first argument is bound to a
        ground term, only the clauses whose head can possibly unify with it.
        Returns stored lists without copying — callers must treat the result
        as read-only.  This is the resolver's hot path.
        """
        index = self._index.get(goal.indicator)
        if index is None:
            return ()
        return index.candidates(self._goal_first_key(goal, substitution))

    @staticmethod
    def _goal_first_key(goal: Atom, substitution: Optional[Substitution]) -> Optional[Tuple]:
        if not goal.args:
            return None
        arg = goal.args[0]
        if substitution:
            arg = _walk_binding(arg, substitution)
            if isinstance(arg, Compound):
                arg = _apply_binding(arg, substitution)
        if isinstance(arg, Variable):
            return None
        try:
            return _term_key(arg)
        except _Unindexable:
            return None
