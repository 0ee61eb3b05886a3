"""Atoms, rules and knowledge bases for the deductive substrate.

The :class:`KnowledgeBase` maintains two access structures beyond the plain
predicate-indicator index, both standard levers of deductive-database engines:

* a **first-argument index** per indicator — clauses whose head's first
  argument is a ground constant are bucketed by (a normalized form of) that
  constant, so a goal with a bound first argument only visits clauses that
  can possibly unify;
* a **ground-fact dictionary** per indicator — while *every* clause of an
  indicator is a ground fact (the overwhelmingly common case for elevated
  source data), facts are additionally keyed by their full argument tuple,
  letting fully-ground goals resolve by dictionary lookup instead of a scan.

Both structures preserve program order (solutions come out in the same order
a linear scan would produce) and key normalization mirrors the unifier's
constant equality (numeric coercion, booleans distinct from numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    """An atom with a sign.  Negative literals use negation-as-failure."""

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
    #: Optional label recording where the rule came from (context name,
    #: elevation axiom, conversion function...); used by explanations.
    label: Optional[str] = None

    @property
    def is_fact(self) -> bool:
        return not self.body

    def rename_apart(self) -> "Rule":
        """Return a copy with all variables renamed to fresh ones."""
        mapping: Dict[Variable, Variable] = {}
        head = self.head.rename(mapping)
        body = tuple(literal.rename(mapping) for literal in self.body)
        return Rule(head, body, self.label)

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        body_text = ", ".join(str(literal) for literal in self.body)
        return f"{self.head} :- {body_text}."


def rule(head: Atom, body: Sequence = (), label: Optional[str] = None) -> Rule:
    """Build a rule; body entries may be atoms (taken as positive) or literals."""
    literals: List[Literal] = []
    for entry in body:
        if isinstance(entry, Literal):
            literals.append(entry)
        elif isinstance(entry, Atom):
            literals.append(Literal(entry, True))
        else:
            raise DatalogError(f"invalid body element {entry!r}")
    return Rule(head, tuple(literals), label)


def fact(predicate: str, *args, label: Optional[str] = None) -> Rule:
    """Build a ground fact."""
    return Rule(atom(predicate, *args), (), label)


class _Unindexable(Exception):
    """Raised when a term has no hashable index key."""


def _constant_key(value) -> Tuple:
    """A hashable key matching the unifier's constant equality: numbers
    coerce (1 == 1.0), booleans stay distinct from numbers.

    Only bool/int/float/str/None constants are indexable.  Anything exotic
    (``Decimal``, user objects...) falls back to ``_constants_equal``'s
    ``==``, whose cross-type behaviour no bucket key can mirror — those
    clauses and goals stay on the linear-scan path."""
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
    """Per-indicator clause store with first-argument and ground-fact access."""

    __slots__ = ("entries", "by_first_arg", "catch_all", "fact_buckets")

    def __init__(self) -> None:
        self.entries: List[_Entry] = []
        #: first-arg key -> entries whose head starts with that ground term.
        self.by_first_arg: Dict[Tuple, List[_Entry]] = {}
        #: entries whose first argument is not an indexable ground term
        #: (variables, non-ground compounds, 0-arity heads).
        self.catch_all: List[_Entry] = []
        #: full-argument-tuple -> entries; kept only while *every* clause of
        #: the indicator is a ground fact, None once that stops holding.
        self.fact_buckets: Optional[Dict[Tuple, List[_Entry]]] = {}

    def add(self, seq: int, rule: Rule) -> None:
        entry = (seq, rule, _rule_is_ground(rule))
        self.entries.append(entry)

        if rule.head.args:
            try:
                first_key = _term_key(rule.head.args[0])
            except _Unindexable:
                first_key = None
        else:
            first_key = None
        if first_key is None:
            self.catch_all.append(entry)
        else:
            self.by_first_arg.setdefault(first_key, []).append(entry)

        if self.fact_buckets is not None:
            if rule.is_fact:
                try:
                    fact_key = tuple(_term_key(arg) for arg in rule.head.args)
                except _Unindexable:
                    self.fact_buckets = None
                else:
                    self.fact_buckets.setdefault(fact_key, []).append(entry)
            else:
                self.fact_buckets = None

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
        # Merge the two seq-sorted runs to preserve program order.
        merged: List[_Entry] = []
        i = j = 0
        while i < len(indexed) and j < len(self.catch_all):
            if indexed[i][0] < self.catch_all[j][0]:
                merged.append(indexed[i])
                i += 1
            else:
                merged.append(self.catch_all[j])
                j += 1
        merged.extend(indexed[i:])
        merged.extend(self.catch_all[j:])
        return merged


class KnowledgeBase:
    """A collection of rules indexed by predicate indicator.

    Knowledge bases are composable: the mediator assembles one per mediation
    session by combining the domain model, the elevation axioms of the sources
    in the query, the context theories of the sources and the receiver, and
    the conversion-function rules.
    """

    def __init__(self, rules: Iterable[Rule] = (), name: str = "kb"):
        self.name = name
        self._rules: Dict[Tuple[str, int], List[Rule]] = {}
        self._index: Dict[Tuple[str, int], _PredicateIndex] = {}
        self._all: List[Rule] = []
        for entry in rules:
            self.add(entry)

    # -- mutation -----------------------------------------------------------

    def add(self, new_rule: Rule) -> None:
        indicator = new_rule.head.indicator
        self._rules.setdefault(indicator, []).append(new_rule)
        self._index.setdefault(indicator, _PredicateIndex()).add(len(self._all), new_rule)
        self._all.append(new_rule)

    def add_fact(self, predicate: str, *args, label: Optional[str] = None) -> None:
        self.add(fact(predicate, *args, label=label))

    def extend(self, rules: Iterable[Rule]) -> None:
        for entry in rules:
            self.add(entry)

    # -- queries ------------------------------------------------------------

    def rules_for(self, predicate: str, arity: int) -> List[Rule]:
        return self._rules.get((predicate, arity), [])

    def goal_entries(self, goal: Atom,
                     substitution: Optional[Substitution] = None) -> Sequence[_Entry]:
        """Raw ``(seq, rule, is_ground)`` entries that may resolve ``goal``,
        in program order.  Returns stored lists without copying — callers
        must treat the result as read-only.  This is the resolver's hot path.
        """
        index = self._index.get(goal.indicator)
        if index is None:
            return ()
        return index.candidates(self._goal_first_key(goal, substitution))

    def match_goal(self, goal: Atom,
                   substitution: Optional[Substitution] = None) -> List[Tuple[Rule, bool]]:
        """Clauses that may resolve ``goal`` under ``substitution``, in program
        order, each paired with a flag telling whether the clause is ground
        (ground clauses need no standardizing apart).

        When the goal's first argument is bound to a ground term, only the
        clauses whose head can possibly unify with it are returned.
        """
        return [
            (entry_rule, entry_ground)
            for _seq, entry_rule, entry_ground in self.goal_entries(goal, substitution)
        ]

    def facts_matching(self, goal: Atom,
                       substitution: Optional[Substitution] = None) -> Optional[List[Rule]]:
        """Dictionary lookup for a fully-ground goal against an all-facts
        predicate.

        Returns the matching fact rules (possibly an empty list — definite
        failure), or None when the fast path does not apply: the predicate
        also has proper rules or non-indexable facts, or the goal is not
        ground under ``substitution``.
        """
        index = self._index.get(goal.indicator)
        if index is None or index.fact_buckets is None:
            return None
        keys = []
        for arg in goal.args:
            if substitution:
                arg = _walk_binding(arg, substitution)
                if isinstance(arg, Compound):
                    arg = _apply_binding(arg, substitution)
            if isinstance(arg, Variable):
                return None
            try:
                keys.append(_term_key(arg))
            except _Unindexable:
                return None
        return [
            entry_rule
            for _seq, entry_rule, _ground in index.fact_buckets.get(tuple(keys), ())
        ]

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

    def defines(self, predicate: str, arity: int) -> bool:
        return (predicate, arity) in self._rules

    @property
    def rules(self) -> List[Rule]:
        return list(self._all)

    @property
    def predicates(self) -> List[Tuple[str, int]]:
        return sorted(self._rules)

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._all)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "\n".join(str(entry) for entry in self._all)
