"""SLD(NF) resolution over a knowledge base.

The solver is a straightforward depth-first SLD resolution engine with
negation-as-failure and procedural builtins, plus one extension used by the
context mediator: an optional *abducible* hook.  When a goal's predicate is
declared abducible and no clause resolves it, the engine does not fail —
instead it asks the hook whether the literal may be *assumed*, records the
assumption, and continues.  This is the mechanism (after Kakas, Kowalski &
Toni's abductive logic programming framework, [KK93] in the paper) by which
mediation "determin[es] what conflicts exist and how they may be resolved".

The engine returns :class:`Solution` objects carrying the answer substitution,
the set of abduced literals, and a proof trace (rule labels), which the
mediator turns into query branches and explanations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ResolutionError
from repro.datalog.builtins import call_builtin, is_builtin
from repro.datalog.clause import Atom, KnowledgeBase, Literal
from repro.datalog.terms import Term, Variable, term_to_python
from repro.datalog.unify import Substitution, apply, unify_sequences


@dataclass
class Solution:
    """One successful derivation of a goal list."""

    substitution: Substitution
    abduced: Tuple[Atom, ...] = ()
    trace: Tuple[str, ...] = ()

    def binding(self, variable: Variable) -> Term:
        """The (fully substituted) binding of a variable in this solution."""
        return apply(variable, self.substitution)

    def value(self, variable: Variable):
        """The binding of a variable converted to a plain Python value."""
        return term_to_python(self.binding(variable))


@dataclass
class ResolutionConfig:
    """Tunable limits of the resolution engine."""

    max_depth: int = 400
    max_solutions: Optional[int] = None
    #: Predicates (name, arity) that may be assumed when unresolvable.
    abducibles: Set[Tuple[str, int]] = field(default_factory=set)
    #: Optional filter invoked before assuming an abducible literal; returning
    #: False vetoes the assumption (used for consistency checks).
    abduction_filter: Optional[Callable[[Atom, Sequence[Atom], Substitution], bool]] = None


class Resolver:
    """Depth-first SLD(NF) resolution with optional abduction."""

    def __init__(self, kb: KnowledgeBase, config: Optional[ResolutionConfig] = None):
        self.kb = kb
        self.config = config or ResolutionConfig()

    # -- public API ----------------------------------------------------------

    def solve(self, goals: Sequence[Literal], bindings: Optional[Substitution] = None) -> Iterator[Solution]:
        """Yield solutions of the conjunctive goal list."""
        produced = 0
        initial = dict(bindings) if bindings else {}
        for substitution, abduced, trace in self._solve(list(goals), initial, (), (), 0):
            yield Solution(substitution, abduced, trace)
            produced += 1
            if self.config.max_solutions is not None and produced >= self.config.max_solutions:
                return

    def ask(self, goals: Sequence[Literal]) -> bool:
        """True when the goal list has at least one solution."""
        for _solution in self.solve(goals):
            return True
        return False

    # -- core ------------------------------------------------------------------

    def _solve(self, goals: List[Literal], substitution: Substitution,
               abduced: Tuple[Atom, ...], trace: Tuple[str, ...],
               depth: int) -> Iterator[Tuple[Substitution, Tuple[Atom, ...], Tuple[str, ...]]]:
        if depth > self.config.max_depth:
            raise ResolutionError(
                f"resolution exceeded maximum depth {self.config.max_depth}"
            )
        if not goals:
            yield substitution, abduced, trace
            return

        literal, rest = goals[0], goals[1:]
        goal_atom = literal.atom

        # Negation as failure: the subgoal must finitely fail.
        if not literal.positive:
            if self._has_solution(goal_atom, substitution, abduced, depth):
                return
            yield from self._solve(rest, substitution, abduced, trace, depth + 1)
            return

        predicate, arity = goal_atom.predicate, goal_atom.arity

        # Builtins are evaluated procedurally.
        if is_builtin(predicate, arity):
            for extended in call_builtin(predicate, goal_atom.args, substitution):
                yield from self._solve(rest, extended, abduced, trace, depth + 1)
            return

        resolved_any = False

        # Fully-ground goal over an all-facts predicate: resolve by dictionary
        # lookup (no unification, no substitution copies).
        fact_clauses = self.kb.facts_matching(goal_atom, substitution)
        if fact_clauses is not None:
            for clause in fact_clauses:
                resolved_any = True
                new_trace = trace + ((clause.label,) if clause.label else ())
                yield from self._solve(rest, substitution, abduced, new_trace, depth + 1)
        else:
            # Ordinary resolution, visiting only clauses the first-argument
            # index cannot rule out; ground clauses skip standardizing apart.
            for _seq, clause, clause_is_ground in self.kb.goal_entries(goal_atom, substitution):
                renamed = clause if clause_is_ground else clause.rename_apart()
                extended = unify_sequences(renamed.head.args, goal_atom.args, substitution)
                if extended is None:
                    continue
                resolved_any = True
                new_goals = list(renamed.body) + rest
                new_trace = trace + ((renamed.label,) if renamed.label else ())
                yield from self._solve(new_goals, extended, abduced, new_trace, depth + 1)

        # Abduction: assume the literal when it is declared abducible.
        if (predicate, arity) in self.config.abducibles:
            assumed = Atom(predicate, tuple(apply(arg, substitution) for arg in goal_atom.args))
            if self._may_assume(assumed, abduced, substitution):
                yield from self._solve(rest, substitution, abduced + (assumed,), trace, depth + 1)
            return

        if not resolved_any and not self.kb.defines(predicate, arity):
            # Unknown predicates fail silently (closed-world assumption); this
            # mirrors datalog semantics and keeps partial knowledge bases usable.
            return

    def _has_solution(self, goal_atom: Atom, substitution: Substitution,
                      abduced: Tuple[Atom, ...], depth: int) -> bool:
        # No defensive copy: substitutions are never mutated downstream (the
        # unifier extends copies), so the NAF check can share the caller's dict.
        for _ in self._solve([Literal(goal_atom, True)], substitution, abduced, (), depth + 1):
            return True
        return False

    def _may_assume(self, assumed: Atom, abduced: Tuple[Atom, ...],
                    substitution: Substitution) -> bool:
        if self.config.abduction_filter is None:
            return True
        return self.config.abduction_filter(assumed, abduced, substitution)


def solve(kb: KnowledgeBase, goals: Sequence[Literal], **config_kwargs) -> List[Solution]:
    """One-shot helper: solve goals against ``kb`` and return all solutions."""
    resolver = Resolver(kb, ResolutionConfig(**config_kwargs) if config_kwargs else None)
    return list(resolver.solve(goals))
