"""SLD resolution with abduction over a knowledge base.

The solver is a straightforward depth-first SLD resolution engine over
positive Horn clauses, plus the one extension the context mediator needs: an
*abducible* hook.  When a goal's predicate is declared abducible, the engine
— after the clauses that resolve it — asks the hook whether the literal may
be *assumed*, records the assumption, and continues.  This is the mechanism
(after Kakas, Kowalski & Toni's abductive logic programming framework, [KK93]
in the paper) by which mediation "determin[es] what conflicts exist and how
they may be resolved".

The engine returns :class:`Solution` objects carrying the answer substitution
and the abduced literals, which the mediator turns into query branches.
A predicate no clause defines and no hook may assume fails (closed world).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ResolutionError
from repro.datalog.clause import Atom, KnowledgeBase, Literal
from repro.datalog.unify import Substitution, apply, unify_sequences


@dataclass
class Solution:
    """One successful derivation of a goal list."""

    substitution: Substitution
    abduced: Tuple[Atom, ...] = ()


@dataclass
class ResolutionConfig:
    """Tunable limits of the resolution engine."""

    max_depth: int = 400
    max_solutions: Optional[int] = None
    #: Predicates (name, arity) that may be assumed.
    abducibles: Set[Tuple[str, int]] = field(default_factory=set)
    #: Optional filter invoked before assuming an abducible literal; returning
    #: False vetoes the assumption (used for consistency checks).
    abduction_filter: Optional[Callable[[Atom, Sequence[Atom], Substitution], bool]] = None


class Resolver:
    """Depth-first SLD resolution with optional abduction."""

    def __init__(self, kb: KnowledgeBase, config: Optional[ResolutionConfig] = None):
        self.kb = kb
        self.config = config or ResolutionConfig()

    def solve(self, goals: Sequence[Literal], bindings: Optional[Substitution] = None) -> Iterator[Solution]:
        """Yield solutions of the conjunctive goal list."""
        produced = 0
        initial = dict(bindings) if bindings else {}
        for substitution, abduced in self._solve(list(goals), initial, (), 0):
            yield Solution(substitution, abduced)
            produced += 1
            if self.config.max_solutions is not None and produced >= self.config.max_solutions:
                return

    def _solve(self, goals: List[Literal], substitution: Substitution,
               abduced: Tuple[Atom, ...],
               depth: int) -> Iterator[Tuple[Substitution, Tuple[Atom, ...]]]:
        if depth > self.config.max_depth:
            raise ResolutionError(
                f"resolution exceeded maximum depth {self.config.max_depth}"
            )
        if not goals:
            yield substitution, abduced
            return

        literal, rest = goals[0], goals[1:]
        goal_atom = literal.atom
        if not literal.positive:
            raise ResolutionError(f"cannot resolve the negative literal {literal}")

        # Visit only clauses the first-argument index cannot rule out; ground
        # clauses skip standardizing apart.
        for _seq, clause, clause_is_ground in self.kb.goal_entries(goal_atom, substitution):
            renamed = clause if clause_is_ground else clause.rename_apart()
            extended = unify_sequences(renamed.head.args, goal_atom.args, substitution)
            if extended is not None:
                yield from self._solve(list(renamed.body) + rest, extended, abduced, depth + 1)

        # Abduction: assume the literal when it is declared abducible.
        if goal_atom.indicator in self.config.abducibles:
            assumed = Atom(goal_atom.predicate,
                           tuple(apply(arg, substitution) for arg in goal_atom.args))
            veto = self.config.abduction_filter
            if veto is None or veto(assumed, abduced, substitution):
                yield from self._solve(rest, substitution, abduced + (assumed,), depth + 1)
