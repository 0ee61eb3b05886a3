"""Abductive enumeration of the mediated query's branches.

"This rewriting, based on an abductive procedure, is accomplished by
determining what conflicts exist and how they may be resolved by comparing
relevant statements in the respective contexts."

Given the per-modifier :class:`~repro.mediation.conflicts.ConflictAnalysis`
objects, the mediator must pick *one* resolution for every (value, modifier)
pair; each globally consistent combination of picks becomes one branch (one
sub-query of the UNION).  The enumeration is carried out as abduction over the
deductive substrate:

* for every analysis ``i`` and resolution ``k`` a rule
  ``resolved(i) :- choose(i, k)`` is added to a knowledge base;
* ``choose/2`` is declared *abducible*;
* the goal ``resolved(0), resolved(1), ..., resolved(n-1)`` is solved; every
  time the engine assumes a ``choose(i, k)`` literal, the abduction filter
  normalizes the accumulated guards (:func:`normalize_guards`) and vetoes the
  assumption if the branch would become inconsistent (e.g. assuming both
  ``r1.currency = 'JPY'`` and ``r1.currency = 'USD'``);
* every solution's abduced set identifies one consistent branch.

The same module provides a naive enumerator without the consistency filter,
used by the ablation benchmark to show how many spurious branches pruning
removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AbductionError
from repro.coin.context import Guard
from repro.datalog.clause import Atom, KnowledgeBase, atom, pos, rule
from repro.datalog.engine import ResolutionConfig, Resolver
from repro.datalog.terms import term_to_python
from repro.mediation.conflicts import ConflictAnalysis, ModifierResolution
from repro.mediation.constraints import normalize_guards


@dataclass
class MediationBranch:
    """One consistent combination of resolutions: one UNION branch to build."""

    resolutions: Tuple[ModifierResolution, ...]
    guards: Tuple[Guard, ...]

    @property
    def conversions(self) -> List[ModifierResolution]:
        return [resolution for resolution in self.resolutions if resolution.needs_conversion]

    def describe(self) -> str:
        guard_text = (
            " and ".join(guard.describe() for guard in self.guards)
            if self.guards
            else "no assumptions"
        )
        conversion_text = (
            "; ".join(resolution.describe() for resolution in self.conversions)
            if self.conversions
            else "no conversions"
        )
        return f"[{guard_text}] -> {conversion_text}"


def enumerate_branches(analyses: Sequence[ConflictAnalysis],
                       max_branches: int = 256) -> List[MediationBranch]:
    """Enumerate all consistent branches using the abductive engine."""
    if not analyses:
        return [MediationBranch(resolutions=(), guards=())]

    resolution_table: Dict[Tuple[int, int], ModifierResolution] = {}
    kb = KnowledgeBase()
    for analysis_index, analysis in enumerate(analyses):
        if not analysis.resolutions:
            raise AbductionError(
                f"no resolution available for {analysis.value.qualified}"
                f"[{analysis.modifier}]"
            )
        for resolution_index, resolution in enumerate(analysis.resolutions):
            resolution_table[(analysis_index, resolution_index)] = resolution
            kb.add(rule(
                atom("resolved", analysis_index),
                [atom("choose", analysis_index, resolution_index)],
            ))

    def abduction_filter(assumed: Atom, abduced: Sequence[Atom], substitution) -> bool:
        """Veto assumptions that make the accumulated guards inconsistent."""
        key = _choice_key(assumed)
        if key is None:
            return True
        chosen = [key] + [prior for prior in map(_choice_key, abduced) if prior is not None]
        return normalize_guards(
            guard for choice in chosen for guard in resolution_table[choice].guards) is not None

    config = ResolutionConfig(
        abducibles={("choose", 2)},
        abduction_filter=abduction_filter,
        max_solutions=max_branches + 1,
    )
    resolver = Resolver(kb, config)
    goals = [pos(atom("resolved", index)) for index in range(len(analyses))]

    branches: List[MediationBranch] = []
    for solution in resolver.solve(goals):
        picks: Dict[int, ModifierResolution] = {}
        for assumed in solution.abduced:
            key = _choice_key(assumed)
            if key is not None:
                picks[key[0]] = resolution_table[key]
        resolutions = tuple(picks[index] for index in sorted(picks))
        guards = normalize_guards(guard for resolution in resolutions
                                  for guard in resolution.guards)
        if guards is None:  # pragma: no cover - filter prevents this
            continue
        branches.append(MediationBranch(resolutions=resolutions, guards=guards))

    if len(branches) > max_branches:
        raise AbductionError(
            f"mediation produced more than {max_branches} branches; "
            "the query or the context theories are likely mis-specified"
        )
    return _deduplicate(branches)


def enumerate_branches_naive(analyses: Sequence[ConflictAnalysis],
                             prune: bool = False) -> List[MediationBranch]:
    """Plain cross-product enumeration (ablation baseline).

    With ``prune=False`` every combination of resolutions becomes a branch,
    including mutually inconsistent ones whose sub-queries can never return
    rows; with ``prune=True`` the consistency check is applied after the fact.
    The difference against :func:`enumerate_branches` is measured by
    ``benchmarks/bench_ablation_pruning.py``.
    """
    if not analyses:
        return [MediationBranch(resolutions=(), guards=())]
    branches: List[MediationBranch] = []
    for combination in product(*(analysis.resolutions for analysis in analyses)):
        assumed = tuple(guard for resolution in combination for guard in resolution.guards)
        guards = normalize_guards(assumed)
        if prune and guards is None:
            continue
        branches.append(MediationBranch(resolutions=tuple(combination),
                                        guards=assumed if guards is None else guards))
    return _deduplicate(branches) if prune else branches


def _choice_key(assumed: Atom) -> Optional[Tuple[int, int]]:
    if assumed.predicate != "choose" or assumed.arity != 2:
        return None
    try:
        analysis_index = term_to_python(assumed.args[0])
        resolution_index = term_to_python(assumed.args[1])
    except ValueError:  # pragma: no cover - choices are always ground
        return None
    return (int(analysis_index), int(resolution_index))


def _deduplicate(branches: List[MediationBranch]) -> List[MediationBranch]:
    """Drop branches whose guard set and conversions coincide with an earlier one."""
    seen = set()
    unique: List[MediationBranch] = []
    for branch in branches:
        signature = (
            tuple((guard.column.lower(), guard.op, repr(guard.value)) for guard in branch.guards),
            tuple(
                (resolution.value.key, resolution.modifier, resolution.needs_conversion,
                 resolution.source.describe(), resolution.target.describe())
                for resolution in branch.resolutions
            ),
        )
        if signature not in seen:
            seen.add(signature)
            unique.append(branch)
    return unique


def order_branches(branches: Sequence[MediationBranch]) -> List[MediationBranch]:
    """Deterministic presentation order: fewest assumptions, then fewest conversions.

    For the paper's example this yields exactly the published order: the
    no-conflict USD branch, then the JPY branch, then the catch-all branch.
    """
    return sorted(
        branches,
        key=lambda branch: (
            len(branch.guards),
            len(branch.conversions),
            tuple(guard.describe() for guard in branch.guards),
        ),
    )
