"""Human-readable explanations of a mediation (intensional answers).

The COIN papers emphasize that the framework can answer not only the receiver's
extensional question but also *why* the answer looks the way it does — which
conflicts were detected and how each branch resolves them.  This module turns a
:class:`~repro.mediation.mediator.MediationResult` into such an explanation,
used by the QBE front end ("show mediation"), the examples and the
accessibility benchmark (E5).
"""

from __future__ import annotations

from typing import List

from repro.mediation.mediator import MediationResult


def explain_mediation(result: MediationResult) -> str:
    """A multi-line report: detected conflicts, then one section per branch."""
    lines: List[str] = []
    lines.append("=== Context mediation report ===")
    lines.append(f"receiver context : {result.receiver_context}")
    lines.append(f"original query   : {result.original_sql}")
    lines.append("")

    conflicting = [analysis for analysis in result.analyses if analysis.has_potential_conflict]
    trivial = [analysis for analysis in result.analyses if not analysis.has_potential_conflict]

    lines.append(f"semantic values examined : {len({a.value.key for a in result.analyses})}")
    lines.append(f"potential conflicts      : {len(conflicting)}")
    if conflicting:
        for analysis in conflicting:
            source_context = analysis.value.source_context
            lines.append(
                f"  - {analysis.value.qualified} [{analysis.modifier}]: source context "
                f"{source_context!r} may differ from receiver value {analysis.receiver_value!r}"
            )
    if trivial:
        for analysis in trivial:
            lines.append(
                f"  - {analysis.value.qualified} [{analysis.modifier}]: no conflict "
                f"(source and receiver agree on {analysis.receiver_value!r})"
            )
    lines.append("")

    lines.append(f"mediated query has {result.branch_count} branch(es):")
    for index, branch in enumerate(result.branches, start=1):
        lines.append(f"--- branch {index} ---")
        if branch.guards:
            assumptions = " AND ".join(guard.describe() for guard in branch.guards)
            lines.append(f"assumptions : {assumptions}")
        else:
            lines.append("assumptions : none")
        if branch.conversions:
            for resolution in branch.conversions:
                lines.append(f"conversion  : {resolution.describe()}")
        else:
            lines.append("conversion  : none required")
        lines.append(f"sub-query   : {branch.sql}")
    lines.append("")
    lines.append(f"mediated SQL: {result.sql}")
    return "\n".join(lines)


def conflict_summary(result: MediationResult) -> List[str]:
    """One line per detected (value, modifier) conflict — used by the QBE UI."""
    summary = []
    for analysis in result.analyses:
        if analysis.has_potential_conflict:
            summary.append(
                f"{analysis.value.qualified}[{analysis.modifier}] differs from receiver "
                f"value {analysis.receiver_value!r} in context {analysis.value.source_context!r}"
            )
    return summary
