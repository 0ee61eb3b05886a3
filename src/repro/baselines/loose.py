"""Loose-coupling baseline: the receiver resolves conflicts by hand.

Under loose coupling there is no integration infrastructure at all: every
receiver must know each source's conventions and write the conversions into
every query herself (exactly the 3-branch UNION of the paper's Section 3, but
authored manually).  The baseline is "runnable" trivially — the hand-written
query is just SQL — so what this module quantifies is *user effort*:

* how many conversion expressions, guard conditions and ancillary joins the
  user must write per query, and
* how that effort is repeated for every query and every receiver context
  (whereas a COIN context is written once).

The accessibility benchmark (E5) and the scalability benchmark (E3) report
these counts next to the mediator's (where the per-query user effort is zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.sql.ast import BinaryOp, Select, TableRef, Union, walk
from repro.sql.parser import parse


@dataclass
class ManualQueryEffort:
    """A measure of what the user had to write beyond the naive query."""

    branches: int
    extra_conditions: int
    conversion_expressions: int
    ancillary_joins: int

    @property
    def total_artifacts(self) -> int:
        return (
            self.branches
            + self.extra_conditions
            + self.conversion_expressions
            + self.ancillary_joins
        )

    def snapshot(self) -> Dict[str, int]:
        return {
            "branches": self.branches,
            "extra_conditions": self.extra_conditions,
            "conversion_expressions": self.conversion_expressions,
            "ancillary_joins": self.ancillary_joins,
            "total_artifacts": self.total_artifacts,
        }


def measure_manual_effort(naive_sql: str, manual_sql: str) -> ManualQueryEffort:
    """Compare a naive query with its hand-mediated version and count the extra work."""
    naive = parse(naive_sql)
    manual = parse(manual_sql)

    naive_selects = naive.selects if isinstance(naive, Union) else (naive,)
    manual_selects = manual.selects if isinstance(manual, Union) else (manual,)

    naive_conditions = _condition_count(naive_selects)
    manual_conditions = _condition_count(manual_selects)
    naive_tables = _table_count(naive_selects)
    manual_tables = _table_count(manual_selects)

    return ManualQueryEffort(
        branches=len(manual_selects),
        extra_conditions=max(manual_conditions - naive_conditions * len(manual_selects), 0),
        conversion_expressions=_arithmetic_count(manual_selects) - _arithmetic_count(naive_selects),
        ancillary_joins=max(manual_tables - naive_tables * len(manual_selects), 0),
    )


def _condition_count(selects: Sequence[Select]) -> int:
    from repro.sql.ast import conjuncts

    return sum(len(conjuncts(select.where)) for select in selects)


def _table_count(selects: Sequence[Select]) -> int:
    count = 0
    for select in selects:
        for table in select.tables:
            count += sum(1 for node in walk(table) if isinstance(node, TableRef))
    return count


def _arithmetic_count(selects: Sequence[Select]) -> int:
    count = 0
    for select in selects:
        for node in walk(select):
            if isinstance(node, BinaryOp) and node.op in ("*", "/", "+", "-"):
                count += 1
    return count


#: The hand-written mediated query of the paper's example, as a loose-coupling
#: user would have to author it (verbatim from Section 3, normalized spelling).
PAPER_MANUAL_QUERY = """
SELECT r1.cname, r1.revenue FROM r1, r2
WHERE r1.currency = 'USD' AND r1.cname = r2.cname AND r1.revenue > r2.expenses
UNION
SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r2, r3
WHERE r1.currency = 'JPY' AND r1.cname = r2.cname
  AND r3.fromCur = r1.currency AND r3.toCur = 'USD'
  AND r1.revenue * 1000 * r3.rate > r2.expenses
UNION
SELECT r1.cname, r1.revenue * r3.rate FROM r1, r2, r3
WHERE r1.currency <> 'USD' AND r1.currency <> 'JPY'
  AND r3.fromCur = r1.currency AND r3.toCur = 'USD'
  AND r1.cname = r2.cname AND r1.revenue * r3.rate > r2.expenses
"""
