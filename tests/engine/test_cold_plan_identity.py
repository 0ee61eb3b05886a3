"""Plans are pinned byte for byte: what a cold statement compiles to.

The golden beside this file (``cold_plan_identity.golden.json``) was written
by the commit *before* the cold path was reworked (``PYTHONPATH=src:. python
tests/engine/test_cold_plan_identity.py`` from the repository root rewrites
it and prints how many entries changed, single-branch and multi-branch
apart) and holds, per statement and ``join_order`` mode, everything the planner
decides: the mediated SQL, ``plan.signature()``, every request's SQL text,
projection and local filters, the ``needed`` column list each request was
built from, and the ``EXPLAIN`` text — or the error a statement is refused
with.  The 640 ``cold_compile`` statements are kept as digests (3 200 plans),
the hand-written ones in full.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.demo.scenarios import build_paper_federation
from repro.engine.planner import PlannerConfig, QueryPlanner
from repro.errors import ReproError
from repro.sql.parser import parse
from repro.sql.printer import to_sql

from tests.coinbench_workload import cold_compile_workload
from tests.engine.test_join_reorder import _chain_workload, _engine_for

GOLDEN = Path(__file__).with_name("cold_plan_identity.golden.json")
MODES = ("auto", "dp", "greedy", "syntax", "worst")

#: The statements of ``test_planner.py`` and shapes it does not reach: every
#: clause the facts pass reads, aliases, unqualified and unknown references,
#: constant and subquery conditions, and the errors planning refuses with.
PAPER_STATEMENTS = (
    "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname",
    "SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'",
    "SELECT r3.rate FROM r3 WHERE r3.toCur = 'USD'",
    "SELECT r1.cname FROM r1",
    "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses",
    "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname AND r1.currency = r2.cname",
    "SELECT r1.cname, r3.rate FROM r1, r2, r3 WHERE r1.cname = r2.cname "
    "AND r3.fromCur = r1.currency AND r3.toCur = 'USD'",
    "SELECT r1.cname FROM r1, r2",
    "SELECT * FROM r1",
    "SELECT r1.cname FROM r1 WHERE 1 = 1",
    "SELECT r1.cname FROM r1 WHERE r1.revenue * 2 > 10",
    "SELECT r3.rate FROM r3 WHERE r3.rate * 2 > 1 AND r3.fromCur = 'JPY'",
    "SELECT cname FROM r1",
    "SELECT cname FROM r1, r2",
    "SELECT r1.nope FROM r1",
    "SELECT x.cname FROM r1",
    "SELECT r1.cname FROM nosuch",
    "SELECT r1.cname FROM r1 JOIN r2 ON r1.cname = r2.cname",
    "SELECT a.cname, b.expenses FROM r1 a, r2 b WHERE a.cname = b.cname",
    "SELECT a.cname, b.cname FROM r1 a, r1 b WHERE a.cname = b.cname AND a.revenue > b.revenue",
    "SELECT r1.cname FROM r1 ORDER BY r1.revenue DESC LIMIT 2",
    "SELECT r1.cname FROM r1 ORDER BY r1.revenue DESC LIMIT 2 OFFSET 1",
    "SELECT r1.cname AS company FROM r1 ORDER BY company LIMIT 3",
    "SELECT r1.cname FROM r1 ORDER BY r1.revenue + 1 LIMIT 2",
    "SELECT DISTINCT r1.currency FROM r1 LIMIT 2",
    "SELECT r1.currency, COUNT(*) AS n, SUM(r1.revenue) AS total FROM r1 "
    "GROUP BY r1.currency HAVING SUM(r1.revenue) > 10 ORDER BY total DESC LIMIT 5",
    "SELECT COUNT(*) FROM r1 LIMIT 1",
    "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname ORDER BY r2.expenses LIMIT 1",
    "SELECT r1.cname FROM r1 WHERE r1.cname IN (SELECT r2.cname FROM r2)",
    "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname AND EXISTS (SELECT r1.cname FROM r1)",
    "SELECT r1.cname FROM r1 WHERE r1.revenue > total",
    "SELECT r1.cname, r1.revenue AS total FROM r1 WHERE r1.revenue > 5 ORDER BY total",
    "SELECT r1.cname FROM r1, r2 WHERE r1.revenue + r2.expenses > 10",
    "SELECT r1.cname FROM r1, r2, r3 WHERE r1.cname = r2.cname AND r3.rate > 0 "
    "AND r1.currency = r3.fromCur AND r3.toCur = 'USD' AND r1.revenue * r3.rate > r2.expenses",
    "SELECT UPPER(r1.cname), CASE WHEN r1.revenue > 5 THEN 'big' ELSE 'small' END FROM r1 "
    "WHERE r1.currency LIKE 'J%' AND r1.revenue BETWEEN 1 AND 100000000 "
    "AND r1.cname IS NOT NULL AND r1.currency IN ('JPY', 'USD')",
    "SELECT R1.CNAME FROM R1 WHERE R1.Currency = 'JPY' and r1.revenue > 1",
    "SELECT r1.cname FROM r1 UNION SELECT r2.cname FROM r2",
    "SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY' UNION ALL "
    "SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'",
    "SELECT 1 FROM r1",
    "SELECT 1",
)

#: Receiver statements mediated in ``c_receiver`` before planning.
MEDIATED_STATEMENTS = (
    "SELECT r1.cname, r1.revenue FROM r1, r2 WHERE r1.cname = r2.cname "
    "AND r1.revenue > r2.expenses",
    "SELECT r1.cname, r1.revenue FROM r1 ORDER BY r1.revenue DESC LIMIT 2",
    "SELECT r1.currency, SUM(r1.revenue) AS total FROM r1 GROUP BY r1.currency "
    "HAVING SUM(r1.revenue) > 0",
    "SELECT r2.cname, r2.expenses FROM r2 WHERE r2.expenses > 100",
    "SELECT a.cname, a.revenue - b.expenses AS margin FROM r1 a, r2 b WHERE a.cname = b.cname",
)


def plan_record(planner, selects, union_all=False, statement=None):
    """Everything the planner decided for one statement, JSON-ready."""
    needed = []
    build_request = planner._build_request

    def spy(*args):
        needed.append([args[0], list(args[3])])
        return build_request(*args)

    planner._build_request = spy
    try:
        plan = planner.plan_branches(selects, union_all=union_all, statement=statement)
    except ReproError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        del planner._build_request
    return {
        "signature": repr(plan.signature()),
        "requests": [
            [[transfer.binding,
              None if scan.query is None else scan.text,
              list(scan.columns) if len(scan.columns) < len(
                  planner.catalog.schema_of(scan.relation)) else None,
              [to_sql(condition) for condition in transfer.filters]]
             for transfer, scan in ((request.transfer, request.transfer.target)
                                    for request in branch.requests)]
            for branch in plan.branches
        ],
        "needed": needed,
        "explain": plan.explain(),
    }


def statement_record(planner, sql):
    try:
        statement = parse(sql)
    except ReproError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    selects = getattr(statement, "selects", None) or [statement]
    return plan_record(planner, selects, getattr(statement, "all", False), statement)


def mediated_record(federation, planner, sql, context):
    mediation = federation.mediator.mediate(sql, context)
    record = plan_record(
        planner, [branch.select for branch in mediation.branches],
        statement=mediation.mediated)
    record["mediated"] = mediation.sql
    return record


def _digest(record) -> str:
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _planner(catalog, mode):
    return QueryPlanner(catalog, config=PlannerConfig(join_order=mode))


def _keep(records, mode, key, record):
    """File ``record``; a mode that plans as ``auto`` does is stored as a note."""
    same = mode != "auto" and records[f"auto|{key}"] == record
    records[f"{mode}|{key}"] = "as auto" if same else record


def paper_records():
    federation = build_paper_federation().federation
    catalog = federation.engine.catalog
    records = {}
    for mode in MODES:
        planner = _planner(catalog, mode)
        for sql in PAPER_STATEMENTS:
            _keep(records, mode, sql, statement_record(planner, sql))
        for sql in MEDIATED_STATEMENTS:
            _keep(records, mode, f"mediated|{sql}",
                  mediated_record(federation, planner, sql, "c_receiver"))
    return records


def chain_records():
    records = {}
    for seed in range(6):
        rows, query = _chain_workload(seed)
        for mode in MODES:
            engine = _engine_for(rows, join_order=mode)
            _keep(records, mode, f"{seed}|{query}", statement_record(engine.planner, query))
    return records


def cold_compile_digests():
    build_federation, cold_compile_set = cold_compile_workload()
    federation = build_federation(16, 20).federation
    catalog = federation.engine.catalog
    planners = {mode: _planner(catalog, mode) for mode in MODES}
    digests = {mode: [] for mode in MODES}
    for statement in cold_compile_set(seed=1):
        mediation = federation.mediator.mediate(statement.sql, statement.context)
        selects = [branch.select for branch in mediation.branches]
        for mode, planner in planners.items():
            record = plan_record(planner, selects, statement=mediation.mediated)
            record["mediated"] = mediation.sql
            digests[mode].append(_digest(record))
    return {mode: " ".join(found) for mode, found in digests.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _assert_same(actual, expected):
    assert list(actual) == list(expected)
    for key, record in actual.items():
        assert record == expected[key], key


def test_hand_written_statements_plan_as_on_the_parent(golden):
    _assert_same(paper_records(), golden["paper"])


def test_chain_joins_plan_as_on_the_parent_in_every_mode(golden):
    _assert_same(chain_records(), golden["chain"])


def test_the_cold_compile_set_plans_as_on_the_parent_in_every_mode(golden):
    actual = cold_compile_digests()
    for mode in MODES:
        ours, theirs = actual[mode].split(), golden["cold_compile"][mode].split()
        assert len(ours) == len(theirs) == 640
        differing = [index for index in range(640) if ours[index] != theirs[index]]
        assert not differing, (mode, differing[:10])


def _branch_count(records, key) -> int:
    """Branches of the plan filed under ``key`` (a refused statement: 1)."""
    record = records[key]
    if record == "as auto":
        record = records["auto|" + key.split("|", 1)[1]]
    return len(record.get("requests", [None]))


def changed_entries(old, new):
    """Per section, the (single-branch, multi-branch) counts of entries of
    ``new`` that differ from ``old``."""
    counts = {}
    for section in ("paper", "chain"):
        ours, theirs = new[section], old.get(section, {})
        changed = [key for key in ours if ours[key] != theirs.get(key)]
        multi = sum(_branch_count(ours, key) > 1 for key in changed)
        counts[section] = (len(changed) - multi, multi)
    build_federation, cold_compile_set = cold_compile_workload()
    mediator = build_federation(16, 20).federation.mediator
    branches = [mediator.mediate(statement.sql, statement.context).branch_count
                for statement in cold_compile_set(seed=1)]
    single = multi = 0
    for mode in MODES:
        ours = new["cold_compile"][mode].split()
        theirs = old.get("cold_compile", {}).get(mode, "").split()
        for index, digest in enumerate(ours):
            if index >= len(theirs) or theirs[index] != digest:
                single += branches[index] == 1
                multi += branches[index] > 1
    counts["cold_compile"] = (single, multi)
    return counts


if __name__ == "__main__":
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    records = {
        "paper": paper_records(),
        "chain": chain_records(),
        "cold_compile": cold_compile_digests(),
    }
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=False) + "\n")
    print(f"wrote {GOLDEN}")
    for section, (single, multi) in changed_entries(previous, records).items():
        print(f"{section}: {single + multi} entries changed "
              f"({single} single-branch, {multi} multi-branch)")
