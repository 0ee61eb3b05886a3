"""Execution reports are pinned byte for byte: what one statement reports.

The golden beside this file (``report_snapshot.golden.json``) holds
``ExecutionReport.snapshot()`` of six statements, each run on a fresh
federation and read to the end: the paper's query eager and streamed, a
partial answer over a source that stays down, a transient failure that is
retried, a bind join and a certain answer by repair enumeration.  Every key
and its position is kept; values that depend on the clock or on thread
interleaving (keys ending in ``_seconds``, ``max_in_flight``,
``dispatch_order`` and ``trace_id``) are masked.  ``PYTHONPATH=src:. python
tests/engine/test_report_snapshot.py`` from the repository root rewrites it.
"""

import json
from pathlib import Path

import pytest

from repro.consistency import PrimaryKey
from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.sources.faults import FaultSchedule

from tests.consistency.fedbuild import build_consistency_federation
from tests.engine.test_chaos import UNION_QUERY, _engine
from tests.engine.test_feedback import BIND_QUERY, _bind_engine

GOLDEN = Path(__file__).with_name("report_snapshot.golden.json")
MASKED_KEYS = {"max_in_flight", "dispatch_order", "trace_id"}
MASK = "<masked>"


def _masked(value):
    if isinstance(value, dict):
        return {key: (MASK if key.endswith("_seconds") or key in MASKED_KEYS
                      else _masked(item))
                for key, item in value.items()}
    if isinstance(value, list):
        return [_masked(item) for item in value]
    return value


def paper_eager():
    federation = build_paper_federation().federation
    return federation.query(PAPER_QUERY).execution.report


def paper_streamed():
    federation = build_paper_federation().federation
    with federation.query(PAPER_QUERY, stream=True) as cursor:
        cursor.fetchall()
        return cursor.report


def partial_answer():
    engine, _ = _engine(schedules={3: FaultSchedule(permanent_outage_after=1)})
    with engine.execute_stream(UNION_QUERY, on_source_error="partial") as stream:
        stream.fetchall()
        return stream.report


def retried_failure():
    engine, _ = _engine(schedules={1: FaultSchedule(fail_first=1)})
    return engine.execute(UNION_QUERY).report


def bind_join():
    engine = _bind_engine()
    engine.execute(BIND_QUERY)  # cold and unbound: its feedback enables binding
    return engine.execute(engine.plan(BIND_QUERY)).report


def repair_enumeration():
    federation = build_consistency_federation()
    for relation in ("accounts", "ratings"):
        federation.register_constraint(
            PrimaryKey(f"{relation}_pk", relation=relation, columns=("id",)))
    answer = federation.query(
        "SELECT accounts.owner, ratings.score FROM accounts, ratings "
        "WHERE accounts.id = ratings.id",
        mediate=False, consistency="certain",
    )
    assert answer.execution.report.consistency["strategy"] == "fallback"
    return answer.execution.report


STATEMENTS = (paper_eager, paper_streamed, partial_answer, retried_failure,
              bind_join, repair_enumeration)


def records():
    return {statement.__name__: _masked(statement().snapshot())
            for statement in STATEMENTS}


@pytest.mark.parametrize("statement", STATEMENTS,
                         ids=lambda statement: statement.__name__)
def test_report_snapshot_matches_golden(statement):
    golden = json.loads(GOLDEN.read_text())[statement.__name__]
    observed = _masked(statement().snapshot())
    # Serialized, so nested key order is compared too.
    assert json.dumps(observed, indent=1) == json.dumps(golden, indent=1)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), indent=1, sort_keys=False) + "\n")
    print(f"wrote {GOLDEN}")
