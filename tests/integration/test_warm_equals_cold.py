"""A warm statement answers exactly what a cold one does.

A warm execution reuses what its plan made once — the lowered template, the
kept hash-join builds, the column annotations — and answers its sources from
the request cache.  On coinbench's ``warm_repeat`` statements (the paper's
query and fifteen pairwise comparisons, ``build_federation(8, 200)``), a cold
execution on a fresh federation is held against the 2nd, 3rd and 10th
executions on a warm one — the first request-cache hit, the execution that
keeps its builds, one that probes them — for:

* the rows, in order, and the annotation labels;
* the key sets of ``report.snapshot()``;
* what staging moves on the temporary store's counters.  The deltas pinned
  here are those the store's earlier per-call staging (materialize, read,
  drop) produced.

An answer's annotations are the plan's, shared: they cannot be changed,
changing an answer's list of them leaves the next answer's alone, and
answers racing to make them agree.
"""

import dataclasses
import sys
import threading

import pytest

from tests.coinbench_workload import warm_repeat_workload

build_federation, warm_repeat_set = warm_repeat_workload()
STATEMENTS = warm_repeat_set()
#: 1-based executions of each statement on the warm federation.
WARM = (2, 3, 10)

STAGING = ("tables_created", "tables_dropped", "rows_written", "rows_read",
           "bytes_written")
_PAPER = (8, 8, 20, 20, 1382)
_THREE = (3, 3, 401, 401, 29270)
_FOUR = (4, 4, 402, 402, 29340)
#: Per statement, one execution's deltas of ``STAGING``.
MOVED = (_PAPER, _THREE, _FOUR, _FOUR, _FOUR, _FOUR, _THREE, _THREE, _THREE,
         _THREE, _FOUR, _FOUR, _FOUR, _THREE, _FOUR, _THREE)


def _key_paths(value, prefix=""):
    """Every key path of a snapshot; a list's elements share one ``[]``."""
    if isinstance(value, dict):
        paths = set()
        for key, item in value.items():
            paths.add(f"{prefix}{key}")
            paths |= _key_paths(item, f"{prefix}{key}.")
        return paths
    if isinstance(value, list):
        return set().union(*(_key_paths(item, f"{prefix}[].") for item in value))
    return set()


def _run(federation, statement):
    """One execution's answer facts and its staging deltas."""
    counters = federation.engine.temp_store.statistics
    before = counters.snapshot()
    answer = federation.query(statement.sql, statement.context)
    after = counters.snapshot()
    facts = (list(answer.relation.rows),
             [annotation.label() for annotation in answer.annotations],
             _key_paths(answer.execution.report.snapshot()))
    return facts, tuple(after[field] - before[field] for field in STAGING)


@pytest.fixture(scope="module")
def warm_runs():
    """``{(statement index, execution): run}``, the statements cycled in
    order the way ``warm_repeat`` cycles them."""
    federation = build_federation(8, 200).federation
    runs = {}
    for execution in range(1, max(WARM) + 1):
        for index, statement in enumerate(STATEMENTS):
            run = _run(federation, statement)
            if execution in WARM:
                runs[index, execution] = run
    return runs


def test_the_set_is_the_paper_query_and_fifteen_pairs():
    assert [statement.shape for statement in STATEMENTS] == ["paper"] + ["pair"] * 15


@pytest.mark.parametrize("index", range(len(STATEMENTS)))
def test_warm_executions_equal_a_cold_one(warm_runs, index):
    cold, moved = _run(build_federation(8, 200).federation, STATEMENTS[index])
    assert cold[0] and all(cold[1])
    assert moved == MOVED[index]
    for execution in WARM:
        assert warm_runs[index, execution] == (cold, moved), execution


def test_an_answers_annotations_cannot_change_the_next_answers():
    federation = build_federation(8, 200).federation
    paper = STATEMENTS[0]
    first = federation.query(paper.sql, paper.context)
    labels = [annotation.label() for annotation in first.annotations]
    revenue = first.annotations[1]
    assert revenue.modifier_values and revenue.label() != revenue.name
    with pytest.raises(TypeError):
        revenue.modifier_values["currency"] = "XXX"
    with pytest.raises(dataclasses.FrozenInstanceError):
        revenue.name = "profit"
    first.annotations.reverse()  # the list is the answer's own
    first.annotations.append(revenue)
    second = federation.query(paper.sql, paper.context)
    assert [annotation.label() for annotation in second.annotations] == labels
    assert second.annotations is not first.annotations
    assert second.annotations[1] is revenue  # the plan's, shared


def test_racing_answers_of_one_plan_agree_on_its_annotations():
    """Eight threads answer the paper query on a fresh federation, the first
    answers racing to fill the plan's annotations: every answer's labels are
    the serial ones, and the plan holds one entry."""
    paper = STATEMENTS[0]
    serial = build_federation(8, 200).federation.query(paper.sql, paper.context)
    expected = [annotation.label() for annotation in serial.annotations]
    federation = build_federation(8, 200).federation
    labels, barrier = [], threading.Barrier(8)

    def worker():
        barrier.wait(timeout=30)
        for _ in range(10):
            answer = federation.query(paper.sql, paper.context)
            labels.append([annotation.label() for annotation in answer.annotations])

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert labels == [expected] * 80
    plan = federation.pipeline.prepare(paper.sql, paper.context)
    assert list(plan.annotations) == [("cname", "revenue")]
