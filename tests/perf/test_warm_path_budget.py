"""What a warm statement may cost, counted rather than timed.

A statement whose plan is cached and whose sources' answers sit in the
request cache pays only for binding its plan, staging its inputs, running its
operators and its accounting.  The ``warm_repeat`` workload's own sixteen
statements on its own federation, every cache warm, are counted here the way
``test_cold_path_budget.py`` counts a cold one: calls under ``cProfile``,
summed per code object (``Profile.getstats()``), plus the bookkeeping a warm statement must do once per
statement or once per staged input, and never once per call of something
else.  To re-measure after a change to the warm path, run this file with
``-s``: the counts are printed.

CPython 3.12 inlines comprehensions, which 3.11 counts as calls; the budget
was set on 3.11 and is an upper bound for both.
"""

import cProfile

import pytest

from repro.mediation.answers import AnswerTransformer
from repro.obs.metrics import CounterSet

from tests.coinbench_workload import warm_repeat_workload

#: Calls per warm statement.  The parent of the PR that set it made 1.56 k,
#: the PR 1.40 k.
CALL_BUDGET = 1_450
#: Locked counter updates per warm statement (the parent made 24.4).
ADD_BUDGET = 16
ROUNDS = 2


class _CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self, inner):
        self.inner = inner
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self.inner.__enter__()

    def __exit__(self, *exc_info):
        return self.inner.__exit__(*exc_info)


@pytest.fixture(scope="module")
def warm_profile():
    """Each statement run four times — fetch, then three request-cache hits,
    after which every hash join probes a kept build — then ``ROUNDS`` more
    times under the profiler and ``ROUNDS`` more under the counters."""
    build_federation, warm_repeat_set = warm_repeat_workload()
    federation = build_federation(8, 200).federation
    statements = warm_repeat_set()
    for _ in range(4):
        for statement in statements:
            federation.query(statement.sql, statement.context)
    measured = ROUNDS * len(statements)

    profiler = cProfile.Profile()
    for _ in range(ROUNDS):
        for statement in statements:
            profiler.enable()
            federation.query(statement.sql, statement.context)
            profiler.disable()

    counts = {"add": 0, "annotate": 0}
    add, annotate = CounterSet.add, AnswerTransformer.annotate

    def counting_add(self, **deltas):
        counts["add"] += 1
        return add(self, **deltas)

    def counting_annotate(self, *args, **kwargs):
        counts["annotate"] += 1
        return annotate(self, *args, **kwargs)

    store = federation.engine.temp_store
    lock = store._lock = _CountingLock(store._lock)
    CounterSet.add, AnswerTransformer.annotate = counting_add, counting_annotate
    reports = []
    try:
        for _ in range(ROUNDS):
            for statement in statements:
                answer = federation.query(statement.sql, statement.context)
                reports.append(answer.execution.report)
    finally:
        CounterSet.add, AnswerTransformer.annotate = add, annotate
        store._lock = lock.inner
    return {
        # Per code object: ``pstats`` keys calls by (file, line, name) and
        # keeps one of the code objects sharing a key — every namedtuple's
        # ``__new__`` is one — so its total moves between identical runs.
        "calls": sum(entry.callcount for entry in profiler.getstats()) / measured,
        "adds": counts["add"] / measured,
        "annotations": counts["annotate"],
        "locks": lock.acquired,
        "staged": sum(len(report.requests) for report in reports),
        "measured": measured,
        "reports": reports,
    }


def test_every_measured_statement_was_warm(warm_profile):
    reports = warm_profile["reports"]
    assert all(report.cache_hits == report.distinct_requests > 0 for report in reports)
    assert sum(report.join_builds_shared for report in reports) > 0


def test_calls_per_warm_statement_stay_within_the_budget(warm_profile):
    calls = warm_profile["calls"]
    print(f"\nwarm path: {calls:.1f} calls per statement (budget {CALL_BUDGET})")
    assert calls <= CALL_BUDGET


def test_a_warm_statement_updates_few_counters(warm_profile):
    adds = warm_profile["adds"]
    print(f"\nwarm path: {adds:.2f} CounterSet.add calls per statement "
          f"(budget {ADD_BUDGET})")
    assert adds <= ADD_BUDGET


def test_a_warm_statement_annotates_nothing(warm_profile):
    assert warm_profile["annotations"] == 0


def test_the_temp_store_is_locked_once_per_staged_input_and_once_per_statement(
        warm_profile):
    staged, measured = warm_profile["staged"], warm_profile["measured"]
    print(f"\nwarm path: {warm_profile['locks'] / measured:.2f} temp-store locks, "
          f"{staged / measured:.2f} staged inputs per statement")
    assert staged > measured
    assert warm_profile["locks"] == staged + measured
