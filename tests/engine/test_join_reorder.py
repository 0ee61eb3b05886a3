"""Join-reorder equivalence: every order must yield identical answers.

Randomized four-relation chain joins over seeded data, executed under every
join-order mode (``dp``, ``greedy``, ``syntax``, ``worst``) and through both
the eager and streaming paths — plus the certain-answer consistency path —
must all produce the same multiset of rows.  The optimizer is free to pick
any order; it is never allowed to change the answer.
"""

import random

import pytest

from repro.engine import planner as planner_module
from repro.engine.engine import MultiDatabaseEngine
from repro.engine.planner import PlannerConfig
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper

from tests.consistency.fedbuild import build_consistency_federation

MODES = ("dp", "greedy", "syntax", "worst")

#: Chain schema: t0(a, b) ⋈ t1(a, c) ⋈ t2(c, d) ⋈ t3(d, e).
TABLES = (
    ("t0", ("a", "b")),
    ("t1", ("a", "c")),
    ("t2", ("c", "d")),
    ("t3", ("d", "e")),
)
CHAIN = "t0.a = t1.a AND t1.c = t2.c AND t2.d = t3.d"


def _chain_workload(seed):
    """Seeded random rows for the chain schema plus a query over them."""
    rng = random.Random(seed)
    rows = {}
    for name, columns in TABLES:
        size = rng.randint(8, 24)
        rows[name] = [
            tuple(rng.randint(0, 5) for _ in columns) for _ in range(size)
        ]
    order = [name for name, _ in TABLES]
    rng.shuffle(order)
    threshold = rng.randint(0, 3)
    query = (
        "SELECT t0.b, t1.c, t2.d, t3.e FROM "
        + ", ".join(order)
        + f" WHERE {CHAIN} AND t0.b >= {threshold}"
    )
    return rows, query


def _engine_for(rows, **planner_overrides):
    engine = MultiDatabaseEngine(planner_config=PlannerConfig(**planner_overrides))
    for index, (name, columns) in enumerate(TABLES):
        source = MemorySQLSource(f"src{index}")
        declaration = ", ".join(f"{column} integer" for column in columns)
        values = ", ".join(
            "(" + ", ".join(str(value) for value in row) + ")"
            for row in rows[name]
        )
        source.load_sql(
            f"CREATE TABLE {name} ({declaration})",
            f"INSERT INTO {name} VALUES {values}",
        )
        engine.register_wrapper(RelationalWrapper(source))
    return engine


def _reference_answer(rows, query):
    """The chain join evaluated naively in Python, independent of the engine."""
    threshold = int(query.rsplit(">=", 1)[1])
    answer = []
    for a0, b0 in rows["t0"]:
        if b0 < threshold:
            continue
        for a1, c1 in rows["t1"]:
            if a1 != a0:
                continue
            for c2, d2 in rows["t2"]:
                if c2 != c1:
                    continue
                answer.extend(
                    (b0, c1, d2, e3)
                    for d3, e3 in rows["t3"] if d3 == d2
                )
    return sorted(answer)


@pytest.mark.parametrize("seed", range(6))
def test_every_mode_and_path_agrees_with_the_reference(seed):
    rows, query = _chain_workload(seed)
    expected = _reference_answer(rows, query)
    orders = {}
    for mode in MODES:
        engine = _engine_for(rows, join_order=mode)
        eager = engine.execute(query)
        assert sorted(tuple(row) for row in eager.relation.rows) == expected, mode
        orders[mode] = eager.report.join_orders
        with engine.execute_stream(query) as stream:
            assert sorted(stream.fetchall()) == expected, mode
    # The modes really do plan (each reports exactly one 4-way join order).
    for mode, join_orders in orders.items():
        assert len(join_orders) == 1 and len(join_orders[0]) == 4, mode


def test_dp_and_worst_disagree_on_at_least_one_workload():
    """``worst`` exists to prove order-independence is load-bearing: if every
    mode always picked the same order, the equivalence suite would be
    vacuous."""
    differing = 0
    for seed in range(6):
        rows, query = _chain_workload(seed)
        picked = {}
        for mode in ("dp", "worst"):
            engine = _engine_for(rows, join_order=mode)
            picked[mode] = engine.execute(query).report.join_orders
        differing += picked["dp"] != picked["worst"]
    assert differing > 0


@pytest.mark.parametrize("seed", (1, 4))
def test_greedy_fallback_beyond_dp_threshold(seed, monkeypatch):
    monkeypatch.setattr(planner_module, "DP_JOIN_THRESHOLD", 2)
    rows, query = _chain_workload(seed)
    expected = _reference_answer(rows, query)
    engine = _engine_for(rows, join_order="auto")
    result = engine.execute(query)
    assert sorted(tuple(row) for row in result.relation.rows) == expected


@pytest.mark.parametrize("seed", (0, 3))
def test_feedback_driven_replans_preserve_answers(seed):
    rows, query = _chain_workload(seed)
    expected = _reference_answer(rows, query)
    engine = _engine_for(rows, join_order="auto")
    first = engine.execute(query)
    assert sorted(tuple(row) for row in first.relation.rows) == expected
    # Re-planning with recorded feedback may well pick a different order;
    # the answer must not move.
    second = engine.execute(query)
    assert sorted(tuple(row) for row in second.relation.rows) == expected
    assert second.report.estimates_from_feedback > 0


def test_aliased_tables_reorder_safely():
    rows, _ = _chain_workload(7)
    query = (
        "SELECT x.b, y.c FROM t1 AS y, t0 AS x "
        "WHERE x.a = y.a AND x.b >= 1"
    )
    results = {}
    for mode in MODES:
        engine = _engine_for(rows, join_order=mode)
        result = engine.execute(query)
        results[mode] = sorted(tuple(row) for row in result.relation.rows)
    assert len(set(map(tuple, results.values()))) == 1
    assert results["dp"]  # non-degenerate: the aliased join produces rows


def test_certain_answers_are_order_independent():
    answers = {}
    for mode in MODES:
        federation = build_consistency_federation(
            planner_config=PlannerConfig(join_order=mode)
        )
        result = federation.query(
            "SELECT accounts.owner, ratings.score FROM accounts, ratings "
            "WHERE accounts.id = ratings.id",
            mediate=False, consistency="certain",
        )
        answers[mode] = sorted(tuple(row) for row in result.relation.rows)
    # Certainty semantics must survive whatever order the optimizer picked:
    # all four modes agree, and the answer is non-degenerate.
    assert len({tuple(rows) for rows in answers.values()}) == 1
    assert ("eve", 3.0) in answers["dp"]
