"""What a cold statement may cost, counted rather than timed.

A statement whose text is new pays parse, mediation, planning and kernel
generation in full.  Wall-clock on a shared host spreads 8–29 % run to run;
the number of Python-level calls the same work makes repeats to a fraction of
a per cent, so the budget is set on that: the ``cold_compile`` workload's own
statements, cycled past every cache as coinbench cycles them, profiled with
``cProfile`` and summed per code object (``Profile.getstats()``; the count
includes C-level calls, like the figures in PERFORMANCE.md, "Cold path").
``pstats`` keys calls by (file, line, name) and keeps one of the code objects
sharing a key — every namedtuple's ``__new__`` is one — so its total moves
between identical runs.  To re-measure after a change to the cold path, run
this file with ``-s``: the counts are printed.

CPython 3.12 inlines comprehensions, which 3.11 counts as calls; the budget
was set on 3.11 and is an upper bound for both.
"""

import cProfile
import gc

import pytest

from repro.relational import compile as compile_module
from repro.relational.schema import Schema

from tests.coinbench_workload import cold_compile_workload

#: Calls per cold statement.  The parent of the PR that set it made 14.1 k,
#: the PR 8.1 k; the headroom is for honest growth, not for a second walker.
CALL_BUDGET = 11_500
MEASURED = 128


@pytest.fixture(scope="module")
def cold_profile():
    """One cycle of the 640 statements to reach the steady state of every
    cache, then the first 128 — all evicted again by then — under the
    profiler, with the kernels each statement generated."""
    build_federation, cold_compile_set = cold_compile_workload()
    compile_module.clear_compiled_memo()
    federation = build_federation(16, 20).federation
    statements = cold_compile_set(seed=1)
    for statement in statements:
        federation.query(statement.sql, statement.context)
    before = federation.statistics()["pipeline"]

    generated, generate = [], compile_module.ExpressionCompiler._generate

    def counting(self, kind, nodes, detail):
        generated[-1] += 1
        return generate(self, kind, nodes, detail)

    compile_module.ExpressionCompiler._generate = counting
    profiler = cProfile.Profile()
    try:
        for statement in statements[:MEASURED]:
            generated.append(0)
            profiler.enable()
            federation.query(statement.sql, statement.context)
            profiler.disable()
    finally:
        compile_module.ExpressionCompiler._generate = generate
    after = federation.statistics()["pipeline"]
    return {
        "entries": profiler.getstats(),
        "shapes": [statement.shape for statement in statements[:MEASURED]],
        "generated": generated,
        "pipeline": {key: after[key] - before[key]
                     for key in ("plan_misses", "mediation_misses", "statement_cache_hits")},
    }


def test_every_measured_statement_missed_every_cache(cold_profile):
    assert cold_profile["pipeline"] == {
        "plan_misses": MEASURED, "mediation_misses": MEASURED, "statement_cache_hits": 0}


def test_calls_per_cold_statement_stay_within_the_budget(cold_profile):
    calls = sum(entry.callcount for entry in cold_profile["entries"]) / MEASURED
    print(f"\ncold path: {calls:.1f} calls per statement (budget {CALL_BUDGET})")
    assert calls <= CALL_BUDGET


def test_no_traversal_reflects_on_a_dataclass(cold_profile):
    """``dataclasses.fields``/``replace`` are never called from ``repro.sql``:
    the child table is read instead (``tests/sql/test_ast_table.py`` holds the
    table to what reflection says)."""
    def reflects(call):
        code = call.code
        return (not isinstance(code, str) and code.co_filename.endswith("dataclasses.py")
                and code.co_name in ("fields", "replace"))

    offenders = [entry.code for entry in cold_profile["entries"]
                 if not isinstance(entry.code, str)
                 and "/repro/sql/" in entry.code.co_filename.replace("\\", "/")
                 and any(reflects(call) for call in entry.calls or ())]
    assert offenders == []


def test_a_pair_statement_generates_few_kernels(cold_profile):
    """Conversion predicates, join keys and projections recur statement after
    statement and are recalled by structure; only what names the statement's
    own constant (or a relation pair not met lately) is generated."""
    pairs = [count for count, shape in zip(cold_profile["generated"], cold_profile["shapes"])
             if shape == "pair"]
    print(f"\nkernels generated per pair statement: mean {sum(pairs) / len(pairs):.2f}, "
          f"max {max(pairs)}; all shapes mean "
          f"{sum(cold_profile['generated']) / MEASURED:.2f}")
    assert len(pairs) > MEASURED // 2
    assert sum(pairs) / len(pairs) <= 3


def _live_schemas() -> int:
    gc.collect()
    return sum(1 for candidate in gc.get_objects() if type(candidate) is Schema)


def test_cold_cycles_leave_no_schemas_behind():
    """A ``gc`` census over cycles of cold statements: with every plan
    re-made (32 cached of 96) and every relation re-shipped (no request
    cache), the number of live ``Schema`` objects stops growing once the
    caches are full.  ``Schema.concat`` memoizes by the operand's value; keyed
    by its ``id`` it pinned a dead plan's schemas per new plan, +75 a cycle
    here, until each long-lived schema's 128-entry memo was full of them."""
    build_federation, cold_compile_set = cold_compile_workload()
    federation = build_federation(
        16, 20, request_cache_size=0, plan_cache_size=32).federation
    statements = cold_compile_set(seed=1)[:96]
    census = []
    for _cycle in range(3):
        for statement in statements:
            federation.query(statement.sql, statement.context)
        census.append(_live_schemas())
    assert census[2] == census[1], census
