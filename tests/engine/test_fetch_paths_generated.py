"""Generated statements down every fetch path, against the interpreter.

A statement's fetches reach ``ResultStream`` by several routes: dispatched
when the stream opens or when a branch first needs them, answered by the
request cache, or derived as a bind join's IN-list batches once the driver is
staged.  Each generated statement runs down all of them — bind joins on (at
batch sizes 1 and 200) and off, the request cache cold then warm, eager,
streamed one row per ``fetchmany(1)`` and under a 1 KiB operator budget, with
at most 1 and 8 fetches in flight — and must give the rows, in the order, of
``reference_from`` over the sources' tables, which shares no execution code
with the engine.  After every run no staged temporary, no reserved budget
byte and no queued fetch is left behind.

Generated: two or three in-memory sources, each SQL-capable or scan-only,
one relation each with an integer key (NULLs, duplicates, empty relations
among the cases) and a payload; statements equi-join two or three of them,
may filter single bindings (pushed to a source that can take the filter,
applied locally for a scan-only one) and order by every output column.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.engine import planner as planner_module
from repro.engine.engine import MultiDatabaseEngine
from repro.engine.planner import PlannerConfig
from repro.engine.request_cache import SourceResultCache
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.base import SourceCapabilities
from repro.sources.memory import MemorySQLSource
from repro.sql.parser import parse
from repro.wrappers.wrapper import RelationalWrapper
from tests.relational.reference_eval import reference_from

SCHEMA = Schema.of("k:integer", "p:string")

ROWS = st.lists(
    st.tuples(st.sampled_from([None, 0, 1, 2, 3]), st.sampled_from([None, "a", "b"])),
    max_size=6,
)

FILTERS = ["{x}.p = 'a'", "{x}.k > 0", "{x}.p IS NOT NULL", "{x}.k IN (1, 2)"]

#: (bind_join_batch_size, bind joins on): the planner's thresholds are
#: lowered for the bound settings so that any profitable-looking step binds.
BIND_SETTINGS = [(1, True), (200, True), (200, False)]
CAPS = [1, 8]
MODES = ["eager", "streamed", "budgeted"]


@st.composite
def federations(draw):
    """(per source: SQL-capable?, rows) for two or three sources."""
    count = draw(st.integers(2, 3))
    return [(draw(st.sampled_from([True, True, False])), draw(ROWS)) for _ in range(count)]


@st.composite
def statements(draw, count):
    """An equi-join of two or three of ``count`` relations ``r0``..."""
    order = draw(st.permutations(range(count)))[:draw(st.integers(2, count))]
    names = [f"r{index}" for index in order]
    conjuncts = [f"{draw(st.sampled_from(names[:position]))}.k = {name}.k"
                 for position, name in enumerate(names) if position]
    for _ in range(draw(st.integers(0, 2))):
        conjuncts.append(draw(st.sampled_from(FILTERS)).format(x=draw(st.sampled_from(names))))
    items = [f"{draw(st.sampled_from(names))}.{draw(st.sampled_from('kp'))}"
             for _ in range(draw(st.integers(1, 3)))]
    positions = ", ".join(str(position) for position in range(1, len(items) + 1))
    return (f"SELECT {', '.join(items)} FROM {', '.join(names)} "
            f"WHERE {' AND '.join(conjuncts)} ORDER BY {positions}")


def _sources(shapes):
    sources = []
    for index, (sql_capable, rows) in enumerate(shapes):
        source = MemorySQLSource(
            f"s{index}",
            capabilities=None if sql_capable else SourceCapabilities.scan_only())
        source.add_relation(Relation(SCHEMA, rows=rows, name=f"r{index}"))
        sources.append(source)
    return sources


def _engine(sources, batch_size, bind, cap):
    engine = MultiDatabaseEngine(
        planner_config=PlannerConfig(bind_joins=bind, bind_join_batch_size=batch_size),
        request_cache=SourceResultCache(capacity=64),
        max_concurrent_requests=cap,
    )
    for source in sources:
        engine.register_wrapper(RelationalWrapper(source))
    # Every stream the engine opens, eager executions' included.
    engine.opened = []
    open_stream = engine._open
    engine._open = lambda *args: engine.opened.append(open_stream(*args)) or engine.opened[-1]
    return engine


def _run(engine, plan, mode):
    engine.memory_budget_bytes = 1024 if mode == "budgeted" else None
    if mode == "streamed":
        stream = engine.execute_stream(plan)
        rows = []
        while True:
            batch = stream.fetchmany(1)
            if not batch:
                break
            assert len(batch) == 1
            rows.extend(batch)
        assert stream.closed
    else:
        rows = list(engine.execute(plan).relation.rows)
    stream = engine.opened[-1]
    assert engine.temp_store.handles == []
    assert stream.budget.used_bytes == 0
    assert not stream._queue and all(future.done() for future in stream._futures.values())
    return rows, stream.report


def test_every_fetch_path_gives_the_interpreters_rows():
    bound = []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        shapes = data.draw(federations())
        sql = data.draw(statements(len(shapes)))
        sources = _sources(shapes)
        tables = {f"r{index}": Relation(SCHEMA, rows=rows, name=f"r{index}")
                  for index, (_sql_capable, rows) in enumerate(shapes)}
        expected = reference_from(parse(sql), tables)
        for batch_size, bind in BIND_SETTINGS:
            for cap in CAPS:
                engine = _engine(sources, batch_size, bind, cap)
                with mock.patch.multiple(planner_module, BIND_JOIN_MIN_ROWS=0,
                                         BIND_JOIN_MIN_REDUCTION=0.0):
                    plan = engine.plan(sql)
                binds = any(request.bind is not None
                            for branch in plan.branches for request in branch.requests)
                assert not binds or bind
                if bind and cap == 1:
                    bound.append(binds)
                for mode in MODES:
                    engine.request_cache.invalidate()
                    for temperature in ("cold", "warm"):
                        rows, report = _run(engine, plan, mode)
                        assert rows == expected, (sql, batch_size, bind, cap, mode, temperature)
                        assert (report.bind_joins > 0) == binds
                        if temperature == "warm":
                            assert report.source_round_trips == 0

    check()
    # A generator whose bound settings never bind would check nothing there.
    assert sum(bound) >= len(bound) // 4, (sum(bound), len(bound))
