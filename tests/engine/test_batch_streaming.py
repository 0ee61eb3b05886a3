"""Batch-at-a-time execution seen from the cursor.

Operators hand row batches up to the :class:`ResultStream`, which slices them
for the consumer.  Contract under test:

* any interleaving of ``fetchmany(k)`` / ``fetchall`` (and, from a
  federation cursor, ``fetchone`` / iteration too) returns every row exactly
  once, in order, across batch boundaries, and ``rows_streamed`` counts rows
  *handed over* at every step (never rows waiting in the carried remainder) —
  from a live stream, and from a federation cursor over stored rows (an eager
  or a repair-enumerated answer), which closes with its last row;
* closing a budgeted, spilling stream after one ``fetchmany`` leaves no
  budget byte, staged temporary, spill file or open span behind — without
  any help from the garbage collector;
* ``LIMIT 0`` asks the pipeline beneath it for nothing;
* operator EXPLAIN details are rendered when a report is snapshotted, not
  while the statement runs.
"""

import json

from hypothesis import given, settings, strategies as st

import pytest

from repro.coin.context import Context, ContextRegistry
from repro.coin.domain import build_financial_domain_model
from repro.coin.system import CoinSystem
from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.engine.engine import MultiDatabaseEngine
from repro.engine.stream import MaterializedStream
from repro.federation import Federation
from repro.obs.trace import Tracer, deactivate_span
from repro.options import StatementOptions
from repro.relational import operators
from repro.relational.budget import SpillFile, SpillPartitions
from repro.relational.schema import Schema
from repro.server.server import MediationServer
from repro.sources.memory import MemorySQLSource
from repro.sql import printer
from repro.wrappers.wrapper import RelationalWrapper

ROWS = 700  # crosses the 64- and 256-row ramp steps


def _engine(**kwargs):
    engine = MultiDatabaseEngine(**kwargs)
    for name in ("t", "u"):
        values = ", ".join(
            f"({index}, {float((index * 37) % 100)}, '{'xyz'[index % 3]}')"
            for index in range(ROWS)
        )
        source = MemorySQLSource(f"db_{name}")
        source.load_sql(f"CREATE TABLE {name} (a integer, v float, b varchar)",
                        f"INSERT INTO {name} VALUES {values}")
        engine.register_wrapper(RelationalWrapper(source), estimate_rows=False)
    return engine


QUERIES = (
    "SELECT t.a, t.v FROM t",
    "SELECT t.a, u.v FROM t, u WHERE t.a = u.a AND t.v <= u.v",
    "SELECT t.a, t.v FROM t ORDER BY t.v DESC, t.a",
    "SELECT t.b, COUNT(*) AS n FROM t GROUP BY t.b ORDER BY t.b",
    "SELECT t.a FROM t WHERE t.b = 'x' UNION SELECT u.a FROM u WHERE u.a < 400",
)

#: One engine (and the eager answers) for every generated interleaving.
ENGINE = _engine()
EXPECTED = {query: list(ENGINE.execute(query).relation.rows) for query in QUERIES}

MANY_OR_ALL = (st.tuples(st.just("many"), st.integers(0, 400)),
               st.just(("all",)))
#: Fetch actions for a cursor; a ``ResultStream`` takes ``many``/``all`` only.
FETCHES = st.lists(
    st.one_of(st.just(("one",)), st.tuples(st.just("iterate"), st.integers(1, 5)),
              *MANY_OR_ALL),
    max_size=12,
)
STREAM_FETCHES = st.lists(st.one_of(*MANY_OR_ALL), max_size=12)


def _stored_rows_federation():
    """A federation over one 40-row relation ``n(a)``, a = 0..39."""
    contexts = ContextRegistry()
    contexts.register(Context("c_plain", "receiver without conventions"))
    federation = Federation(
        CoinSystem(build_financial_domain_model(), contexts, name="stored-rows"),
        default_receiver_context="c_plain")
    source = MemorySQLSource("db_n")
    source.load_sql("CREATE TABLE n (a integer)", "INSERT INTO n VALUES "
                    + ", ".join(f"({index})" for index in range(40)))
    federation.register_wrapper(RelationalWrapper(source), estimate_rows=False)
    return federation


STORED_ROWS = _stored_rows_federation()


def _stored_rows_cursor(count, answer):
    """A cursor over the first ``count`` rows of ``n``, stored before the
    first leaves: an eager answer, or a certain answer under a LIMIT, which
    only repair enumeration gives."""
    sql = f"SELECT n.a FROM n WHERE n.a < {count} ORDER BY n.a"
    if answer == "eager":
        options = StatementOptions(mediate=False)
    else:
        sql += " LIMIT 40"
        options = StatementOptions(mediate=False, consistency="certain")
    cursor = STORED_ROWS.open(sql, options, stream=False)
    assert isinstance(cursor.stream, MaterializedStream)
    if answer == "enumerated":
        assert cursor.report.consistency["strategy"] == "fallback"
    return cursor


def _drive(stream, fetches, after_each):
    """Apply ``fetches`` (then drain); returns every row handed over."""
    returned = []
    for fetch in list(fetches) + [("all",)]:
        if fetch[0] == "one":
            row = stream.fetchone()
            rows = [] if row is None else [row]
        elif fetch[0] == "many":
            rows = stream.fetchmany(fetch[1])
            assert len(rows) <= fetch[1]
        elif fetch[0] == "iterate":
            rows = [row for _count, row in zip(range(fetch[1]), stream)]
        else:
            rows = stream.fetchall()
        returned.extend(rows)
        after_each(returned)
    return returned


class TestFetchSurface:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(QUERIES), STREAM_FETCHES)
    def test_result_stream_hands_every_row_over_once_and_counts_it(self, query, fetches):
        stream = ENGINE.execute_stream(query)

        def counted(returned):
            assert stream.report.rows_streamed == len(returned)

        assert _drive(stream, fetches, counted) == EXPECTED[query]
        assert stream.exhausted and stream.closed
        assert stream.report.result_rows == len(EXPECTED[query])
        assert stream.fetchmany(5) == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.sampled_from(("eager", "enumerated")), FETCHES)
    def test_cursor_over_stored_rows_hands_every_row_over_once(
            self, count, answer, fetches):
        cursor = _stored_rows_cursor(count, answer)
        closed = []
        cursor.stream.on_close(closed.append)

        # The cursor counts what it hands over; the report's own counts were
        # settled by the execution that stored the rows.
        def counted(returned):
            assert cursor.rows_streamed == len(returned)

        assert _drive(cursor, fetches, counted) == [(index,) for index in range(count)]
        assert cursor.exhausted and cursor.closed and len(closed) == 1
        assert cursor.rows_streamed == count

    @pytest.mark.parametrize("answer", ["eager", "enumerated"])
    def test_cursor_over_stored_rows_closes_with_its_last_row(self, answer):
        cursor = _stored_rows_cursor(5, answer)
        assert cursor.fetchmany(0) == [] and not cursor.closed
        assert cursor.fetchmany(3) == [(0,), (1,), (2,)]
        assert cursor.fetchmany(2) == [(3,), (4,)]
        assert cursor.exhausted and cursor.closed  # closed by its last row
        assert cursor.fetchmany(2) == [] and cursor.fetchone() is None
        assert cursor.rows_streamed == 5

    def test_first_row_is_stamped_with_the_first_batch_handed_over(self):
        stream = ENGINE.execute_stream(QUERIES[0])
        assert stream.report.first_row_seconds == 0.0
        stream.fetchmany(3)
        stamped = stream.report.first_row_seconds
        assert stamped > 0.0
        stream.fetchall()
        assert stream.report.first_row_seconds == stamped


class TestNothingLeaksOnEarlyClose:
    QUERY = ("SELECT DISTINCT t.a, u.v FROM t, u WHERE t.a = u.a "
             "ORDER BY u.v DESC, t.a")

    def _open_traced(self, engine):
        root = Tracer().start_trace("statement")
        token = root.activate()
        try:
            return root, engine.execute_stream(self.QUERY)
        finally:
            deactivate_span(token)

    def test_budgeted_spilling_stream_closed_after_one_fetchmany(self, monkeypatch):
        spills = []

        def tracked(spill_class):
            class Tracked(spill_class):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    spills.append(self)

            monkeypatch.setattr(operators, spill_class.__name__, Tracked)

        # A sort's runs and the partition sets of a Grace join or an external
        # Distinct: everything the operators open on secondary storage.
        tracked(SpillFile)
        tracked(SpillPartitions)
        engine = _engine(memory_budget_bytes=8_000)
        root, stream = self._open_traced(engine)
        assert stream.fetchmany(1) == EXPECTED_DISTINCT[:1]
        assert stream.report.rows_streamed == 1
        # Suspended mid-pipeline: reservations, temporaries and spill files live.
        assert stream.budget.used_bytes > 0
        assert engine.temp_store.handles
        assert spills and not all(spill._closed for spill in spills)

        stream.close()  # and no gc.collect()
        assert stream.budget.used_bytes == 0
        assert engine.temp_store.handles == []
        # A file is opened only by the first frame that leaves memory.
        assert all(spill._closed and (spill._file is None or spill._file.closed)
                   for spill in spills)
        assert {type(spill).__base__ for spill in spills} == {SpillFile, SpillPartitions}
        assert stream.report.spill_count > 0
        assert stream.report.result_rows == 1
        assert root.open_spans() == [root]
        assert [span.name for span in root.walk()][:2] == ["statement", "stream"]

    def test_in_memory_reservations_are_released_on_close_too(self):
        engine = _engine(memory_budget_bytes=10_000_000)
        _root, stream = self._open_traced(engine)
        stream.fetchmany(1)
        assert stream.budget.used_bytes > 0
        stream.close()
        assert stream.budget.used_bytes == 0
        assert stream.report.spill_count == 0

    def test_spilled_answer_matches_the_in_memory_answer(self):
        assert _engine(memory_budget_bytes=8_000).execute_stream(
            self.QUERY).fetchall() == EXPECTED_DISTINCT


EXPECTED_DISTINCT = list(ENGINE.execute(TestNothingLeaksOnEarlyClose.QUERY).relation.rows)


class TestUnionDedupDrawsOnTheStatementBudget:
    # Branch one brings rows 0-499, branch two 0-699: 200 new rows and 500
    # duplicates of rows the dedup saw before it outgrew the budget.
    QUERY = ("SELECT t.a, t.v FROM t WHERE t.a < 500 "
             "UNION SELECT u.a, u.v FROM u")

    def test_a_union_past_the_budget_spills_and_answers_as_unbudgeted(self):
        unbudgeted = ENGINE.execute(self.QUERY)
        expected = list(unbudgeted.relation.rows)
        assert len(expected) == ROWS and unbudgeted.report.spill_count == 0
        engine = _engine(memory_budget_bytes=4_000)
        assert len(engine.plan(self.QUERY).branches) == 2
        eager = engine.execute(self.QUERY)
        assert list(eager.relation.rows) == expected
        assert eager.report.spill_count > 0
        assert 0 < eager.report.peak_memory_bytes <= 4_000
        stream = engine.execute_stream(self.QUERY)
        assert stream.fetchall() == expected
        assert stream.report.spill_count > 0 and stream.budget.used_bytes == 0


class TestLimitZero:
    def test_limit_zero_produces_no_join_row(self):
        # Regression: Limit pulled one row past its count, so LIMIT 0 ran the
        # hash build and a probe (HashJoin rows_out=1, Project rows_out=1).
        result = ENGINE.execute("SELECT t.a, u.v FROM t, u WHERE t.a = u.a LIMIT 0")
        assert list(result.relation.rows) == []
        produced = {entry["operator"]: entry["rows_out"]
                    for entry in result.report.snapshot()["operators"]}
        assert {"Scan", "HashJoin", "Project", "Limit"} <= set(produced)
        assert set(produced.values()) == {0}


class _CountingRender:
    """Counts every SQL rendering (``to_sql`` is ``_Printer().render``)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = printer._Printer.render

        def render(printer_self, node):
            self.calls += 1
            return original(printer_self, node)

        monkeypatch.setattr(printer._Printer, "render", render)


class TestLazyOperatorDetail:
    def test_warm_statement_renders_no_sql_until_the_report_is_snapshotted(
            self, monkeypatch):
        federation = build_paper_federation().federation
        federation.query(PAPER_QUERY)
        federation.query(PAPER_QUERY)
        renders = _CountingRender(monkeypatch)
        answer = federation.query(PAPER_QUERY)
        assert renders.calls == 0
        operators_ = answer.execution.report.snapshot()["operators"]
        assert renders.calls > 0
        joins = [entry["detail"] for entry in operators_ if entry["operator"] == "HashJoin"]
        assert joins[0] == "(r1.cname = r2.cname, residual r1.revenue > r2.expenses)"

    def test_served_payload_operator_details_are_unchanged(self):
        channel = MediationServer(build_paper_federation().federation).channel()
        response = channel.post("/coin/api", json.dumps(
            {"operation": "query", "parameters": {"sql": PAPER_QUERY}}))
        served = json.loads(response.body)["payload"]["execution"]["operators"]
        first_branch = [(entry["operator"], entry["detail"])
                        for entry in served if entry["branch"] == 0]
        assert first_branch[1:] == [
            ("HashJoin", "(r1.cname = r2.cname, residual r1.revenue > r2.expenses)"),
            ("Project", "(cname, revenue)"),
        ]
        assert first_branch[0][0] == "Scan"
        assert first_branch[0][1].startswith("(r1_stage") and first_branch[0][1].endswith(
            ", 1 rows)")
        assert all(isinstance(entry["detail"], str) for entry in served)


class _CountingCalls:
    """Counts calls of the mediator's build-time functions, wherever bound.

    A ``from module import name`` binds the function in the importing module,
    so every ``repro`` module attribute (and the classes' methods) that *is*
    the original is replaced by the counting wrapper.  Calls made beneath
    ``wrapper.query``/``fetch`` — a source's own local processor at work —
    are counted apart: ``calls`` is the mediator's side alone."""

    def __init__(self, monkeypatch):
        import sys
        import threading

        from repro.engine.request_cache import request_key
        from repro.mediation.answers import AnswerTransformer
        from repro.relational.compile import ExpressionCompiler
        from repro.relational.schema import expression_type
        from repro.sql.ast import conjoin, walk

        self.calls, self.source_calls = {}, {}
        self._in_source = threading.local()
        modules = [module for name, module in list(sys.modules.items())
                   if name.startswith("repro.") and module is not None]
        for function in (expression_type, walk, conjoin, request_key):
            counting = self._counting(function.__name__, function)
            for module in modules:
                if getattr(module, function.__name__, None) is function:
                    monkeypatch.setattr(module, function.__name__, counting)
        for owner, name in ((AnswerTransformer, "annotate"),
                            (ExpressionCompiler, "_kernel"), (Schema, "__init__")):
            label = f"{owner.__name__}.{name}"
            monkeypatch.setattr(owner, name, self._counting(label, getattr(owner, name)))
        for name in ("query", "fetch"):
            monkeypatch.setattr(RelationalWrapper, name,
                                self._source_side(getattr(RelationalWrapper, name)))

    def _counting(self, label, function):
        self.calls[label] = self.source_calls[label] = 0

        def counting(*args, **kwargs):
            side = self.source_calls if getattr(self._in_source, "depth", 0) else self.calls
            side[label] += 1
            return function(*args, **kwargs)

        return counting

    def _source_side(self, method):
        def inside(*args, **kwargs):
            self._in_source.depth = getattr(self._in_source, "depth", 0) + 1
            try:
                return method(*args, **kwargs)
            finally:
                self._in_source.depth -= 1

        return inside

    def take(self):
        """The mediator-side counts since the last take."""
        taken, self.calls = self.calls, dict.fromkeys(self.calls, 0)
        return taken


class TestWarmStatementBuildsNothing:
    """The second execution of a cached plan binds and iterates: it compiles,
    types, walks, conjoins, keys and annotates nothing, and derives no
    schema."""

    NOTHING = {"AnswerTransformer.annotate": 0, "ExpressionCompiler._kernel": 0,
               "Schema.__init__": 0, "conjoin": 0, "expression_type": 0,
               "request_key": 0, "walk": 0}

    def test_paper_query_through_the_federation(self, monkeypatch):
        federation = build_paper_federation().federation
        expected = federation.query(PAPER_QUERY).relation.rows  # miss: lowers
        counted = _CountingCalls(monkeypatch)
        answer = federation.query(PAPER_QUERY)
        assert counted.take() == self.NOTHING
        assert answer.relation.rows == expected

    def test_the_third_warm_execution_builds_no_hash_table(self, monkeypatch):
        # Cache-resident build inputs: the first warm execution keys and
        # sizes each build and names its input, the second builds again and
        # keeps it; from then on a join reserves the kept bytes and probes —
        # no build-side key kernel call, no build row sized.  The mediated
        # UNION ALL keeps no seen-set, so nothing else sizes a row.
        from repro.relational import operators

        federation = build_paper_federation().federation
        plan = federation.query(PAPER_QUERY).execution.plan  # miss: plain fetches
        calls = {"right_key": 0, "estimate_row_bytes": 0}

        def counting(label, function):
            def counted(row):
                calls[label] += 1
                return function(row)
            return counted

        joins = []
        for branch in plan.template.branches:
            pending = [branch._lowered[1]]
            while pending:
                operator = pending.pop()
                pending.extend(operator.children)
                if operator.operator_name == "HashJoin":
                    joins.append(operator)
                    operator._right_key = counting("right_key", operator._right_key)
        monkeypatch.setattr(operators, "estimate_row_bytes",
                            counting("estimate_row_bytes", operators.estimate_row_bytes))
        assert len(joins) == 5

        first = federation.query(PAPER_QUERY)
        assert len(first.relation.rows) == 1
        once = dict(calls)
        assert once["right_key"] == once["estimate_row_bytes"] > 0
        second = federation.query(PAPER_QUERY)
        built = dict(calls)
        assert built == {label: 2 * count for label, count in once.items()}
        third = federation.query(PAPER_QUERY)
        # Not one more build call.
        assert calls == built
        answers = (first, second, third)
        reports = [answer.execution.report for answer in answers]
        assert [report.join_builds_shared for report in reports] == [0, 0, 5]
        assert reports[0].cache_hits == reports[0].distinct_requests
        assert len({report.peak_memory_bytes for report in reports}) == 1
        assert reports[0].peak_memory_bytes > 0
        assert all(answer.relation.rows == first.relation.rows for answer in answers)

    def test_every_query_shape_with_the_sources_re_running_their_sql(self, monkeypatch):
        engine = _engine()  # no request cache: every execution fetches
        counted = _CountingCalls(monkeypatch)
        for query in QUERIES:
            plan = engine.plan(query)
            counted.take()
            first = list(engine.execute(plan).relation.rows)
            lowering = counted.take()
            # The miss is one build: each operator's kernels, once.
            assert lowering["ExpressionCompiler._kernel"] > 0, query
            assert lowering["request_key"] == plan.template.units, query
            second = list(engine.execute(plan).relation.rows)
            assert counted.take() == self.NOTHING, query
            assert second == first
        assert counted.source_calls["ExpressionCompiler._kernel"] > 0

    def test_a_warm_statement_leaves_nothing_to_the_cycle_collector(self):
        # Bound operators, staged rows and the report die with the statement,
        # by reference count: a cycle through them (a recursive closure in the
        # binder did that once) pins every warm statement's rows until the
        # collector runs, and doubles its work.
        import gc

        federation = build_paper_federation().federation
        for _ in range(2):
            federation.query(PAPER_QUERY)
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                federation.query(PAPER_QUERY)
            assert gc.collect() == 0
        finally:
            gc.enable()
