"""One statement, every entry point: the same rows, the same report shape,
the same error kinds — and nothing left open afterwards.

The mediator is reachable through thirteen front doors (``Federation.query``
eager/stream, prepared eager/stream, ``Federation.open`` gated by an
admission gateway eager/stream, the wire protocol's
``query``/``execute_prepared``/``open_cursor``, the chunked HTTP endpoint,
the QBE form and the ODBC driver over the event-loop transport),
and a statement is either the first execution of its plan (which lowers the
plan's physical template) or a later one (which binds it).
They are codecs and drains of one statement path, so this matrix pins what
that means from the outside:

* identical rows and an identical ``execution`` key set per consistency mode,
  also for a certain answer only repair enumeration gives;
* per edge, the error class / ``error_kind`` of every invalid option;
* the golden key sets of the wire payloads and the chunked stream;
* after every case: zero open cursors, zero held stream permits, zero
  unfinished spans (tracer at ``sample_rate=1.0``).
"""

import json

import pytest

from repro.coin.context import Context, ContextRegistry
from repro.coin.domain import build_financial_domain_model
from repro.coin.system import CoinSystem
from repro.consistency import PrimaryKey
from repro.errors import (
    ClientError,
    ConsistencyError,
    ExecutionError,
    MediationError,
)
from repro.federation import Federation
from repro.obs import Observability
from repro.options import StatementOptions
from repro.server import AsyncMediationServer, odbc
from repro.server.gateway import AdmissionGateway, GatewayConfig
from repro.server.protocol import Request
from repro.server.qbe import QBEInterface
from repro.server.server import MediationServer
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper

SQL = ("SELECT accounts.owner, accounts.balance FROM accounts "
       "WHERE accounts.balance > 5")
CONTEXT = "c_plain"
FORM = {
    "show__accounts__owner": "on",
    "show__accounts__balance": "on",
    "cond__accounts__balance": "> 5",
    "context": CONTEXT,
}
EXPECTED = {
    "raw": [("ann", 10.0), ("bob", 20.0), ("bob", 25.0), ("eve", 30.0)],
    # bob's balance conflicts inside the id=2 cluster: not certain.
    "certain": [("ann", 10.0), ("eve", 30.0)],
}
#: Matrix mode -> (statement, consistency mode).  A certain answer under a
#: LIMIT has no rewrite: repair enumeration answers it, materialized before
#: its first row leaves, so every cursor door hands over stored rows.
MODES = {
    "raw": (SQL, "raw"),
    "certain": (SQL, "certain"),
    "enumerated": (SQL + " LIMIT 10", "certain"),
}


class Stack:
    """A keyed dirty federation behind every serving front, on one gateway."""

    def __init__(self, memory_budget_bytes=None, **gateway_overrides):
        contexts = ContextRegistry()
        contexts.register(Context(CONTEXT, "receiver without conventions"))
        system = CoinSystem(build_financial_domain_model(), contexts,
                            name="statement-paths")
        self.federation = Federation(
            system, default_receiver_context=CONTEXT,
            memory_budget_bytes=memory_budget_bytes,
            observability=Observability(tracing=True, sample_rate=1.0))
        ledger = MemorySQLSource("ledger")
        ledger.load_sql(
            "CREATE TABLE accounts (id integer, owner string, balance float)",
            "INSERT INTO accounts VALUES (1, 'ann', 10.0), (2, 'bob', 20.0), "
            "(2, 'bob', 25.0), (3, 'eve', 30.0)",
        )
        self.federation.register_wrapper(RelationalWrapper(ledger),
                                         estimate_rows=False)
        self.federation.register_constraint(
            PrimaryKey("accounts_pk", relation="accounts", columns=("id",)))
        self.gateway = AdmissionGateway(GatewayConfig(**gateway_overrides))
        self.server = MediationServer(self.federation, gateway=self.gateway)
        self.qbe = QBEInterface(self.federation, gateway=self.gateway)
        self.channel = self.server.channel()
        self._aio = None

    @property
    def aio(self):
        if self._aio is None:
            self._aio = AsyncMediationServer(self.server).start()
        return self._aio

    def close(self):
        if self._aio is not None:
            self._aio.shutdown(5.0)

    # -- codecs --------------------------------------------------------------------

    def wire(self, operation, **parameters):
        return self.server.handle(Request(operation=operation,
                                          parameters=parameters))

    def chunked(self, **parameters):
        body = json.dumps({"operation": "query", "parameters": parameters})
        response = self.channel.post(MediationServer.STREAM_ENDPOINT, body)
        if response.chunks is None:
            return response, None
        return response, [json.loads(chunk) for chunk in response.chunks]

    # -- invariants ----------------------------------------------------------------

    def assert_nothing_left_open(self):
        snapshot = self.server.snapshot()
        assert snapshot["open_cursors"] == 0
        load = self.gateway.snapshot()
        assert load["active_streams"] == 0
        assert load["active"] == 0
        tracer = self.federation.observability.tracer
        assert tracer.started == tracer.finished

        def spans(document):
            yield document
            for child in document.get("children", ()):
                yield from spans(child)

        assert not [span["name"] for trace in tracer.buffer.traces()
                    for span in spans(trace) if span.get("open")]


@pytest.fixture()
def stack():
    built = Stack()
    yield built
    built.close()
    built.assert_nothing_left_open()


def _fetch_all(stack, opened, count=3):
    """Drain a wire cursor; returns (rows, the final fetch payload)."""
    rows = []
    while True:
        payload = stack.wire("fetch_cursor", cursor_id=opened["cursor_id"],
                             count=count).payload
        rows.extend(payload["rows"])
        if payload["done"]:
            return rows, payload


# -- the entry points: (stack, sql, mode) -> (rows, execution snapshot) ------------------


def federation_eager(stack, sql, mode):
    answer = stack.federation.query(sql, CONTEXT, consistency=mode)
    return answer.relation.rows, answer.execution.report.snapshot()


def federation_stream(stack, sql, mode):
    with stack.federation.query(sql, CONTEXT, stream=True,
                                consistency=mode) as cursor:
        rows = cursor.fetchall()
    return rows, cursor.report.snapshot()


def prepared_eager(stack, sql, mode):
    answer = stack.federation.prepare(sql, CONTEXT, consistency=mode).execute()
    return answer.relation.rows, answer.execution.report.snapshot()


def prepared_stream(stack, sql, mode):
    prepared = stack.federation.prepare(sql, CONTEXT, consistency=mode)
    with prepared.execute(stream=True) as cursor:
        rows = cursor.fetchall()
    return rows, cursor.report.snapshot()


def _gated(stack, sql, mode, stream, **options):
    return stack.federation.open(sql, StatementOptions(
        receiver_context=CONTEXT, consistency=mode, **options), stream,
        gateway=stack.gateway)


def gated_eager(stack, sql, mode):
    cursor = _gated(stack, sql, mode, stream=False)
    rows = cursor.fetchall()
    return rows, cursor.summary().execution


def gated_stream(stack, sql, mode):
    with _gated(stack, sql, mode, stream=True, batch_size=3) as cursor:
        rows = cursor.fetchall()
    return rows, cursor.summary().execution


def wire_query(stack, sql, mode):
    payload = stack.wire("query", sql=sql, context=CONTEXT,
                         consistency=mode).payload
    return payload["relation"]["rows"], payload["execution"]


def wire_execute_prepared(stack, sql, mode):
    prepared = stack.wire("prepare", sql=sql, context=CONTEXT,
                          consistency=mode).payload
    payload = stack.wire("execute_prepared",
                         statement_id=prepared["statement_id"]).payload
    stack.wire("close_prepared", statement_id=prepared["statement_id"])
    return payload["relation"]["rows"], payload["execution"]


def wire_open_cursor(stack, sql, mode):
    opened = stack.wire("open_cursor", sql=sql, context=CONTEXT,
                        consistency=mode).payload
    rows, final = _fetch_all(stack, opened)
    return rows, final["execution"]


def wire_open_prepared_cursor(stack, sql, mode):
    prepared = stack.wire("prepare", sql=sql, context=CONTEXT,
                          consistency=mode).payload
    opened = stack.wire("open_cursor",
                        statement_id=prepared["statement_id"]).payload
    rows, final = _fetch_all(stack, opened)
    stack.wire("close_prepared", statement_id=prepared["statement_id"])
    return rows, final["execution"]


def chunked_http(stack, sql, mode):
    response, chunks = stack.chunked(sql=sql, context=CONTEXT,
                                     consistency=mode, batch_size=3)
    assert response.status == 200
    rows = [row for chunk in chunks[1:-1] for row in chunk["rows"]]
    return rows, chunks[-1]["execution"]


def qbe_submit(stack, sql, mode):
    _form, answer = stack.qbe.submit({**FORM, "consistency": mode})
    return answer.relation.rows, answer.execution.report.snapshot()


def qbe_submit_stream(stack, sql, mode):
    _form, cursor = stack.qbe.submit_stream({**FORM, "consistency": mode})
    with cursor:
        rows = cursor.fetchall()
    return rows, cursor.report.snapshot()


def _odbc(stack, sql, mode, **execute_options):
    connection = odbc.connect(async_server=stack.aio, transport="native",
                              context=CONTEXT)
    try:
        cursor = connection.cursor().execute(sql, consistency=mode,
                                             **execute_options)
        rows = cursor.fetchall()
        return rows, cursor.execution
    finally:
        connection.close()


def odbc_aio_eager(stack, sql, mode):
    return _odbc(stack, sql, mode)


def odbc_aio_stream(stack, sql, mode):
    return _odbc(stack, sql, mode, stream=True, batch_size=3)


def _templates(answer):
    """The operator template each branch of the executed plan keeps."""
    return [branch._lowered for branch in answer.execution.plan.template.branches]


def template_miss(stack, sql, mode):
    """A plan's first execution lowers its template: that *is* its build."""
    answer = stack.federation.query(sql, CONTEXT, consistency=mode)
    assert all(kept is not None for kept in _templates(answer))
    return answer.relation.rows, answer.execution.report.snapshot()


def template_hit(stack, sql, mode):
    """Later executions of the cached plan bind the template the first left."""
    first = stack.federation.query(sql, CONTEXT, consistency=mode)
    lowered = _templates(first)
    answer = stack.federation.query(sql, CONTEXT, consistency=mode)
    assert answer.execution.plan is first.execution.plan
    assert all(kept is not None for kept in lowered)
    assert all(kept is held for kept, held in zip(_templates(answer), lowered))
    assert answer.relation.rows == first.relation.rows
    return answer.relation.rows, answer.execution.report.snapshot()


ENTRY_POINTS = (
    federation_eager, federation_stream, prepared_eager, prepared_stream,
    gated_eager, gated_stream, wire_query, wire_execute_prepared,
    wire_open_cursor, wire_open_prepared_cursor, chunked_http, qbe_submit,
    qbe_submit_stream, odbc_aio_eager, odbc_aio_stream,
    template_miss, template_hit,
)
#: Not run in the enumerated mode: the QBE form has no LIMIT, and an
#: enumerated answer executes no plan of the statement's, so it lowers and
#: binds no template.
NOT_ENUMERATED = (qbe_submit, qbe_submit_stream, template_miss, template_hit)

#: Top-level keys of ``ExecutionReport.snapshot()`` on a traced statement.
EXECUTION_KEYS = {
    "requests", "rows_transferred", "branch_rows", "result_rows",
    "elapsed_seconds", "temp_storage", "operators", "scheduler", "streaming",
    "memory", "resilience", "optimizer", "trace_id",
}


class TestSameAnswerThroughEveryDoor:
    @pytest.mark.parametrize("mode, entry", [
        pytest.param(mode, entry, id=f"{entry.__name__}-{mode}")
        for mode in MODES for entry in ENTRY_POINTS
        if not (mode == "enumerated" and entry in NOT_ENUMERATED)])
    def test_rows_and_report_shape(self, stack, entry, mode):
        sql, consistency = MODES[mode]
        rows, execution = entry(stack, sql, consistency)
        assert sorted(tuple(row) for row in rows) == EXPECTED[consistency]
        expected_keys = EXECUTION_KEYS | ({"consistency"} if consistency != "raw"
                                          else set())
        assert set(execution) == expected_keys
        if consistency != "raw":
            assert execution["consistency"]["mode"] == consistency
            assert (execution["consistency"]["strategy"] == "fallback") == (
                mode == "enumerated")
        stack.assert_nothing_left_open()


class TestCertainAnswerRunsOnTheOnePath:
    """A certain answer is a plan like any other: compiled once per statement,
    listed operator by operator, and as easy to walk away from."""

    def test_plan_is_compiled_once_and_lists_its_quantifier(self, stack):
        answers = [stack.federation.query(SQL, CONTEXT, consistency="certain")
                   for _execution in range(3)]
        assert len({id(answer.execution.plan) for answer in answers}) == 1
        assert answers[0].execution.plan is not stack.federation.query(
            SQL, CONTEXT).execution.plan
        listed = [entry["operator"]
                  for entry in answers[-1].execution.report.snapshot()["operators"]]
        assert listed == ["Scan", "Aggregate", "Filter", "Project", "Distinct"]

    def test_cursor_closed_after_its_first_row_leaves_nothing(self):
        stack = Stack(memory_budget_bytes=1_000_000)
        engine = stack.federation.engine
        try:
            for door in ("federation", "wire"):
                if door == "federation":
                    cursor = stack.federation.query(SQL, CONTEXT, stream=True,
                                                    consistency="certain")
                    assert cursor.fetchone() in EXPECTED["certain"]
                    budget = cursor.stream.budget
                    assert engine.temp_store.handles and budget.used_bytes > 0
                    cursor.close()
                    assert budget.used_bytes == 0
                else:
                    opened = stack.wire("open_cursor", sql=SQL, context=CONTEXT,
                                        consistency="certain").payload
                    first = stack.wire("fetch_cursor", count=1,
                                       cursor_id=opened["cursor_id"]).payload
                    assert len(first["rows"]) == 1 and not first["done"]
                    assert stack.wire("close_cursor",
                                      cursor_id=opened["cursor_id"]).payload["closed"]
                assert engine.temp_store.handles == []
                stack.assert_nothing_left_open()
        finally:
            stack.close()


#: Statements whose finish is more than a projection: a grouped one (with a
#: HAVING and an aggregate ORDER BY key that is not in the select list) and one
#: ordered by a column beneath the select list.  Row order is part of the answer.
FINISHES = {
    "grouped": (
        "SELECT accounts.owner, COUNT(*) AS n, SUM(accounts.balance) FROM accounts "
        "GROUP BY accounts.owner HAVING SUM(accounts.balance) > 15 "
        "ORDER BY MAX(accounts.balance) DESC",
        [("eve", 1, 30.0), ("bob", 2, 45.0)],
    ),
    "beneath": (
        "SELECT accounts.owner FROM accounts ORDER BY accounts.balance DESC",
        [("eve",), ("bob",), ("bob",), ("ann",)],
    ),
}


class TestOneFinishEagerStreamedAndSpilled:
    @pytest.mark.parametrize("path", ["eager", "streamed", "spilled"])
    @pytest.mark.parametrize("finish", sorted(FINISHES))
    def test_same_rows_in_the_same_order(self, finish, path):
        sql, expected = FINISHES[finish]
        # 200 bytes hold less than the four account rows a sort buffers.
        stack = Stack(memory_budget_bytes=200 if path == "spilled" else None)
        try:
            for _execution in ("lowers the template", "binds it"):
                if path == "eager":
                    answer = stack.federation.query(sql, CONTEXT)
                    rows, report = answer.relation.rows, answer.execution.report
                else:
                    with stack.federation.query(sql, CONTEXT, stream=True) as cursor:
                        rows = cursor.fetchall()
                    report = cursor.report
                assert rows == expected
                execution = report.snapshot()
                assert set(execution) == EXECUTION_KEYS
                listed = [entry["operator"] for entry in execution["operators"]]
                assert listed == {
                    "grouped": ["Scan", "Aggregate", "Filter", "Sort", "Project"],
                    "beneath": ["Scan", "Sort", "Project"],
                }[finish]
                if path == "spilled" and finish == "beneath":
                    assert execution["memory"]["spill_count"] >= 1
        finally:
            stack.close()
        stack.assert_nothing_left_open()


# -- invalid options: the error each edge answers with ------------------------------

#: case -> the option values that make it invalid, in keyword spelling.
INVALID = {
    "non_numeric_timeout": {"timeout_seconds": "soon"},
    "unknown_consistency": {"consistency": "certian"},
    "unknown_on_source_error": {"on_source_error": "ignore"},
    "partial_with_certain": {"consistency": "certain",
                             "on_source_error": "partial"},
    "batch_size_zero": {"batch_size": 0},
}

#: What the typed (keyword) edges raise; the wire reports the class name as
#: its ``error_kind``.  Malformed values never reach the keyword edges.
SEMANTIC_ERRORS = {
    "unknown_consistency": ConsistencyError,
    "unknown_on_source_error": ExecutionError,
    "partial_with_certain": MediationError,
}
WIRE_KINDS = {
    "non_numeric_timeout": "ProtocolError",
    "unknown_consistency": "ConsistencyError",
    "unknown_on_source_error": "ExecutionError",
    "partial_with_certain": "MediationError",
}
#: The chunked endpoint answers malformed requests 400/"protocol" and
#: invalid statements 422/<class name>.
CHUNKED = {
    "non_numeric_timeout": (400, "protocol"),
    "unknown_consistency": (422, "ConsistencyError"),
    "unknown_on_source_error": (422, "ExecutionError"),
    "partial_with_certain": (422, "MediationError"),
    "batch_size_zero": (400, "protocol"),
}
#: The form's own vocabulary checks are the client's fault; the cross-option
#: rule is the mediator's.
QBE_ERRORS = {
    "non_numeric_timeout": ClientError,
    "unknown_consistency": ClientError,
    "unknown_on_source_error": ClientError,
    "partial_with_certain": MediationError,
}


class TestInvalidOptionsPerEdge:
    @pytest.mark.parametrize("case", sorted(SEMANTIC_ERRORS))
    def test_keyword_edges(self, stack, case):
        options, error = INVALID[case], SEMANTIC_ERRORS[case]
        with pytest.raises(error):
            stack.federation.query(SQL, CONTEXT, **options)
        with pytest.raises(error):
            stack.federation.query(SQL, CONTEXT, stream=True, **options)
        with pytest.raises(error):
            stack.federation.prepare(SQL, CONTEXT, **options)
        stack.assert_nothing_left_open()

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_options_reject_a_batch_size_that_is_not_positive(
            self, stack, batch_size):
        """The gated in-process door's only check: the options constructor."""
        with pytest.raises(ExecutionError, match="batch_size must be positive"):
            StatementOptions(receiver_context=CONTEXT, batch_size=batch_size)

    @pytest.mark.parametrize("operation", ["query", "prepare", "open_cursor"])
    @pytest.mark.parametrize("case", sorted(WIRE_KINDS))
    def test_wire(self, stack, operation, case):
        response = stack.wire(operation, sql=SQL, context=CONTEXT,
                              **INVALID[case])
        assert not response.ok
        assert response.error_kind == WIRE_KINDS[case]
        stack.assert_nothing_left_open()

    def test_wire_fetch_count_zero(self, stack):
        opened = stack.wire("open_cursor", sql=SQL, context=CONTEXT).payload
        response = stack.wire("fetch_cursor", cursor_id=opened["cursor_id"],
                              count=0)
        assert (response.ok, response.error_kind) == (False, "ProtocolError")
        assert stack.wire("close_cursor",
                          cursor_id=opened["cursor_id"]).payload["closed"]

    @pytest.mark.parametrize("case", sorted(CHUNKED))
    def test_chunked_http(self, stack, case):
        response, chunks = stack.chunked(sql=SQL, context=CONTEXT,
                                         **INVALID[case])
        assert chunks is None
        body = json.loads(response.body)
        assert (response.status, body["error_kind"]) == CHUNKED[case]
        stack.assert_nothing_left_open()

    @pytest.mark.parametrize("case", sorted(QBE_ERRORS))
    def test_qbe(self, stack, case):
        fields = {**FORM, **{name: str(value)
                             for name, value in INVALID[case].items()}}
        with pytest.raises(QBE_ERRORS[case]):
            stack.qbe.submit(fields)
        with pytest.raises(QBE_ERRORS[case]):
            stack.qbe.submit_stream(fields)
        stack.assert_nothing_left_open()

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("case", sorted(WIRE_KINDS))
    def test_odbc_over_aio(self, stack, case, stream):
        connection = odbc.connect(async_server=stack.aio, transport="native",
                                  context=CONTEXT)
        try:
            with pytest.raises(ClientError) as raised:
                connection.cursor().execute(SQL, stream=stream,
                                            **INVALID[case])
            assert raised.value.error_kind == WIRE_KINDS[case]
        finally:
            connection.close()
        stack.assert_nothing_left_open()


# -- the wire contract: golden payload key sets -------------------------------------

ANSWER_KEYS = {"relation", "mediated_sql", "branch_count", "conflicts",
               "column_labels", "execution", "trace_id", "trace"}
DESCRIPTION_KEYS = {"columns", "types", "mediated_sql", "branch_count",
                    "conflicts", "column_labels"}


class TestGoldenPayloads:
    def test_query(self, stack):
        payload = stack.wire("query", sql=SQL, context=CONTEXT).payload
        assert set(payload) == ANSWER_KEYS
        assert set(payload["relation"]) == {"columns", "types", "rows"}

    def test_prepare_and_execute_prepared(self, stack):
        prepared = stack.wire("prepare", sql=SQL, context=CONTEXT,
                              consistency="certain").payload
        assert set(prepared) == {
            "statement_id", "original_sql", "mediated_sql", "branch_count",
            "conflicts", "receiver_context", "consistency", "trace_id",
            "trace"}
        assert prepared["consistency"] == "certain"
        executed = stack.wire("execute_prepared",
                              statement_id=prepared["statement_id"]).payload
        assert set(executed) == ANSWER_KEYS | {"statement_id"}

    def test_open_and_fetch_cursor(self, stack):
        opened = stack.wire("open_cursor", sql=SQL, context=CONTEXT).payload
        assert set(opened) == DESCRIPTION_KEYS | {
            "cursor_id", "receiver_context", "trace_id"}
        first = stack.wire("fetch_cursor", cursor_id=opened["cursor_id"],
                           count=1).payload
        assert set(first) == {"cursor_id", "rows", "done"}
        assert first["done"] is False
        _rows, final = _fetch_all(stack, opened, count=10)
        assert set(final) == {"cursor_id", "rows", "done", "execution",
                              "trace_id", "trace"}
        assert final["trace_id"] == opened["trace_id"]

    def test_chunked_stream(self, stack):
        response, chunks = stack.chunked(sql=SQL, context=CONTEXT,
                                         batch_size=3)
        assert response.headers[MediationServer.TRACE_HEADER]
        assert set(chunks[0]) == DESCRIPTION_KEYS
        assert [set(chunk) for chunk in chunks[1:-1]] == [{"rows"}, {"rows"}]
        assert set(chunks[-1]) == {"done", "row_count", "execution"}
        assert chunks[-1]["row_count"] == 4


# -- one admitted open: the permit comes first --------------------------------------


class TestOpenCursorClaimsItsPermitBeforeAdmission:
    def test_shed_at_permit_capacity_never_reaches_a_worker(self):
        stack = Stack(max_active_streams=1, tenant_rate_per_second=1.0,
                      tenant_burst=2.0)
        held = stack.wire("open_cursor", sql=SQL, context=CONTEXT,
                          tenant="acme")
        assert held.ok
        before = stack.gateway.snapshot()
        shed = stack.wire("open_cursor", sql=SQL, context=CONTEXT,
                          tenant="acme")
        after = stack.gateway.snapshot()
        assert (shed.ok, shed.error_kind) == (False, "OverloadError")
        # The shed carries the gateway's back-off hint; a permit has no ETA
        # (it frees when some consumer closes), so the hint is "unknown".
        assert shed.retry_after_seconds is None
        assert after["shed"]["streams"] == before["shed"]["streams"] + 1
        # Shed on the permit alone: no worker slot, no tenant token spent.
        assert after["admitted"] == before["admitted"]
        assert after["arrived"] == before["arrived"]
        assert (after["tenants"]["acme"]["admitted"]
                == before["tenants"]["acme"]["admitted"])
        # The tenant's second (and last) burst token is still there: once
        # the held cursor closes, the retry is admitted.
        assert stack.wire("close_cursor",
                          cursor_id=held.payload["cursor_id"]).payload["closed"]
        retried = stack.wire("open_cursor", sql=SQL, context=CONTEXT,
                             tenant="acme")
        assert retried.ok
        stack.wire("close_cursor", cursor_id=retried.payload["cursor_id"])
        stack.assert_nothing_left_open()
