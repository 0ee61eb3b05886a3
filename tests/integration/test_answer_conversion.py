"""Answer conversion is a query: ``convert_answer`` runs the mediator's own
conversion expressions over the answer, left-joining each rate relation a
conversion names.  The rates are ``r3``'s rows and nothing else, as for the
mediated query, and a rate ``r3`` lacks leaves the row with a NULL value."""

import sqlite3
from itertools import product

import pytest

from repro.coin.context import Context
from repro.demo.scenarios import build_paper_federation
from repro.errors import ReproError
from repro.sql.printer import to_sql

R1_REVENUES = "SELECT r1.cname, r1.revenue FROM r1"

#: The paper system's receiver contexts and one in a currency ``r3`` does
#: not quote (the fixture also adds a GBP one: ``r3`` quotes GBP against USD
#: only).
CONTEXTS = ("c_receiver", "c_receiver_jpy", "c_receiver_xyz")


@pytest.fixture
def federation():
    federation = build_paper_federation().federation
    for name, currency in (("c_receiver_xyz", "XYZ"), ("c_receiver_gbp", "GBP")):
        context = Context(name, f"Receiver: {currency}, scale factor 1")
        context.declare_constant("companyFinancials", "currency", currency)
        context.declare_constant("companyFinancials", "scaleFactor", 1)
        federation.system.add_context(context)
    return federation


def r3_rows(federation):
    return federation.query("SELECT * FROM r3", mediate=False).relation.rows


def sqlite_rows(sql, answer, rates):
    """``sql`` run by sqlite3 over the answer (columns by position) and r3."""
    connection = sqlite3.connect(":memory:")
    try:
        columns = ", ".join(f"c{position}" for position in range(len(answer.schema)))
        connection.execute(f"CREATE TABLE answer ({columns})")
        connection.executemany(
            f"INSERT INTO answer VALUES ({', '.join('?' for _ in answer.schema)})", answer.rows)
        connection.execute("CREATE TABLE r3 (fromCur, toCur, rate)")
        connection.executemany("INSERT INTO r3 VALUES (?, ?, ?)", rates)
        return [tuple(row) for row in connection.execute(sql).fetchall()]
    finally:
        connection.close()


class TestMissingRates:
    def test_a_currency_r3_does_not_quote_keeps_every_row(self, federation):
        answer = federation.query(R1_REVENUES)
        converted = federation.convert_answer(answer, "c_receiver_xyz")
        assert converted.schema.names == ["cname", "revenue"]
        assert converted.rows == [(name, None) for name, _revenue in answer.relation.rows]

    def test_a_pair_r3_lacks_is_not_derived_through_usd(self, federation):
        # r3 quotes GBP->USD and USD->JPY, but not GBP->JPY.
        answer = federation.query(R1_REVENUES, receiver_context="c_receiver_gbp")
        assert answer.relation.rows == [("IBM", pytest.approx(625_000))]
        converted = federation.convert_answer(answer, "c_receiver_jpy")
        assert converted.rows == [("IBM", None)]

    def test_an_unknown_context_raises_a_typed_error(self, federation):
        answer = federation.query(R1_REVENUES)
        with pytest.raises(ReproError):
            federation.convert_answer(answer, "c_nowhere")


class TestTheStatementIsSQL:
    """The transform's statement, printed, runs unmodified in sqlite3 over
    the same answer and r3 rows, and gives the transform's rows."""

    @pytest.mark.parametrize("from_context, to_context", list(product(CONTEXTS, CONTEXTS)))
    def test_sqlite_agrees(self, federation, from_context, to_context):
        answer = federation.query(R1_REVENUES)
        semantics = answer.mediation.column_semantics
        transformer = federation.transformer
        converted = transformer.transform(answer.relation, semantics, from_context, to_context)
        query = transformer.query(answer.relation.schema, semantics, from_context, to_context)
        assert sqlite_rows(to_sql(query), answer.relation, r3_rows(federation)) == converted.rows


class TestRateReads:
    def test_the_request_cache_answers_a_repeated_read(self, federation):
        record = federation.engine.resilience.source("exchange")
        answer = federation.query(R1_REVENUES)
        federation.convert_answer(answer, "c_receiver_jpy")
        reads = record.successes
        federation.convert_answer(answer, "c_receiver_jpy")
        assert record.successes == reads

    def test_without_the_request_cache_each_call_reads_r3(self, federation):
        federation.engine.request_cache = None
        record = federation.engine.resilience.source("exchange")
        answer = federation.query(R1_REVENUES)
        federation.convert_answer(answer, "c_receiver_jpy")
        reads = record.successes
        federation.convert_answer(answer, "c_receiver_jpy")
        assert record.successes == reads + 1
