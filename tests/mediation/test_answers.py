"""Unit tests for answer transformation and annotation."""

import pytest

from repro.errors import ExecutionError, MediationError
from repro.demo.scenarios import build_paper_coin_system
from repro.mediation.answers import AnswerTransformer
from repro.relational.query import QueryProcessor
from repro.relational.relation import relation_from_rows
from repro.sql.printer import to_sql


def result_relation():
    return relation_from_rows(
        "answer",
        ["cname:string", "revenue:float"],
        [("NTT", 9_600_000.0), ("IBM", 1_000_000.0)],
        qualifier=None,
    )


def rates():
    return relation_from_rows(
        "r3", ["fromCur:string", "toCur:string", "rate:float"],
        [("USD", "JPY", 104.0), ("JPY", "USD", 1 / 104.0)], qualifier=None,
    )


@pytest.fixture
def reads():
    """The relation names the transformer read, in order."""
    return []


@pytest.fixture
def transformer(reads):
    tables = {"r3": rates()}

    def read(name):
        reads.append(name)
        if name not in tables:
            raise ExecutionError(f"unknown table {name!r}")
        return tables[name]

    return AnswerTransformer(build_paper_coin_system(), read)


class TestAnnotations:
    def test_semantic_column_annotated_with_modifiers(self, transformer):
        annotations = transformer.annotate(
            result_relation(), [None, "companyFinancials"], "c_receiver"
        )
        assert annotations[0].label() == "cname"
        assert annotations[1].semantic_type == "companyFinancials"
        assert annotations[1].modifier_values == {"currency": "USD", "scaleFactor": 1}
        assert "currency=USD" in annotations[1].label()

    def test_jpy_receiver_annotation(self, transformer):
        annotations = transformer.annotate(
            result_relation(), [None, "companyFinancials"], "c_receiver_jpy"
        )
        assert annotations[1].modifier_values["currency"] == "JPY"
        assert annotations[1].modifier_values["scaleFactor"] == 1000


class TestTransformation:
    def test_usd_to_jpy_transformation(self, transformer):
        converted = transformer.transform(
            result_relation(), [None, "companyFinancials"], "c_receiver", "c_receiver_jpy"
        )
        # USD scale 1 -> JPY scale 1000: multiply by 104, divide by 1000.
        assert converted.rows[0][1] == pytest.approx(9_600_000 * 104.0 / 1000)
        assert converted.rows[0][0] == "NTT"

    def test_roundtrip_is_identity_up_to_float_error(self, transformer):
        original = result_relation()
        there = transformer.transform(original, [None, "companyFinancials"],
                                      "c_receiver", "c_receiver_jpy")
        back = transformer.transform(there, [None, "companyFinancials"],
                                     "c_receiver_jpy", "c_receiver")
        assert back.rows[0][1] == pytest.approx(original.rows[0][1])

    def test_same_context_is_noop(self, transformer):
        original = result_relation()
        assert transformer.transform(original, [None, "companyFinancials"],
                                     "c_receiver", "c_receiver") is original

    def test_non_semantic_columns_untouched(self, transformer):
        converted = transformer.transform(
            result_relation(), [None, None], "c_receiver", "c_receiver_jpy"
        )
        assert converted.rows == result_relation().rows

    def test_null_values_pass_through(self, transformer):
        relation = relation_from_rows("t", ["v:float"], [(None,)], qualifier=None)
        converted = transformer.transform(relation, ["companyFinancials"],
                                          "c_receiver", "c_receiver_jpy")
        assert converted.rows == [(None,)]

    def test_arity_mismatch_rejected(self, transformer):
        with pytest.raises(MediationError):
            transformer.transform(result_relation(), [None], "c_receiver", "c_receiver_jpy")

    def test_the_rates_are_read_once_per_transform(self, transformer, reads):
        transformer.transform(result_relation(), [None, "companyFinancials"],
                              "c_receiver", "c_receiver_jpy")
        assert reads == ["r3"]

    def test_only_ancillary_relations_are_read(self, transformer, reads):
        system = transformer.system
        system.contexts.get("c_receiver_jpy").declare_constant(
            "companyFinancials", "currency", "USD")
        converted = transformer.transform(result_relation(), [None, "companyFinancials"],
                                          "c_receiver", "c_receiver_jpy")
        assert reads == []
        assert converted.rows[1][1] == 1_000  # scale only: 1 000 000 / 1 000


class TestConversionQuery:
    """The transform is one statement over the answer (table ``answer``,
    columns by position) and each relation a conversion names."""

    def test_the_paper_conversion_as_sql(self, transformer):
        query = transformer.query(result_relation().schema, [None, "companyFinancials"],
                                  "c_receiver", "c_receiver_jpy")
        assert to_sql(query) == (
            "SELECT answer.c0 AS cname, answer.c1 * 0.001 * r3.rate AS revenue "
            "FROM answer LEFT JOIN (SELECT * FROM r3 WHERE r3.fromCur = 'USD' "
            "AND r3.toCur = 'JPY') r3 ON TRUE")

    def test_an_integral_scale_ratio_multiplies_by_an_int(self, transformer):
        query = transformer.query(result_relation().schema, [None, "companyFinancials"],
                                  "c_receiver_jpy", "c_receiver")
        assert "answer.c1 * 1000 * r3.rate" in to_sql(query)

    def test_duplicate_names_cannot_clash(self, transformer):
        answer = relation_from_rows(
            "answer", ["revenue:float", "revenue:float"], [(1.0, 2.0)], qualifier=None)
        converted = transformer.transform(answer, ["companyFinancials", None],
                                          "c_receiver", "c_receiver_jpy")
        assert converted.schema.names == ["revenue", "revenue"]
        assert converted.rows == [(pytest.approx(0.104), 2.0)]

    def test_the_query_runs_on_the_local_processor(self, transformer):
        answer = result_relation()
        query = transformer.query(answer.schema, [None, "companyFinancials"],
                                  "c_receiver", "c_receiver_jpy")
        staged = relation_from_rows("answer", ["c0:string", "c1:float"], answer.rows,
                                    qualifier=None)
        rows = QueryProcessor.over_tables({"answer": staged, "r3": rates()}).execute(query).rows
        assert rows == transformer.transform(answer, [None, "companyFinancials"],
                                             "c_receiver", "c_receiver_jpy").rows
