"""Mediation against its definition, on generated COIN theories.

Each example draws a theory (:func:`theories.theories`: 2-4 sources, 1-3
semantic types, constant, column-valued and guarded modifiers, rows with
NULLs and duplicates, empty relations) and a receiver statement over it, runs
the statement through a federation built from the theory, and holds the
answer to both oracles of :mod:`tests.mediation.theories` — the unmediated
statement over relations converted in Python, interpreted and in sqlite3 —
and the branches' guards to a partition of the rows.  A failure prints a
``test_reproducer`` case (theory, SQL) to paste below.

The fixed example counts run in tier-1; ``pytest -m theories_long`` runs the
long generation, which tier-1 skips.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.tight import GlobalSchemaIntegrator, SourceConvention
from repro.coin.context import ConstantValue, Guard, ModifierCase
from repro.demo.datasets import PAPER_EXPECTED_ANSWER, PAPER_QUERY, paper_r1, paper_r2
from repro.demo.scenarios import build_paper_federation
from repro.errors import MediationError
from repro.relational.relation import Relation
from repro.sources.exchange import DEFAULT_RATES, complete_rates

from tests.mediation.theories import (
    Source,
    Theory,
    check_statement,
    converted_rows,
    normalized,
    reference_rows,
    sqlite_rows,
    statements,
    theories,
)

FIXED = settings(max_examples=100, deadline=None, derandomize=True, database=None)
LONG = settings(max_examples=2000, deadline=None, derandomize=True, database=None)


def _check(data, unqualified: bool, otherwise: bool = False) -> None:
    theory = data.draw(theories(otherwise=otherwise), label="theory")
    statement = data.draw(statements(theory, unqualified), label="statement")
    check_statement(theory, statement.sql, statement.ordered)


@FIXED
@given(st.data())
def test_qualified_statements_answer_as_both_oracles(data):
    _check(data, unqualified=False)


@FIXED
@given(st.data())
def test_unqualified_and_aliased_statements_answer_as_both_oracles(data):
    _check(data, unqualified=True)


@FIXED
@given(st.data())
def test_a_declaration_ending_in_an_unguarded_case_means_otherwise(data):
    _check(data, unqualified=False, otherwise=True)


@pytest.mark.theories_long
@LONG
@given(st.data(), st.booleans(), st.booleans())
def test_long_generation(data, unqualified, otherwise):
    _check(data, unqualified, otherwise)


# ---------------------------------------------------------------------------
# The oracle, checked once against the tight-coupling baseline
# ---------------------------------------------------------------------------


def paper_theory() -> Theory:
    """The paper's Figure-2 theory as data: r1 reports in the row's currency,
    in thousands when that is JPY; r2 in USD; the receiver wants USD, scale 1."""
    r1 = Source("r1", (("cname", "string"), ("revenue", "float"), ("currency", "string")),
                (("revenue", "money"),),
                (("money", "scaleFactor", ((("const", 1000), (("currency", "=", "JPY"),)),
                                           (("const", 1), (("currency", "<>", "JPY"),)))),
                 ("money", "currency", ((("attr", "currency"), ()),))),
                tuple(paper_r1().rows))
    r2 = Source("r2", (("cname", "string"), ("expenses", "float")),
                (("expenses", "money"),),
                (("money", "scaleFactor", ((("const", 1), ()),)),
                 ("money", "currency", ((("const", "USD"), ()),))),
                tuple(paper_r2().rows))
    rates = tuple((source, target, rate)
                  for (source, target), rate in sorted(complete_rates(DEFAULT_RATES).items()))
    return Theory((r1, r2), (("money", "scaleFactor", 1), ("money", "currency", "USD")), rates)


def test_the_oracle_converts_as_the_global_schema_integrator():
    theory = paper_theory()
    integrator = GlobalSchemaIntegrator(DEFAULT_RATES)
    # One hand-written view per reporting convention: r1 split by currency.
    r1 = paper_r1()
    for currency in sorted({row[2] for row in r1.rows}):
        view = Relation(r1.schema, rows=[row for row in r1.rows if row[2] == currency],
                        name=f"r1_{currency}")
        integrator.add_source(view, SourceConvention(f"r1_{currency}", currency,
                                                     1000 if currency == "JPY" else 1))
    integrator.add_source(paper_r2(), SourceConvention("r2", "USD", 1))
    integrated_r1 = [row for name in integrator.conventions if name.startswith("r1_")
                     for row in integrator.global_view(name).rows]
    r1_source, r2_source = theory.sources
    assert normalized(converted_rows(theory, r1_source), False) == \
        normalized(integrated_r1, False)
    assert normalized(converted_rows(theory, r2_source), False) == \
        normalized(integrator.global_view("r2").rows, False)

    expected = normalized(PAPER_EXPECTED_ANSWER, False)
    assert normalized(reference_rows(theory, PAPER_QUERY), False) == expected
    assert normalized(sqlite_rows(theory, PAPER_QUERY), False) == expected
    mediated = build_paper_federation().federation.query(PAPER_QUERY)
    assert normalized(mediated.relation.rows, False) == expected


# ---------------------------------------------------------------------------
# Found by hand on the paper's federation: each unqualified or aliased form
# answers exactly as its qualified form
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def paper():
    return build_paper_federation().federation


def _rows(federation, sql):
    return sorted(federation.query(sql).relation.rows)


def test_an_unqualified_semantic_column_is_converted(paper):
    assert _rows(paper, "SELECT cname, revenue FROM r1") == \
        _rows(paper, "SELECT r1.cname, r1.revenue FROM r1") == \
        [("IBM", 1_000_000.0), ("NTT", 9_600_000.0)]


def test_an_unqualified_comparison_reads_the_converted_value(paper):
    assert _rows(paper, "SELECT cname FROM r1 WHERE revenue > 5000000") == \
        _rows(paper, "SELECT r1.cname FROM r1 WHERE r1.revenue > 5000000") == [("NTT",)]


def test_an_unqualified_column_of_an_aliased_table_is_converted(paper):
    assert _rows(paper, "SELECT x.cname, revenue FROM r1 x") == \
        _rows(paper, "SELECT x.cname, x.revenue FROM r1 x") == \
        [("IBM", 1_000_000.0), ("NTT", 9_600_000.0)]


def test_an_unqualified_column_in_a_join_resolves_to_the_one_binding_naming_it(paper):
    assert _rows(paper, "SELECT r1.cname, revenue FROM r1, r2 "
                        "WHERE r1.cname = r2.cname AND revenue > expenses") == \
        _rows(paper, PAPER_QUERY) == PAPER_EXPECTED_ANSWER


def test_a_column_several_bindings_name_is_ambiguous(paper):
    with pytest.raises(MediationError, match="ambiguous"):
        paper.query("SELECT cname FROM r1, r2 WHERE r1.cname = r2.cname")


def test_an_unqualified_order_by_name_of_an_output_column_sorts_the_output(paper):
    answer = paper.query("SELECT cname AS revenue FROM r1 ORDER BY revenue DESC")
    assert answer.relation.rows == [("NTT",), ("IBM",)]
    # Two bindings elevate cname; the ORDER BY name is the output's, not theirs.
    answer = paper.query("SELECT r1.cname, r1.revenue FROM r1, r2 "
                         "WHERE r1.cname = r2.cname ORDER BY cname DESC")
    assert answer.relation.rows == [("NTT", 9_600_000.0), ("IBM", 1_000_000.0)]


# ---------------------------------------------------------------------------
# Found by the generator
# ---------------------------------------------------------------------------


def test_an_unguarded_last_case_applies_only_where_no_earlier_case_does():
    """Source 1's scale factor as "1000 when JPY, otherwise 1": the JPY row
    reached both cases' branches and came back twice."""
    scenario = build_paper_federation()
    federation = scenario.federation
    federation.system.contexts.get("c_source1").declare_cases(
        "companyFinancials", "scaleFactor",
        [ModifierCase(ConstantValue(1000), (Guard("currency", "=", "JPY"),)),
         ModifierCase(ConstantValue(1))])
    assert _rows(federation, "SELECT r1.cname, r1.revenue FROM r1") == \
        [("IBM", 1_000_000.0), ("NTT", 9_600_000.0)]
    assert _rows(federation, PAPER_QUERY) == PAPER_EXPECTED_ANSWER
