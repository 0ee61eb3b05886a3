"""``is_rewritten`` from the branches, and the SQL texts rendered once."""

import pytest

from repro.demo.scenarios import build_paper_federation
from repro.mediation import mediator as mediator_module

from tests.coinbench_workload import cold_compile_workload
from tests.mediation.conftest import rewritten_by_text


@pytest.fixture
def renderings(monkeypatch):
    """Counts calls of ``to_sql`` made by the mediator module."""
    calls = []

    def counting(node):
        calls.append(node)
        return to_sql(node)

    to_sql = mediator_module.to_sql
    monkeypatch.setattr(mediator_module, "to_sql", counting)
    return calls


def test_agrees_with_the_text_comparison_on_the_cold_compile_set():
    build_federation, cold_compile_set = cold_compile_workload()
    mediator = build_federation(16, 20).federation.mediator
    verdicts = set()
    for statement in cold_compile_set(seed=1):
        result = mediator.mediate(statement.sql, statement.context)
        assert result.is_rewritten == rewritten_by_text(result), statement.sql
        verdicts.add(result.is_rewritten)
    # Same-context pairs need no rewriting, the others do: both arms are met.
    assert verdicts == {True, False}


def test_a_rewritten_statement_is_counted_without_rendering_anything(renderings):
    mediator = build_paper_federation().federation.mediator
    result = mediator.mediate(
        "SELECT r1.cname, r1.revenue FROM r1, r2 WHERE r1.cname = r2.cname", "c_receiver")
    assert result.branch_count > 1 and result.is_rewritten
    assert mediator.statistics.snapshot()["queries_unchanged"] == 0
    assert renderings == []


def test_only_an_untouched_statement_compares_the_texts_and_only_once(renderings):
    mediator = build_paper_federation().federation.mediator
    result = mediator.mediate("SELECT r2.cname FROM r2", "c_receiver")
    assert not result.is_rewritten
    assert mediator.statistics.snapshot()["queries_unchanged"] == 1
    assert len(renderings) == 2  # the mediated and the original text
    assert result.sql == result.original_sql == "SELECT r2.cname FROM r2"
    assert not result.is_rewritten and len(renderings) == 2  # both remembered


def test_the_passthrough_is_never_rewritten():
    federation = build_paper_federation().federation
    result = federation.mediator.unmediated(
        federation.pipeline._parse("SELECT r1.revenue FROM r1")[0], "c_receiver")
    assert not result.is_rewritten and result.sql == result.original_sql
