"""Every mediation any test of this directory runs is also a check that
``MediationResult.is_rewritten`` — decided from the branches — equals the
comparison of the two SQL renderings it used to be."""

import pytest

from repro.mediation.rewriter import QueryRewriter
from repro.sql.printer import to_sql


def rewritten_by_text(result) -> bool:
    """``is_rewritten`` as it was defined: the two renderings differ."""
    return to_sql(result.mediated) != to_sql(result.original)


@pytest.fixture(autouse=True)
def is_rewritten_agrees_with_the_texts(monkeypatch):
    rewrite = QueryRewriter.rewrite

    def checking(self, select, receiver_context):
        result = rewrite(self, select, receiver_context)
        assert result.is_rewritten == rewritten_by_text(result), to_sql(select)
        return result

    monkeypatch.setattr(QueryRewriter, "rewrite", checking)
