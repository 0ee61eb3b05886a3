"""Every mediation any test of this directory runs is also a check that
``MediationResult.is_rewritten`` — decided from the branches — equals the
comparison of the two SQL renderings it used to be."""

import pytest

from repro.mediation.mediator import ContextMediator
from repro.sql.printer import to_sql


def rewritten_by_text(result) -> bool:
    """``is_rewritten`` as it was defined: the two renderings differ."""
    return to_sql(result.mediated) != to_sql(result.original)


@pytest.fixture(autouse=True)
def is_rewritten_agrees_with_the_texts(monkeypatch):
    mediate = ContextMediator.mediate

    def checking(self, query, receiver_context=None):
        result = mediate(self, query, receiver_context)
        assert result.is_rewritten == rewritten_by_text(result), result.original_sql
        return result

    monkeypatch.setattr(ContextMediator, "mediate", checking)


def pytest_collection_modifyitems(config, items):
    """The long generation runs only when selected: ``-m theories_long``."""
    if "theories_long" in (config.getoption("-m") or ""):
        return
    skip = pytest.mark.skip(reason="long generation: run with -m theories_long")
    for item in items:
        if "theories_long" in item.keywords:
            item.add_marker(skip)
