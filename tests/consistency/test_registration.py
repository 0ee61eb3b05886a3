"""Registering a wrapper again, on the federation of ``fedbuild.py``.

A name registered again keeps exactly one invalidation subscription per
engine, on the wrapper now registered under it; and a registration that
would drop a relation a declared constraint reads is refused, leaving the
catalog as it was.
"""

import pytest

from repro.consistency.constraints import PrimaryKey
from repro.errors import CatalogError, ConstraintError
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper


def _ledger(federation):
    return federation.engine.catalog.wrappers.get("ledger")


def _generation_step(federation, wrapper):
    """How far one ``notify_invalidated()`` of ``wrapper`` moves the catalog
    generation."""
    catalog = federation.engine.catalog
    before = catalog.generation
    wrapper.notify_invalidated()
    return catalog.generation - before


def _ledger_without_accounts():
    source = MemorySQLSource("ledger")
    source.load_sql("CREATE TABLE branches (code string)")
    return RelationalWrapper(source)


class TestOneSubscriptionPerName:
    def test_registering_the_same_wrapper_again_keeps_one_listener(self, federation):
        ledger = _ledger(federation)
        federation.register_wrapper(ledger, estimate_rows=False)
        assert len(ledger._invalidation_listeners) == 1
        assert _generation_step(federation, ledger) == 1

    def test_a_replaced_wrapper_is_no_longer_heard(self, federation):
        old = _ledger(federation)
        new = _ledger_without_accounts()
        federation.register_wrapper(new, estimate_rows=False)
        assert old._invalidation_listeners == []
        assert _generation_step(federation, old) == 0
        assert _generation_step(federation, new) == 1

    def test_replacing_and_restoring_keeps_one_listener_each(self, federation):
        old = _ledger(federation)
        federation.register_wrapper(_ledger_without_accounts(), estimate_rows=False)
        federation.register_wrapper(old, estimate_rows=False)
        assert len(old._invalidation_listeners) == 1
        assert _generation_step(federation, old) == 1


class TestConstrainedRelationsStay:
    def test_dropping_a_constrained_relation_is_refused(self, federation):
        key = PrimaryKey("accounts_pk", "accounts", ("id",))
        federation.register_constraint(key)
        catalog = federation.engine.catalog
        ledger = _ledger(federation)
        generation = catalog.generation
        with pytest.raises(CatalogError, match="'accounts', which constraint 'accounts_pk'"):
            federation.register_wrapper(_ledger_without_accounts(), estimate_rows=False)
        assert catalog.generation == generation
        assert catalog.wrappers.get("ledger") is ledger
        assert catalog.list_relations("ledger") == ["accounts"]
        assert catalog.key_of("accounts") is key
        assert len(ledger._invalidation_listeners) == 1
        report = federation.scan_violations()
        assert report.for_constraint("accounts_pk").violations

    def test_dropping_a_constrained_column_is_refused(self, federation):
        federation.register_constraint(PrimaryKey("accounts_pk", "accounts", ("id",)))
        source = MemorySQLSource("ledger")
        source.load_sql("CREATE TABLE accounts (owner string, balance float)")
        with pytest.raises(ConstraintError, match="has no column 'id'"):
            federation.register_wrapper(RelationalWrapper(source), estimate_rows=False)
        assert federation.engine.catalog.schema_of("accounts").has("id")

    def test_an_unconstrained_relation_may_go(self, federation):
        federation.register_wrapper(_ledger_without_accounts(), estimate_rows=False)
        assert federation.engine.catalog.list_relations("ledger") == ["branches"]
