"""Unit tests for the engine catalog: the dictionary and its registration."""

import pytest

from repro.demo.scenarios import build_paper_federation
from repro.errors import CatalogError, PlanningError
from repro.engine.catalog import Catalog
from repro.engine.engine import MultiDatabaseEngine
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper


def make_wrapper(name="source1", rows=2):
    source = MemorySQLSource(name)
    source.load_sql(
        "CREATE TABLE r1 (cname varchar, revenue float, currency varchar)",
        "INSERT INTO r1 VALUES " + ", ".join(f"('C{i}', {i}, 'USD')" for i in range(rows)),
    )
    return RelationalWrapper(source)


def tables_wrapper(name, *tables, database=None):
    """A wrapper named ``name`` exporting one-column ``tables`` in order."""
    source = MemorySQLSource(database or name)
    source.load_sql(*(f"CREATE TABLE {table} (a integer)" for table in tables))
    return RelationalWrapper(source, name=name)


class TestRegistration:
    def test_register_wrapper_catalogs_relations(self):
        catalog = Catalog()
        entries = catalog.register_wrapper(make_wrapper())
        assert [entry.relation for entry in entries] == ["r1"]
        assert catalog.has_relation("r1")
        assert catalog.entry("R1").wrapper_name == "source1"
        assert len(catalog) == 1

    def test_row_estimation_via_count(self):
        catalog = Catalog()
        catalog.register_wrapper(make_wrapper(rows=7))
        assert catalog.entry("r1").estimated_rows == 7

    def test_estimation_can_be_skipped(self):
        catalog = Catalog()
        catalog.register_wrapper(make_wrapper(rows=7), estimate_rows=False)
        assert catalog.entry("r1").estimated_rows == Catalog.DEFAULT_ESTIMATED_ROWS

    def test_duplicate_relation_rejected(self):
        catalog = Catalog()
        catalog.register_wrapper(make_wrapper("a"))
        with pytest.raises(CatalogError):
            catalog.register_wrapper(make_wrapper("b"))

    def test_refused_registration_changes_nothing(self):
        catalog = Catalog()
        catalog.register_wrapper(make_wrapper("s1"))
        generation = catalog.generation
        with pytest.raises(CatalogError, match="already served by wrapper 's1'"):
            catalog.register_wrapper(make_wrapper("s2"))
        assert catalog.list_sources() == ["s1"]
        assert not catalog.wrappers.has("s2")
        assert catalog.generation == generation
        assert catalog.entry("r1").wrapper_name == "s1"

    def test_registering_a_name_again_replaces_its_wrapper(self):
        catalog = Catalog()
        catalog.register_wrapper(make_wrapper("s1", rows=2))
        again = make_wrapper("s1", rows=5)
        catalog.register_wrapper(again)
        assert catalog.list_sources() == ["s1"]
        assert catalog.wrapper_for("r1") is again
        assert catalog.entry("r1").estimated_rows == 5

    def test_replaced_wrapper_takes_its_relations_with_it(self):
        engine = MultiDatabaseEngine()
        engine.register_wrapper(tables_wrapper("dup", "t"))
        engine.register_wrapper(tables_wrapper("dup", "u", database="dup2"))
        catalog = engine.catalog
        assert catalog.list_sources() == ["dup"]
        assert catalog.list_relations() == ["u"]
        assert not catalog.has_relation("t")
        with pytest.raises(PlanningError, match="unknown relation 't'"):
            engine.plan("SELECT t.a FROM t")

    def test_unknown_relation_raises(self):
        with pytest.raises(CatalogError):
            Catalog().entry("ghost")

    def test_update_estimate_clamps_at_zero(self):
        catalog = Catalog()
        catalog.register_wrapper(make_wrapper())
        catalog.update_estimate("r1", -5)
        assert catalog.entry("r1").estimated_rows == 0


class TestDictionaryServices:
    def test_list_sources_and_relations(self):
        catalog = Catalog()
        catalog.register_wrapper(make_wrapper())
        assert catalog.list_sources() == ["source1"]
        assert catalog.list_relations() == ["r1"]
        assert catalog.list_relations("source1") == ["r1"]

    def test_sources_in_registration_order(self):
        catalog = Catalog()
        catalog.register_wrapper(tables_wrapper("source1", "r1"))
        catalog.register_wrapper(tables_wrapper("exchange", "r3"))
        assert catalog.list_sources() == ["source1", "exchange"]

    def test_relations_in_export_order(self):
        class Reversed(RelationalWrapper):
            def relation_names(self):
                return super().relation_names()[::-1]

        catalog = Catalog()
        catalog.register_wrapper(Reversed(tables_wrapper("s", "r1", "r2").source))
        catalog.register_wrapper(tables_wrapper("other", "r3"))
        assert catalog.list_relations("s") == ["r2", "r1"]
        assert catalog.list_relations("other") == ["r3"]
        assert catalog.list_relations("ghost") == []

    def test_source_matches_case_insensitively(self):
        federation = build_paper_federation().federation
        assert federation.engine.catalog.list_relations("SOURCE1") == ["r1"]

    def test_describe_relation(self):
        catalog = Catalog()
        catalog.register_wrapper(make_wrapper())
        attributes = catalog.describe_relation("R1")
        assert attributes == [
            {"attribute": "cname", "position": 0, "type": "string"},
            {"attribute": "revenue", "position": 1, "type": "float"},
            {"attribute": "currency", "position": 2, "type": "string"},
        ]

    def test_schema_of_and_wrapper_for(self):
        catalog = Catalog()
        wrapper = make_wrapper()
        catalog.register_wrapper(wrapper)
        assert catalog.schema_of("r1").names == ["cname", "revenue", "currency"]
        assert catalog.wrapper_for("r1") is wrapper
