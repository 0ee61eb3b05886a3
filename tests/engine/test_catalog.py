"""Unit tests for the engine catalog and dictionary services."""

import pytest

from repro.errors import CatalogError
from repro.engine.catalog import Catalog
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper


def make_wrapper(name="source1", rows=2):
    source = MemorySQLSource(name)
    source.load_sql(
        "CREATE TABLE r1 (cname varchar, revenue float, currency varchar)",
        "INSERT INTO r1 VALUES " + ", ".join(f"('C{i}', {i}, 'USD')" for i in range(rows)),
    )
    return RelationalWrapper(source)


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

    def test_register_relation_explicitly(self):
        catalog = Catalog()
        wrapper = make_wrapper()
        catalog.register_wrapper(wrapper)
        entry = catalog.register_relation("alias_view", "source1", wrapper.schema_of("r1"),
                                          estimated_rows=3)
        assert catalog.entry("alias_view").estimated_rows == 3
        assert entry.qualified_name == "source1.alias_view"

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

    def test_describe_relation(self):
        catalog = Catalog()
        catalog.register_wrapper(make_wrapper())
        attributes = catalog.describe_relation("r1")
        assert [attribute["attribute"] for attribute in attributes] == ["cname", "revenue", "currency"]
        assert attributes[1]["type"] == "float"

    def test_capabilities_mirrored_into_dictionary(self):
        catalog = Catalog()
        catalog.register_wrapper(make_wrapper())
        mirrored = catalog.dictionary.database.table("dict_capabilities").rows
        assert ("source1", "join", True) in mirrored

    def test_schema_of_and_wrapper_for(self):
        catalog = Catalog()
        wrapper = make_wrapper()
        catalog.register_wrapper(wrapper)
        assert catalog.schema_of("r1").names == ["cname", "revenue", "currency"]
        assert catalog.wrapper_for("r1") is wrapper
