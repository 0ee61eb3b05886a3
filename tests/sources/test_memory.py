"""Unit tests for in-memory SQL sources."""

import pytest

from repro.errors import SourceError, SourceUnavailableError
from repro.relational.relation import relation_from_rows
from repro.sources.base import SourceCapabilities
from repro.sources.memory import MemorySQLSource


@pytest.fixture
def source():
    return MemorySQLSource("source1").load_sql(
        "CREATE TABLE r1 (cname varchar, revenue float, currency varchar)",
        "INSERT INTO r1 VALUES ('IBM', 1000000, 'USD'), ('NTT', 1000000, 'JPY')",
    )


class TestMetadata:
    def test_relation_names_and_schema(self, source):
        assert source.relation_names() == ["r1"]
        assert source.schema_of("r1").names == ["cname", "revenue", "currency"]

    def test_kind_and_capabilities(self, source):
        assert source.kind == "database"
        assert source.capabilities.join is True
        assert source.capabilities.selection is True


class TestAccess:
    def test_fetch(self, source):
        relation = source.fetch("r1")
        assert len(relation) == 2
        assert source.statistics.queries == 1
        assert source.statistics.rows_returned == 2

    def test_execute_sql(self, source):
        result = source.execute_sql("SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'")
        assert result.column("cname") == ["NTT"]

    def test_execute_sql_error_wrapped(self, source):
        with pytest.raises(SourceError):
            source.execute_sql("SELECT nothere.x FROM nothere")

    def test_unavailability(self, source):
        source.available = False
        with pytest.raises(SourceUnavailableError):
            source.fetch("r1")
        with pytest.raises(SourceUnavailableError):
            source.execute_sql("SELECT r1.cname FROM r1")

    def test_add_relation_chaining(self):
        relation = relation_from_rows("extra", ["x:integer"], [(1,)], qualifier=None)
        source = MemorySQLSource("s").add_relation(relation)
        assert source.relation_names() == ["extra"]

