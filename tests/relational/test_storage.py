"""Unit tests for the temporary store."""

from repro.relational.budget import estimate_row_bytes
from repro.relational.relation import relation_from_rows
from repro.relational.storage import TemporaryStore


def sample_relation(rows=3):
    return relation_from_rows(
        "sample", ["a:integer", "b:string"], [(index, f"v{index}") for index in range(rows)],
        qualifier=None,
    )


class TestTemporaryStore:
    def test_stage_books_the_relation_under_its_handle(self):
        store = TemporaryStore()
        relation = sample_relation()
        handle, nbytes = store.stage(relation)
        assert relation.name == handle
        assert nbytes == estimate_row_bytes(relation.rows[0]) * 3
        assert store.statistics.snapshot()["bytes_written"] == nbytes
        assert store.has(handle) and store.handles == [handle]

    def test_labels_are_deduplicated(self):
        store = TemporaryStore()
        first, _ = store.stage(sample_relation(), label="stage")
        second, _ = store.stage(sample_relation(), label="stage")
        assert first == "stage" and first != second
        assert store.has(first) and store.has(second)

    def test_release_and_clear(self):
        store = TemporaryStore()
        first, _ = store.stage(sample_relation())
        second, _ = store.stage(sample_relation())
        store.release([first, "nope"])  # an unknown handle is skipped
        assert not store.has(first) and store.has(second)
        assert store.statistics.snapshot()["tables_dropped"] == 1
        store.clear()
        assert store.handles == []
        assert store.statistics.snapshot()["tables_dropped"] == 2

    def test_statistics_accounting(self):
        store = TemporaryStore()
        handle, _ = store.stage(sample_relation(rows=5))
        stats = store.statistics.snapshot()
        assert stats["tables_created"] == 1
        assert stats["rows_written"] == 5
        assert stats["rows_read"] == 5
        assert stats["bytes_written"] > 0
        assert stats["peak_tables"] == 1
        store.release([handle])
        assert store.statistics.snapshot()["tables_dropped"] == 1

