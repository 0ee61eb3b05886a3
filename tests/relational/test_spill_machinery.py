"""The batch-wise spill machinery is the row-at-a-time one, faster.

``tests/relational/test_spill.py`` pins what spilled operators answer; this
file pins the three pieces they spill with (``relational/budget.py``) against
their one-item-at-a-time definitions, and what a spilled statement costs in
file descriptors:

* ``SpillFile.extend`` cuts frames at the items repeated ``append`` cuts at;
* ``SpillPartitions`` hands every partition back in write order, however its
  readers interleave and wherever a buffer flushed;
* ``MemoryBudget.reserve_prefix`` is as many ``try_reserve`` calls;
* a Grace ``HashJoin`` and an external ``Distinct`` open two temp files each,
  not two per partition.
"""

import pickle
import tempfile
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import budget as budget_module
from repro.relational.budget import (
    SPILL_BATCH_ITEMS,
    MemoryBudget,
    SpillFile,
    SpillPartitions,
)
from repro.relational.operators import Distinct, HashJoin, TableScan
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sql.ast import ColumnRef


def _frame_lengths(spill):
    """How many items each pickle frame of a spill file holds."""
    spill._flush()
    spill._file.seek(0)
    lengths = []
    while True:
        try:
            lengths.append(len(pickle.load(spill._file)))
        except EOFError:
            return lengths


class TestSpillFileExtend:
    @pytest.mark.parametrize("already", [0, 1, 100, SPILL_BATCH_ITEMS - 1])
    @pytest.mark.parametrize("length", [0, 511, 512, 513, 1500])
    def test_frames_and_count_are_those_of_repeated_append(self, length, already):
        items = [(index, f"row-{index}") for index in range(already + length)]
        with SpillFile() as one_by_one, SpillFile() as sliced:
            for item in items:
                one_by_one.append(item)
            for item in items[:already]:
                sliced.append(item)
            sliced.extend(items[already:])
            assert sliced.items == one_by_one.items == len(items)
            assert len(sliced._batch) == len(one_by_one._batch)
            assert _frame_lengths(sliced) == _frame_lengths(one_by_one)
            assert list(sliced.read()) == list(one_by_one.read()) == items

    def test_extend_then_append_keeps_cutting_at_the_same_items(self):
        with SpillFile() as spill:
            spill.extend(list(range(700)))
            for item in range(700, 1100):
                spill.append(item)
            spill.extend(list(range(1100, 1101)))
            assert _frame_lengths(spill) == [512, 512, 77]
            assert list(spill.read()) == list(range(1101))


class TestSpillPartitions:
    FANOUT = 32

    def _pairs(self, count):
        # Partition 3 takes every second item: it flushes twice inside one
        # scatter while the other 31 are still buffering.
        return [(3 if index % 2 else (index // 2) % self.FANOUT, (index, f"item-{index}"))
                for index in range(count)]

    def test_write_order_under_interleaved_readers_and_mid_scatter_flushes(self):
        pairs = self._pairs(2600)
        expected = {index: [item for partition, item in pairs if partition == index]
                    for index in range(self.FANOUT)}
        assert len(expected[3]) > 2 * SPILL_BATCH_ITEMS
        with SpillPartitions(self.FANOUT) as partitions:
            partitions.scatter(iter(pairs[:1300]))
            assert partitions._offsets[3] and not partitions._offsets[4]  # flushed mid-scatter
            partitions.scatter(pairs[1300:])
            readers = [partitions.read(index) for index in range(self.FANOUT)]
            got = {index: [] for index in range(self.FANOUT)}
            # One frame from each reader in turn, until all are exhausted.
            for frames in zip_longest(*readers):
                for index, frame in enumerate(frames):
                    if frame is not None:
                        assert 0 < len(frame) <= SPILL_BATCH_ITEMS
                        got[index].extend(frame)
            assert got == expected
            # A partition reads again from its start.
            assert [item for frame in partitions.read(3) for item in frame] == expected[3]

    def test_an_empty_partition_reads_as_nothing(self):
        with SpillPartitions(4) as partitions:
            partitions.scatter([(1, "only")])
            assert list(partitions.read(0)) == []
            assert list(partitions.read(1)) == [["only"]]

    def test_close_is_idempotent_and_closes_the_one_file(self):
        partitions = SpillPartitions(8)
        partitions.scatter((index % 8, index) for index in range(100))
        partitions.close()
        partitions.close()
        assert partitions._closed and partitions._file.closed


class TestReservePrefix:
    @settings(max_examples=300, deadline=None)
    @given(sizes=st.lists(st.integers(0, 400), max_size=40),
           limit=st.one_of(st.none(), st.integers(1, 3000)),
           held=st.integers(0, 3500), start=st.integers(0, 45))
    def test_is_as_many_try_reserve_calls(self, sizes, limit, held, start):
        stepwise, prefix = MemoryBudget(limit), MemoryBudget(limit)
        for budget in (stepwise, prefix):
            budget.reserve(held)  # force-reserved elsewhere, possibly past the limit
        count = nbytes = 0
        for size in sizes[start:]:
            if not stepwise.try_reserve(size):
                break
            count += 1
            nbytes += size
        assert prefix.reserve_prefix(sizes, start) == (count, nbytes)
        assert prefix.used_bytes == stepwise.used_bytes
        assert prefix.peak_bytes == stepwise.peak_bytes
        assert prefix.snapshot() == stepwise.snapshot()

    def test_a_refusal_reserves_the_rows_before_it_only(self):
        budget = MemoryBudget(100)
        assert budget.reserve_prefix([40, 40, 40, 1]) == (2, 80)
        assert budget.used_bytes == budget.peak_bytes == 80
        assert budget.reserve_prefix([40, 40, 40, 1], 2) == (0, 0)
        assert budget.reserve_prefix([40, 40, 40, 1], 3) == (1, 1)
        assert budget.reserve_prefix([], 0) == (0, 0)


@pytest.fixture
def temp_files(monkeypatch):
    """Every anonymous temp file the spill machinery opens, in order."""
    opened = []
    original = tempfile.TemporaryFile

    def counting(*args, **kwargs):
        opened.append(original(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(budget_module.tempfile, "TemporaryFile", counting)
    return opened


def _relation(qualifier, rows):
    relation = Relation(Schema.of("id:integer", "val:float", qualifier=qualifier),
                        name=qualifier, validate=False)
    relation.rows = rows
    return relation


class TestSpilledOperatorsOpenTwoFiles:
    def test_grace_hash_join(self, temp_files):
        left = _relation("l", [(index % 400, float(index)) for index in range(2500)])
        right = _relation("r", [(index % 400, float(index * 2)) for index in range(2500)])
        operator = HashJoin(TableScan(left), TableScan(right),
                            ColumnRef("id", "l"), ColumnRef("id", "r"),
                            budget=MemoryBudget(8_000))
        rows = list(operator)
        assert operator.spilled and len(rows) == 100 * 7 * 7 + 300 * 6 * 6
        assert len(temp_files) == 2 < HashJoin.SPILL_PARTITIONS
        assert all(handle.closed for handle in temp_files)

    def test_external_distinct(self, temp_files):
        relation = _relation("t", [((index * 37) % 701, float(index % 3)) for index in range(4000)])
        operator = Distinct(TableScan(relation), budget=MemoryBudget(4_000))
        rows = list(operator)
        assert operator.spilled and rows == list(Distinct(TableScan(relation)))
        assert len(temp_files) == 2 < Distinct.SPILL_PARTITIONS
        assert all(handle.closed for handle in temp_files)
