"""The batch-wise spill machinery is the row-at-a-time one, faster.

``tests/relational/test_spill.py`` pins what spilled operators answer; this
file pins the three pieces they spill with (``relational/budget.py``) against
their one-item-at-a-time definitions, and what a spilled statement costs in
file descriptors:

* ``SpillFile.extend`` cuts frames at the items repeated ``append`` cuts at,
  and a read that serves the buffered tail from memory equals one that
  writes it out first and loads it back;
* ``SpillPartitions.scatter(indices, items)`` routes a whole batch at once,
  yet its frames and every partition's read order are those of per-item
  appends — however its readers interleave, on re-reads, and with frames on
  disk and a tail in memory;
* only a full frame reaches disk: no file exists before the first one, and
  a partition set that never filled a frame closes without ever opening one;
* ``MemoryBudget.reserve_prefix`` is as many ``try_reserve`` calls;
* a Grace ``HashJoin``, an external ``Distinct`` and a ``Sort``'s runs
  answer and account the same whether every frame, some or none of them
  left memory;
* a Grace ``HashJoin`` and an external ``Distinct`` open at most two temp
  files each, not two per partition, and none on an input too small to fill
  a frame.
"""

import pickle
import tempfile
from contextlib import contextmanager
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
from repro.relational.operators import Distinct, HashJoin, Sort, TableScan
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sql.ast import ColumnRef


@contextmanager
def frame_items(count):
    """Run with ``SPILL_BATCH_ITEMS`` set to ``count``."""
    saved = budget_module.SPILL_BATCH_ITEMS
    budget_module.SPILL_BATCH_ITEMS = count
    try:
        yield
    finally:
        budget_module.SPILL_BATCH_ITEMS = saved


def _disk_frames(spill):
    """The pickle frames a spill file wrote, in file order."""
    if spill._file is None:
        return []
    spill._file.seek(0)
    frames = []
    while True:
        try:
            frames.append(pickle.load(spill._file))
        except EOFError:
            return frames


def _frame_lengths(spill):
    """How many items each frame of a spill file holds: the written ones,
    then the buffered tail."""
    return [len(frame) for frame in _disk_frames(spill)] + (
        [len(spill._batch)] if spill._batch else [])


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

    @pytest.mark.parametrize("length", [0, 1, 511, 512, 513, 1100])
    def test_a_read_with_a_tail_equals_the_flush_then_load_path(self, length):
        items = [(index, f"row-{index}") for index in range(length)]
        with SpillFile() as spill:
            spill.extend(items)
            assert len(_disk_frames(spill)) == length // SPILL_BATCH_ITEMS
            from_memory = list(spill.read())
            assert list(spill.read()) == from_memory  # a re-read
            if spill._batch:
                spill._flush()  # the tail written as a frame of its own
            assert not spill._batch
            assert from_memory == list(spill.read()) == items


class PerItemPartitions(SpillPartitions):
    """The definition a batch ``scatter`` and a read from memory must equal:
    items appended one at a time, a frame written the moment a buffer fills,
    and a read that first writes the partition's tail as a frame of its own,
    then loads every frame back."""

    def scatter(self, indices, items):
        for index, item in zip(indices, items):
            buffer = self._buffers[index]
            buffer.append(item)
            if len(buffer) >= budget_module.SPILL_BATCH_ITEMS:
                self._flush(index)

    def read(self, index):
        tail = self._buffers[index]
        if tail:
            file = self._opened()
            file.seek(self._end)
            pickle.dump(tail, file, protocol=pickle.HIGHEST_PROTOCOL)
            self._offsets[index].append(self._end)
            self._end = file.tell()
            self._buffers[index] = []
        return super().read(index)


#: Scatter calls: each a list of partition indices (the items are numbered
#: as they are drawn), over a fan-out of at most 5.
SCATTERS = st.lists(st.lists(st.integers(0, 4), max_size=30), max_size=6)
#: Read steps: "take the next frame of partition i", a new reader of i
#: starting once the last one of i is exhausted (a re-read).
READS = st.lists(st.integers(0, 4), max_size=60)


class TestSpillPartitions:
    FANOUT = 32

    @settings(max_examples=200, deadline=None)
    @given(fanout=st.integers(1, 5), scatters=SCATTERS, reads=READS,
           items_per_frame=st.sampled_from([1, 2, 3, 7, SPILL_BATCH_ITEMS]))
    def test_batch_scatter_equals_the_per_item_definition(
            self, fanout, scatters, reads, items_per_frame):
        with frame_items(items_per_frame), \
                SpillPartitions(fanout) as batched, PerItemPartitions(fanout) as oracle:
            numbered = 0
            for indices in scatters:
                indices = [index % fanout for index in indices]
                items = [(numbered + offset, f"item-{numbered + offset}")
                         for offset in range(len(indices))]
                numbered += len(items)
                batched.scatter(indices, items)
                oracle.scatter(iter(indices), iter(items))
                # As many frames left memory per partition (where they sit in
                # the file is the writer's business), and the same items wait.
                assert ([len(offsets) for offsets in batched._offsets]
                        == [len(offsets) for offsets in oracle._offsets])
                assert batched._buffers == oracle._buffers
                assert all(len(buffer) < items_per_frame for buffer in batched._buffers)
            assert (batched._file is None) == (oracle._file is None)

            # Interleaved readers and re-reads, frame by frame.
            readers = {}
            for index in (index % fanout for index in reads):
                for spill in (batched, oracle):
                    readers.setdefault((spill, index), spill.read(index))
                got = [next(readers[spill, index], None) for spill in (batched, oracle)]
                assert got[0] == got[1]
                if got[0] is None:
                    del readers[batched, index], readers[oracle, index]
                else:
                    assert 0 < len(got[0]) <= items_per_frame
            for index in range(fanout):
                assert list(batched.read(index)) == list(oracle.read(index))
                assert list(batched.read(index)) == list(oracle.read(index))  # re-read

    def test_frames_are_cut_at_the_frame_size_within_one_scatter(self):
        with SpillPartitions(2) as partitions:
            partitions.scatter([0] * 1300 + [1] * 3, range(1303))
            assert len(partitions._offsets[0]) == 2 and not partitions._offsets[1]
            assert [len(frame) for frame in partitions.read(0)] == [512, 512, 276]
            assert list(partitions.read(1)) == [[1300, 1301, 1302]]

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
            first, rest = pairs[:1300], pairs[1300:]
            partitions.scatter((index for index, _item in first), [item for _index, item in first])
            assert partitions._offsets[3] and not partitions._offsets[4]  # flushed by the scatter
            partitions.scatter([index for index, _item in rest], [item for _index, item in rest])
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
            partitions.scatter([1], ["only"])
            assert list(partitions.read(0)) == []
            assert list(partitions.read(1)) == [["only"]]
            assert partitions._file is None

    def test_close_is_idempotent_and_closes_the_one_file(self, temp_files):
        partitions = SpillPartitions(8)
        count = 8 * SPILL_BATCH_ITEMS + 100
        partitions.scatter((index % 8 for index in range(count)), range(count))
        assert len(temp_files) == 1 and partitions._file is temp_files[0]
        partitions.close()
        partitions.close()
        assert partitions._closed and partitions._file.closed


class TestNoFileBeforeTheFirstFrame:
    def test_a_partition_set_opens_its_file_with_its_first_full_frame(self, temp_files):
        with SpillPartitions(4) as partitions:
            partitions.scatter([2] * (SPILL_BATCH_ITEMS - 1), range(SPILL_BATCH_ITEMS - 1))
            partitions.scatter([0, 1, 3], "abc")  # the others, far from full
            assert temp_files == [] and partitions._file is None
            partitions.scatter([2], ["the 512th"])
            assert len(temp_files) == 1 and partitions._offsets[2] == [0]
        assert temp_files[0].closed

    def test_a_spill_file_opens_its_file_with_its_first_full_frame(self, temp_files):
        with SpillFile() as spill:
            spill.extend(list(range(SPILL_BATCH_ITEMS - 1)))
            assert temp_files == [] and spill._file is None
            assert list(spill.read()) == list(range(SPILL_BATCH_ITEMS - 1))
            spill.append("the 512th")
            assert len(temp_files) == 1
        assert temp_files[0].closed

    def test_close_on_a_never_opened_set_is_idempotent(self, temp_files):
        partitions = SpillPartitions(4)
        partitions.scatter([0, 1, 1], ["a", "b", "c"])
        partitions.close()
        partitions.close()
        assert partitions._closed and partitions._file is None
        # A closed set accepts no frame, and opens no file for one.
        with pytest.raises(ValueError):
            partitions.scatter([0] * SPILL_BATCH_ITEMS, range(SPILL_BATCH_ITEMS))
        assert temp_files == [] and partitions._file is None


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


# -- every frame, some or none on disk ---------------------------------------------

#: Frame sizes that put every frame on disk, a mix, and (for these inputs)
#: none: the in-memory tail must be indistinguishable from a written frame.
FRAME_SIZES = (1, 7, SPILL_BATCH_ITEMS)

SPILL_ROWS = st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 40)),
                                st.integers(0, 3).map(float)),
                      min_size=10, max_size=300)


def _spilling(name, left, right, budget):
    if name == "hash_join":
        return HashJoin(TableScan(_relation("l", left)), TableScan(_relation("r", right)),
                        ColumnRef("id", "l"), ColumnRef("id", "r"), budget=budget)
    if name == "distinct":
        return Distinct(TableScan(_relation("l", left)), budget=budget)
    return Sort(TableScan(_relation("l", left)),
                [(ColumnRef("val", "l"), False), (ColumnRef("id", "l"), True)],
                budget=budget)


class TestFramesOnDiskOrInMemory:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["hash_join", "distinct", "sort"]),
           left=SPILL_ROWS, right=SPILL_ROWS, limit_bytes=st.integers(300, 3000))
    def test_rows_order_and_accounting_do_not_depend_on_what_left_memory(
            self, name, left, right, limit_bytes):
        outcomes = []
        for items_per_frame in FRAME_SIZES:
            budget = MemoryBudget(limit_bytes)
            with frame_items(items_per_frame):
                rows = list(_spilling(name, left, right, budget))
            assert budget.used_bytes == 0
            outcomes.append((rows, budget.snapshot()))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])
        if name != "hash_join":  # a Grace join's order is its own
            assert outcomes[0][0] == list(_spilling(name, left, right, None))


class TestSpilledOperatorsOpenAtMostTwoFiles:
    @pytest.mark.parametrize("rows, files", [(2500, 0), (20_000, 2)])
    def test_grace_hash_join(self, temp_files, rows, files):
        # 2 500 rows leave every one of the 32 partitions short of a frame;
        # 20 000 distinct keys fill frames on both sides.
        keys = 400 if rows == 2500 else rows
        left = _relation("l", [(index % keys, float(index)) for index in range(rows)])
        right = _relation("r", [(index % keys, float(index * 2)) for index in range(rows)])
        operator = HashJoin(TableScan(left), TableScan(right),
                            ColumnRef("id", "l"), ColumnRef("id", "r"),
                            budget=MemoryBudget(8_000))
        joined = list(operator)
        per_key = rows // keys
        assert operator.spilled and len(joined) == (
            100 * 7 * 7 + 300 * 6 * 6 if rows == 2500 else rows * per_key)
        assert len(temp_files) == files < HashJoin.SPILL_PARTITIONS
        assert all(handle.closed for handle in temp_files)

    @pytest.mark.parametrize("rows, files", [(4000, 0), (40_000, 2)])
    def test_external_distinct(self, temp_files, rows, files):
        # 701 distinct keys never fill a frame; 25 000 fill both sets' frames.
        keys = 701 if rows == 4000 else 25_000
        relation = _relation("t", [((index * 37) % keys, float(index % 3))
                                   for index in range(rows)])
        operator = Distinct(TableScan(relation), budget=MemoryBudget(4_000))
        distinct = list(operator)
        assert operator.spilled and distinct == list(Distinct(TableScan(relation)))
        assert len(temp_files) == files < Distinct.SPILL_PARTITIONS
        assert all(handle.closed for handle in temp_files)
