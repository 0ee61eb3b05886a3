"""What a spilling statement writes to secondary storage, counted rather than
timed.

The ``scan_stream`` workload runs its seven statements under a 64 KiB
operator budget: the joins go Grace, the sorts spill runs.  A frame reaches
disk only when a buffer fills it, and what is still buffered when a partition
or a run is read is served from memory — so at 2 000 rows no Grace partition
ever writes a frame (each of the 32 holds far fewer than 512 rows), and a
sort run writes its full frames only.  Counted per shape, on the workload's
own statements and federation: pickle frames written (``pickle.dump``) and
loaded (``pickle.load``) by the spill machinery and temp files it opens, next
to the statement's ``memory`` block, whose spill points and bytes must not
move with any of it.  To re-measure after a change to the spill path, run
this file with ``-s``: the counts are printed.
"""

import pickle
import tempfile
import types

import pytest

from repro.relational import budget as budget_module

from tests.coinbench_workload import scan_stream_workload

#: Per shape: ``(pickle.dump, pickle.load, TemporaryFile)`` calls of one
#: execution.  The parent of the PR that set them flushed every Grace
#: partition at read time and loaded it straight back: 64 / 64 / 2 per full
#: join, 4 / 4 / 2 for the join read for one batch, and 4 / 6 / 2 per full
#: sort (each run's tail written, and an end-of-file probe per run).
SPILL_IO = {
    "eager_join": (0, 0, 0),
    "eager_group": (0, 0, 0),
    "stream_join_all": (0, 0, 0),
    "stream_join_head": (0, 0, 0),
    "eager_sort": (2, 2, 2),
    "stream_sort_head": (2, 2, 2),
    "stream_topk": (0, 0, 0),
}

_JOIN_MEMORY = {"limit_bytes": 65536, "peak_bytes": 65496, "staged_bytes": 292070,
                "spill_count": 1, "spilled_rows": 812, "spilled_bytes": 65496}
_SORT_MEMORY = {"limit_bytes": 65536, "peak_bytes": 65505, "staged_bytes": 146070,
                "spill_count": 2, "spilled_rows": 1609, "spilled_bytes": 131001}

#: Per shape, the report's ``memory`` block — the same before and after
#: frames stopped leaving memory at read time.
MEMORY = {
    "eager_join": _JOIN_MEMORY,
    "eager_group": {"limit_bytes": 65536, "peak_bytes": 65459, "staged_bytes": 360070,
                    "spill_count": 1, "spilled_rows": 668, "spilled_bytes": 65459},
    "stream_join_all": _JOIN_MEMORY,
    "stream_join_head": _JOIN_MEMORY,
    "eager_sort": _SORT_MEMORY,
    "stream_sort_head": _SORT_MEMORY,
    "stream_topk": {"limit_bytes": 65536, "peak_bytes": 1663, "staged_bytes": 146070,
                    "spill_count": 0, "spilled_rows": 0, "spilled_bytes": 0},
}


def _run(federation, statement):
    """``statement`` read as the workload reads it: eager, to the end through
    a cursor, or one batch and closed.  Returns ``(rows, report)``."""
    if statement.mode == "eager":
        answer = federation.query(statement.sql, statement.context)
        return answer.relation.rows, answer.execution.report
    cursor = federation.query(statement.sql, statement.context, stream=True)
    try:
        rows = cursor.fetchmany(statement.batch)
        while statement.mode == "stream_all":
            batch = cursor.fetchmany(statement.batch)
            if not batch:
                break
            rows.extend(batch)
    finally:
        cursor.close()
    return rows, cursor.report


@pytest.fixture(scope="module")
def spill_profile():
    """Each statement run once to cache its plan, then once more with the
    spill machinery's ``pickle`` and ``tempfile`` counted."""
    build_federation, scan_stream_set = scan_stream_workload()
    federation = build_federation(4, 2000, request_cache_size=0,
                                  memory_budget_bytes=64 * 1024).federation
    statements = scan_stream_set()
    for statement in statements:
        _run(federation, statement)

    counts = {}

    def counting(label, function):
        def counted(*args, **kwargs):
            counts[label] += 1
            return function(*args, **kwargs)
        return counted

    saved = budget_module.pickle, budget_module.tempfile
    budget_module.pickle = types.SimpleNamespace(
        dump=counting("dump", pickle.dump), load=counting("load", pickle.load),
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL)
    budget_module.tempfile = types.SimpleNamespace(
        TemporaryFile=counting("files", tempfile.TemporaryFile))
    profile = {}
    try:
        for statement in statements:
            counts.update(dump=0, load=0, files=0)
            rows, report = _run(federation, statement)
            profile[statement.shape] = {
                "io": (counts["dump"], counts["load"], counts["files"]),
                "memory": report.snapshot()["memory"],
                "rows": len(rows),
            }
    finally:
        budget_module.pickle, budget_module.tempfile = saved
    return profile


def test_every_shape_is_measured(spill_profile):
    assert set(spill_profile) == set(SPILL_IO) == set(MEMORY)
    assert all(entry["rows"] > 0 for entry in spill_profile.values())


@pytest.mark.parametrize("shape", sorted(SPILL_IO))
def test_frames_written_and_read_and_files_opened(spill_profile, shape):
    dumps, loads, files = spill_profile[shape]["io"]
    print(f"\nspill path: {shape}: {dumps} pickle.dump, {loads} pickle.load, "
          f"{files} temp files (budget {SPILL_IO[shape]})")
    assert (dumps, loads, files) == SPILL_IO[shape]


@pytest.mark.parametrize("shape", sorted(MEMORY))
def test_spill_points_and_bytes_do_not_move(spill_profile, shape):
    memory = spill_profile[shape]["memory"]
    print(f"\nspill path: {shape}: spill_count {memory['spill_count']}, "
          f"spilled_rows {memory['spilled_rows']}, spilled_bytes {memory['spilled_bytes']}")
    assert memory == MEMORY[shape]
