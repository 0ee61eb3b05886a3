"""The seeded statement generator: what each workload's clients send.

The program under test receives only the statements produced here.  The
``--seed`` of a run drives the *order* statements are sent in and the
constants of generated statements; it never changes the data or the
composition of the work, so runs with different seeds are comparable.

Every schedule is built from fixed-composition blocks shuffled by the seed
(each block holds each shape in its stated share), so any window of a run
sees the same mix.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence

from repro.demo.datasets import PAPER_QUERY

from coinbench.federations import ANALYST_CONTEXTS

#: How a client reads a statement's answer.
EAGER = "eager"              # materialized answer (execute + fetchall)
PREPARED = "prepared"        # a prepared handle executed again
STREAM_ALL = "stream_all"    # cursor read to the end in batches
STREAM_HEAD = "stream_head"  # cursor read for one batch, then closed early


@dataclass(frozen=True)
class Statement:
    """One receiver statement and how its answer is read."""

    sql: str
    context: Optional[str] = None
    mode: str = EAGER
    #: Rows per ``fetchmany`` for the streaming modes.
    batch: int = 0
    #: ORDER BY fixes the row order, so the answer is compared in order.
    ordered: bool = False
    #: A short label for the per-shape breakdown in the run record.
    shape: str = "pair"
    #: SQL of the statement whose answer this one must equal, when it is not
    #: its own (a novel statement adds a filter every row passes).
    same_answer_as: Optional[str] = None

    @cached_property
    def key(self) -> str:
        """Identity of the *answer*: statements that differ only in how the
        answer is read, or provably not at all, share one reference."""
        return f"{self.context or ''}|{self.same_answer_as or self.sql}"


def pairwise(left: str, right: str, extra: str = "",
             projection: str = "{l}.cname, {l}.revenue") -> str:
    """The cross-source comparison of the paper, over two relations."""
    columns = projection.format(l=left, r=right)
    return (f"SELECT {columns} FROM {left}, {right} "
            f"WHERE {left}.cname = {right}.cname "
            f"AND {left}.revenue > {right}.expenses{extra}")


def _blocks(rng: random.Random, block: Sequence) -> Iterator:
    """Endless stream of ``block`` reshuffled each round."""
    items = list(block)
    while True:
        rng.shuffle(items)
        yield from items


# -- warm_repeat ------------------------------------------------------------------

#: Ordered relation pairs of the 8-source federation, every one needing a
#: currency or scale conversion on at least one side.
_WARM_PAIRS = (
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 1),
    (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8), (2, 1),
)


def warm_repeat_set() -> List[Statement]:
    """The paper's query plus 15 pairwise comparisons (fixed: 16 statements)."""
    statements = [Statement(PAPER_QUERY, shape="paper")]
    statements += [
        Statement(pairwise(f"fin{left}", f"fin{right}"))
        for left, right in _WARM_PAIRS
    ]
    return statements


def warm_repeat_schedule(seed: int) -> Iterator[Statement]:
    return _blocks(random.Random(seed), warm_repeat_set())


# -- cold_compile -----------------------------------------------------------------

#: Distinct statement texts in the working set.  The plan and mediation caches
#: hold 128 entries and the parse memo 512 texts; cycling 640 texts in a fixed
#: order makes every one of them an LRU miss on every visit.
COLD_WORKING_SET = 640

_COLD_PROJECTIONS = (
    "{l}.cname, {l}.revenue",
    "{l}.cname, {l}.revenue, {r}.expenses",
    "{l}.cname, {l}.revenue - {r}.expenses AS margin",
    "{l}.cname",
)


def cold_compile_set(seed: int, source_count: int = 16) -> List[Statement]:
    """640 distinct statements: relation pair x projection x receiver context,
    the same combinations for every seed; the seed draws each statement's
    constant and the order.  One in four is the paper's 3-branch shape."""
    rng = random.Random(seed)
    contexts = [name for name, _, _ in ANALYST_CONTEXTS]
    pairs = itertools.cycle(
        (f"fin{left + 1}", f"fin{right + 1}")
        for left in range(source_count) for right in range(source_count)
        if left != right)
    statements = []
    for index, constant in enumerate(rng.sample(range(1, 100_000), COLD_WORKING_SET)):
        projection = _COLD_PROJECTIONS[index % len(_COLD_PROJECTIONS)]
        context = contexts[(index // len(_COLD_PROJECTIONS)) % len(contexts)]
        if index % 4 == 3:
            left, right, shape = "r1", "r2", "paper"
        else:
            (left, right), shape = next(pairs), "pair"
        # Scaled so the filter passes most rows in any receiver context.
        extra = f" AND {left}.revenue > {constant / 1000.0}"
        statements.append(Statement(
            pairwise(left, right, extra, projection), context, shape=shape))
    rng.shuffle(statements)
    return statements


def cold_compile_schedule(seed: int) -> Iterator[Statement]:
    """Cycled in one fixed (seeded) order: LRU never sees a repeat in time."""
    return itertools.cycle(cold_compile_set(seed))


# -- scan_stream ------------------------------------------------------------------

_JOIN = ("SELECT fin1.cname, fin1.revenue, fin2.expenses FROM fin1, fin2 "
         "WHERE fin1.cname = fin2.cname AND fin1.revenue > fin2.expenses")
_GROUP = ("SELECT fin1.sector, COUNT(*) AS companies, SUM(fin2.revenue) AS total "
          "FROM fin1, fin2 WHERE fin1.cname = fin2.cname GROUP BY fin1.sector")
_SORT = ("SELECT fin3.cname, fin3.revenue FROM fin3 "
         "ORDER BY fin3.revenue DESC, fin3.cname")
_TOPK = ("SELECT fin4.cname, fin4.revenue FROM fin4 "
         "ORDER BY fin4.revenue DESC, fin4.cname LIMIT 20")


def scan_stream_set() -> List[Statement]:
    """Seven shapes over 4 sources x 2000 companies: four eager or complete
    reads and the same engine read through a cursor, two of them closed after
    one 50-row batch."""
    return [
        Statement(_JOIN, shape="eager_join"),
        Statement(_GROUP, shape="eager_group"),
        Statement(_SORT, ordered=True, shape="eager_sort"),
        Statement(_TOPK, mode=STREAM_ALL, batch=50, ordered=True, shape="stream_topk"),
        Statement(_JOIN, mode=STREAM_ALL, batch=256, shape="stream_join_all"),
        Statement(_JOIN, mode=STREAM_HEAD, batch=50, shape="stream_join_head"),
        Statement(_SORT, mode=STREAM_HEAD, batch=50, ordered=True, shape="stream_sort_head"),
    ]


def scan_stream_schedule(seed: int) -> Iterator[Statement]:
    return _blocks(random.Random(seed), scan_stream_set())


# -- served_mix -------------------------------------------------------------------

_SERVED_PAIRS = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 1))

#: Rows per ``fetchmany`` of the served streaming cursors.
SERVED_STREAM_BATCH = 32


def served_repeated_set() -> List[Statement]:
    """The 8 repeated shapes (~100-row answers) of the served mix."""
    return [Statement(pairwise(f"fin{left}", f"fin{right}"), shape="repeated")
            for left, right in _SERVED_PAIRS]


def served_prepared_set() -> List[Statement]:
    """Statements each client prepares once and executes by handle."""
    return [Statement(pairwise(f"fin{left}", f"fin{right}",
                               projection="{l}.cname, {l}.revenue, {r}.expenses"),
                      mode=PREPARED, shape="prepared")
            for left, right in _SERVED_PAIRS[:2]]


def served_mix_schedule(seed: int, client: int) -> Iterator[Statement]:
    """Blocks of eighty in seeded order: 56 repeated statements (each of the 8
    shapes 7 times), 8 prepared executes, 8 novel statements that must compile
    (one per shape) and 8 streaming cursors read to the end (one per shape)."""
    rng = random.Random(seed * 1009 + client)
    repeated = served_repeated_set()
    prepared = served_prepared_set()
    # Revenues are at least a million in the receiver's units, so the added
    # filter changes the statement's text (it must compile) and not its answer.
    # Clients draw from disjoint constants: no novel text is ever sent twice.
    offset = random.Random(seed).randrange(400_000)
    novel_constants = itertools.count(1 + 2 * offset + client, 2)
    while True:
        block = repeated * 7 + prepared * 4
        for base in repeated:
            left = base.sql.split()[1].split(".")[0]
            block.append(Statement(
                f"{base.sql} AND {left}.revenue > {next(novel_constants)}",
                shape="novel", same_answer_as=base.sql))
            block.append(Statement(base.sql, mode=STREAM_ALL,
                                   batch=SERVED_STREAM_BATCH, shape="stream"))
        rng.shuffle(block)
        yield from block
