"""Generated instances × a statement family on both sides of the rewrite's
eligibility boundary.

The rewrite is a ``Select -> Select`` function run by the ordinary statement
path; repair enumeration (``force_strategy="fallback"``) is the brute-force
definition it must agree with.  Every example plants a dirty ``accounts``
relation (1–3 members per key, NULLs, ``int``/``float``/``Decimal`` twins of
one number, exact duplicates) beside a clean ``ratings`` joined on the key,
and asserts, for one statement of the family: the chosen strategy, rewrite ==
enumeration as sets in both modes, ``certain ⊆ raw ⊆ possible``, and — for an
ORDER BY statement — that the answer is the unordered answer stably sorted on
the keys, which is how consistent answers were ordered before the engine did
it.
"""

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import PrimaryKey
from repro.relational.operators import _group_keys
from repro.relational.types import sort_key

from fedbuild import build_consistency_federation


def _case(sql, strategy, order=None, keyed=("accounts",), raw=True):
    """One statement of the family: the strategy it must take, its ORDER BY as
    ``(output position, ascending)`` keys, the relations keyed, and whether
    ``certain ⊆ raw ⊆ possible`` can be asked of it."""
    return sql, strategy, order, keyed, raw


CASES = [
    # -- eligible: one keyed relation, read apart from the clean one ----------
    _case("SELECT accounts.owner FROM accounts WHERE accounts.balance > 0", "rewrite"),
    _case("SELECT accounts.id, accounts.owner FROM accounts WHERE accounts.id >= 2",
          "rewrite"),
    _case("SELECT accounts.balance + 1 AS b, accounts.region FROM accounts "
          "WHERE accounts.balance > 0 AND accounts.id < 3", "rewrite"),
    _case("SELECT accounts.owner FROM accounts WHERE accounts.balance IS NULL "
          "OR accounts.region = 'eu'", "rewrite"),
    _case("SELECT * FROM accounts WHERE accounts.owner = 'o1'", "rewrite"),
    _case("SELECT owner, balance FROM accounts", "rewrite"),
    _case("SELECT DISTINCT accounts.owner FROM accounts WHERE accounts.balance < 2",
          "rewrite"),
    _case("SELECT accounts.owner AS who, accounts.balance FROM accounts "
          "ORDER BY who DESC", "rewrite", order=[(0, False)]),
    _case("SELECT accounts.region, accounts.balance, accounts.id FROM accounts "
          "WHERE accounts.balance >= 0 ORDER BY 2, 1 DESC", "rewrite",
          order=[(1, True), (0, False)]),
    _case("SELECT * FROM accounts ORDER BY accounts.balance", "rewrite",
          order=[(2, True)]),
    _case("SELECT accounts.owner, ratings.score FROM accounts, ratings "
          "WHERE accounts.id = ratings.id AND accounts.balance > 0", "rewrite"),
    _case("SELECT ratings.score + 1, accounts.id FROM ratings, accounts "
          "WHERE accounts.id = ratings.id AND ratings.score > 1 "
          "ORDER BY accounts.id", "rewrite", order=[(1, True)]),
    _case("SELECT a.*, r.score FROM ratings r, accounts a WHERE a.id = r.id", "rewrite"),
    # A ``*`` over a join lists the columns in FROM order, whatever order the
    # planner joins in: raw, certain and possible rows line up column by column.
    _case("SELECT * FROM ratings r, accounts a WHERE a.id = r.id AND a.region = 'eu'",
          "rewrite"),
    # -- ineligible: enumeration ----------------------------------------------
    _case("SELECT a.owner FROM accounts a, accounts b "
          "WHERE a.id = b.id AND a.balance > 0", "fallback"),
    _case("SELECT accounts.id FROM accounts, ratings "
          "WHERE accounts.balance = ratings.score", "fallback"),
    _case("SELECT accounts.balance + ratings.score FROM accounts, ratings "
          "WHERE accounts.id = ratings.id", "fallback"),
    _case("SELECT accounts.owner FROM accounts ORDER BY accounts.balance", "fallback"),
    _case("SELECT accounts.owner, ratings.score FROM accounts, ratings "
          "WHERE accounts.id = ratings.id ORDER BY ratings.score DESC, 1", "fallback",
          order=[(1, False), (0, True)], keyed=("accounts", "ratings")),
    # Repairs are sets, the raw relation a bag: a raw count sees duplicates.
    _case("SELECT COUNT(*) AS n FROM accounts WHERE accounts.balance > 0", "fallback",
          raw=False),
    # A bounded raw answer is not a bound on the sets.
    _case("SELECT accounts.owner FROM accounts ORDER BY accounts.id LIMIT 2", "fallback",
          raw=False),
    # The engine runs no subquery over a catalogued relation; enumeration does.
    _case("SELECT accounts.owner FROM accounts WHERE accounts.id IN "
          "(SELECT id FROM ratings)", "fallback", raw=False),
    # -- no keyed relation read: clean — unless a row bound is in the way -----
    _case("SELECT ratings.score FROM ratings WHERE ratings.id > 0", "clean"),
    _case("SELECT ratings.score FROM ratings ORDER BY ratings.id LIMIT 2 OFFSET 1",
          "fallback", raw=False),
]

# The dialect compares ``int`` with ``float`` but refuses a ``Decimal`` operand,
# so the third twin of one number sits in the column no statement compares
# with a number (rows are loaded untyped; ``region = 'eu'`` is just false).
_balances = st.sampled_from([None, -1.0, 0, 1, 1.0, 2, 2.5])
_member = st.tuples(st.sampled_from(["o0", "o1", None]), _balances,
                    st.sampled_from(["eu", "us", None, 1, Decimal("1")]))
#: Per key 0..3, its members: one to three (owner, balance, region) variants,
#: drawn with replacement so exact duplicates occur.
_accounts = st.lists(st.lists(_member, min_size=1, max_size=3),
                     min_size=4, max_size=4)
_ratings = st.lists(st.tuples(st.integers(0, 4), st.sampled_from([None, 1.0, 2, 3.5])),
                    max_size=5)


def _federation(accounts, ratings, keyed):
    federation = build_consistency_federation()
    catalog = federation.engine.catalog
    catalog.wrappers.get("ledger").source.database.table("accounts").rows = [
        (key, *member) for key, members in enumerate(accounts) for member in members
    ]
    catalog.wrappers.get("reviews").source.database.table("ratings").rows = list(ratings)
    federation.invalidate_source_cache()
    for relation in keyed:
        federation.register_constraint(
            PrimaryKey(f"{relation}_pk", relation=relation, columns=("id",)))
    return federation


def _as_set(rows):
    """2, 2.0 and Decimal(2) are one answer value, as for DISTINCT."""
    return set(map(_group_keys, rows))


def _stably_sorted(rows, order):
    rows = list(rows)
    for position, ascending in reversed(order):
        rows.sort(key=lambda row: sort_key(row[position]), reverse=not ascending)
    return rows


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(accounts=_accounts, ratings=_ratings)
def test_rewrite_is_enumeration_on_both_sides_of_the_boundary(case, accounts, ratings):
    sql, strategy, order, keyed, has_raw = case
    federation = _federation(accounts, ratings, keyed)
    prepared = federation.pipeline.prepare(sql, None, mediate=False)
    answers = {}
    for mode in ("certain", "possible"):
        fast = federation.cqa.execute(prepared, mode)
        brute = federation.cqa.execute(prepared, mode, force_strategy="fallback")
        assert fast.report.consistency["strategy"] == strategy, (sql, mode)
        assert fast.report.consistency["mode"] == mode
        assert brute.report.consistency["strategy"] == "fallback"
        answers[mode] = _as_set(fast.relation.rows)
        assert answers[mode] == _as_set(brute.relation.rows), (sql, mode, accounts, ratings)
        assert len(fast.relation.rows) == len(answers[mode])  # set semantics
        if order is not None:
            unordered = federation.pipeline.prepare(
                sql[:sql.index(" ORDER BY")], None, mediate=False)
            assert list(fast.relation.rows) == _stably_sorted(
                federation.cqa.execute(unordered, mode).relation.rows, order)
    if has_raw:
        raw = _as_set(federation.engine.execute(prepared.plan).relation.rows)
        assert answers["certain"] <= raw <= answers["possible"]
