"""Generated statements through the local processor, against the interpreter.

``QueryProcessor`` runs on the engine's operators: each FROM item is a scan,
WHERE conjuncts filter the leaf they name, the leaves join left-deep in FROM
order (hash joins where the key types may hash), and the finish is
``lower_select``.  Repair enumeration and every wrapped source run statements
through it, so it is the interpreter oracle of the FROM half: here each
generated statement must give the rows, in the order, of ``reference_from``
— FROM as a cartesian product in FROM order, WHERE interpreted over every
combined row, then ``reference_select``.  The processor shares no join or
filter code with that oracle.

Generated: three tables with NULLs, duplicates, and ``Decimal`` and ``bool``
values in their ANY column; two or three FROM items among scans, self-joins,
a derived table and explicit INNER/LEFT/RIGHT/CROSS joins; equi,
single-item, cross-item, constant and subquery conjuncts; ``*`` or a column
list; DISTINCT, ORDER BY, LIMIT/OFFSET; UNION and UNION ALL.  The columns are
compared only in ways the dialect accepts, so no statement raises.
"""

from decimal import Decimal

from hypothesis import given, settings, strategies as st

from reference_eval import reference_from
from repro.relational.query import QueryProcessor
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sql.parser import parse

COLUMNS = ("k:integer", "f:float", "s:string", "v:any")

ROWS = st.lists(
    st.tuples(
        st.sampled_from([None, 0, 1, 2]),
        st.sampled_from([None, 0.5, 1.0, 2.0]),
        st.sampled_from([None, "a", "b"]),
        st.sampled_from([None, 0, 1, 1.0, Decimal("1"), Decimal("2.5"), True, False, "a"]),
    ),
    min_size=1, max_size=6,
)

#: FROM items: (text, {binding: columns}).  Explicit joins all bind g and h,
#: so a statement holds at most one of them.
_TABLE_COLUMNS = ("k", "f", "s", "v")
FROM_ITEMS = [
    ("t1 a", {"a": _TABLE_COLUMNS}),
    ("t2 b", {"b": _TABLE_COLUMNS}),
    ("t3 c", {"c": _TABLE_COLUMNS}),
    ("t1 e", {"e": _TABLE_COLUMNS}),
    ("(SELECT t2.k, t2.s, t2.v FROM t2 WHERE t2.f > 0.5) d", {"d": ("k", "s", "v")}),
    ("t1 g JOIN t2 h ON g.k = h.k", {"g": _TABLE_COLUMNS, "h": _TABLE_COLUMNS}),
    ("t1 g JOIN t2 h ON g.v = h.v AND g.s <> 'b'", {"g": _TABLE_COLUMNS, "h": _TABLE_COLUMNS}),
    ("t1 g LEFT JOIN t3 h ON g.k = h.k AND h.s = 'a'",
     {"g": _TABLE_COLUMNS, "h": _TABLE_COLUMNS}),
    ("t2 g RIGHT JOIN t3 h ON g.v = h.k", {"g": _TABLE_COLUMNS, "h": _TABLE_COLUMNS}),
    ("t3 g CROSS JOIN t1 h", {"g": _TABLE_COLUMNS, "h": _TABLE_COLUMNS}),
]

#: Conjuncts over one binding ``{x}``.
SINGLE = ["{x}.k > 0", "{x}.s = 'a'", "{x}.v = 1", "{x}.v IS NULL", "{x}.k IN (0, 2)",
          "{x}.f <= 1.0", "{x}.k = {x}.k"]
#: Conjuncts over two bindings: the first five are equi-joins.
PAIRED = ["{x}.k = {y}.k", "{x}.k = {y}.f", "{x}.v = {y}.k", "{x}.s = {y}.s", "{x}.v = {y}.v",
          "{x}.k < {y}.k", "{x}.f <> {y}.f", "{x}.k = {y}.k OR {x}.s = {y}.s"]
CONSTANT = ["1 = 1", "1 = 0", "NULL IS NULL"]
SUBQUERY = ["{x}.k IN (SELECT t3.k FROM t3 WHERE t3.f > 0.5)",
            "EXISTS (SELECT t3.k FROM t3 WHERE t3.k = 2)",
            "{x}.f > (SELECT MIN(t3.f) FROM t3)"]


@st.composite
def selects(draw, width=None, clauses=True):
    """One SELECT; ``width`` fixes the number of select items (a UNION's)."""
    order = draw(st.permutations(range(len(FROM_ITEMS))))
    count = draw(st.integers(2, 3))
    chosen, columns = [], {}
    for index in order:
        text, bound = FROM_ITEMS[index]
        if not columns.keys() & bound.keys():
            chosen.append(text)
            columns.update(bound)
        if len(chosen) == count:
            break
    names = list(columns)

    def column(binding):
        return f"{binding}.{draw(st.sampled_from(columns[binding]))}"

    conjuncts = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["single", "paired", "paired", "constant", "subquery"]))
        x, y = draw(st.permutations(names))[:2]
        template = draw(st.sampled_from({"single": SINGLE, "paired": PAIRED,
                                         "constant": CONSTANT, "subquery": SUBQUERY}[kind]))
        if ".f" in template and not all("f" in columns[name] for name in (x, y)):
            template = template.replace(".f", ".k")  # the derived table has no f
        conjuncts.append(template.format(x=x, y=y))

    if width is None and draw(st.booleans()):
        items = "*"
    else:
        items = ", ".join(column(draw(st.sampled_from(names)))
                          for _ in range(width or draw(st.integers(1, 3))))
    sql = f"SELECT {'DISTINCT ' if draw(st.booleans()) else ''}{items} FROM {', '.join(chosen)}"
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    if clauses:
        keys = draw(st.lists(st.one_of(st.just("1"), st.builds(column, st.sampled_from(names))),
                             max_size=2))
        if keys:
            sql += " ORDER BY " + ", ".join(
                key + draw(st.sampled_from(["", " DESC"])) for key in keys)
        if draw(st.booleans()):
            sql += f" LIMIT {draw(st.integers(0, 4))}"
            if draw(st.booleans()):
                sql += f" OFFSET {draw(st.integers(0, 3))}"
    return sql


@st.composite
def statements(draw):
    if draw(st.integers(0, 3)):
        return draw(selects())
    width = draw(st.integers(1, 2))
    branches = draw(st.lists(selects(width=width, clauses=False), min_size=2, max_size=3))
    keyword = draw(st.sampled_from([" UNION ", " UNION ALL "]))
    return keyword.join(branches)


def _tables(rows1, rows2, rows3):
    schema = Schema.of(*COLUMNS)
    return {name: Relation(schema, rows=rows, name=name)
            for name, rows in (("t1", rows1), ("t2", rows2), ("t3", rows3))}


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(statements(), ROWS, ROWS, ROWS)
def test_processor_rows_are_the_interpreters_in_order(sql, rows1, rows2, rows3):
    tables = _tables(rows1, rows2, rows3)
    statement = parse(sql)
    expected = reference_from(statement, tables)
    assert QueryProcessor.over_tables(tables).execute(statement).rows == expected, sql
