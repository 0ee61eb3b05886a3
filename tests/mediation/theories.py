"""Generated COIN theories and the two oracles mediation is held to.

The paper defines a mediated answer: the receiver's statement, evaluated as if
every source value had first been converted into the receiver's context.  This
module builds that definition without the mediator or the engine:

* a :class:`Theory` is plain data — sources, their relations and rows, each
  source's context declarations, the receiver's context and the exchange
  rates — from which :func:`build_federation` assembles a ``CoinSystem`` and
  a federation (the system under test);
* :func:`converted_tables` is the first half of both oracles: each source row's
  modifier values are worked out in Python from its context's declarations
  (the first case whose guards hold), and each semantic value converted in
  Python by :func:`convert` — the arithmetic the conversion functions'
  expressions stand for, written here apart from them;
* the receiver's *unmediated* statement is then run over the converted
  relations twice, by :func:`reference_rows` (the interpreter of
  ``tests/relational/reference_eval.py``) and by :func:`sqlite_rows` (stdlib
  ``sqlite3``); :func:`normalized` is the one place their dialects are
  reconciled.

:func:`theories` and :func:`statements` are the ``hypothesis`` strategies.
Source ``i`` exports relation ``t{i}`` with a join key ``k{i}`` and a group
column ``g{i}`` (both with NULLs), a currency code ``c{i}`` (never NULL: it
is what guarded modifier cases and column-valued currencies read) and one
column per semantic type of the theory: money ``m{i}`` (scale factor and
currency over the ``rates`` relation), length ``l{i}`` (unit, a factor table)
and day ``d{i}`` (date format).  Every name is unique across relations, so
an unqualified reference names one binding in any join.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Tuple

from hypothesis import strategies as st

from repro.coin.context import (
    AttributeValue,
    ConstantValue,
    Context,
    ContextRegistry,
    Guard,
    ModifierCase,
)
from repro.coin.conversion import (
    ConversionRegistry,
    CurrencyConversion,
    DateFormatConversion,
    FactorTableConversion,
    ScaleFactorConversion,
)
from repro.coin.domain import DomainModel
from repro.coin.elevation import ElevationRegistry
from repro.coin.system import CoinSystem
from repro.federation import Federation
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.memory import MemorySQLSource
from repro.sql.parser import parse
from repro.wrappers.wrapper import RelationalWrapper

from tests.relational.reference_eval import reference_from

RECEIVER = "c_receiver"

#: Semantic type -> (its modifiers in declaration order, the column prefix
#: and SQL type of a column of that type).  Conversions apply in modifier
#: order, scale before currency, as the paper's ``revenue * 1000 * r3.rate``.
KINDS = {
    "money": (("scaleFactor", "currency"), "m", "float"),
    "length": (("unit",), "l", "float"),
    "day": (("dateFormat",), "d", "string"),
}

#: The values each modifier ranges over.
MODIFIER_VALUES = {
    "scaleFactor": (1, 1000),
    "currency": ("USD", "JPY", "EUR"),
    "unit": ("m", "km", "cm"),
    "dateFormat": ("iso", "us"),
}

UNIT_FACTORS = {("km", "m"): 1000, ("m", "km"): 0.001, ("cm", "m"): 0.01,
                ("m", "cm"): 100, ("km", "cm"): 100000, ("cm", "km"): 0.00001}

#: Powers of two, so a rate multiplies exactly in any order.
RATES = (("JPY", "USD", 0.0078125), ("USD", "JPY", 128.0), ("EUR", "USD", 2.0),
         ("USD", "EUR", 0.5), ("JPY", "EUR", 0.00390625), ("EUR", "JPY", 256.0))

CONVERSIONS = {
    "scaleFactor": ScaleFactorConversion(),
    "currency": CurrencyConversion("rates", "fromCur", "toCur", "rate"),
    "unit": FactorTableConversion("units", UNIT_FACTORS),
    "dateFormat": DateFormatConversion(),
}

DATES = ((2020, 1, 2), (2019, 12, 31), (2021, 6, 15))

#: A case: ``(("const", value) | ("attr", column), ((column, op, literal), ...))``.
Case = Tuple[Tuple[str, Any], Tuple[Tuple[str, str, Any], ...]]


@dataclass(frozen=True)
class Source:
    """One source: its relation, context declarations and rows."""

    relation: str
    columns: Tuple[Tuple[str, str], ...]
    #: (column, semantic type) of every elevated column.
    semantic: Tuple[Tuple[str, str], ...]
    #: (semantic type, modifier, cases), cases in declaration order.
    declarations: Tuple[Tuple[str, str, Tuple[Case, ...]], ...]
    rows: Tuple[tuple, ...]

    @property
    def context(self) -> str:
        return f"c_{self.relation}"

    def column_names(self) -> List[str]:
        return [name for name, _type in self.columns]


@dataclass(frozen=True)
class Theory:
    """A whole COIN system as data: what a failing example prints."""

    sources: Tuple[Source, ...]
    #: (semantic type, modifier, value) of the receiver's context.
    receiver: Tuple[Tuple[str, str, Any], ...]
    rates: Tuple[Tuple[str, str, float], ...] = RATES

    def kinds(self) -> List[str]:
        return sorted({kind for source in self.sources for _column, kind in source.semantic})


# ---------------------------------------------------------------------------
# The system under test
# ---------------------------------------------------------------------------


def _spec(spec: Tuple[str, Any]):
    kind, value = spec
    return ConstantValue(value) if kind == "const" else AttributeValue(value)


def build_system(theory: Theory) -> CoinSystem:
    """The ``CoinSystem`` a theory describes."""
    domain = DomainModel(name="generated")
    for kind in theory.kinds():
        modifiers, _prefix, sql_type = KINDS[kind]
        value_type = "basicNumber" if sql_type == "float" else "basicString"
        domain.add_type(kind, parent=value_type,
                        modifiers={modifier: "basicString" for modifier in modifiers})
    contexts = ContextRegistry()
    for source in theory.sources:
        context = Context(source.context)
        for kind, modifier, cases in source.declarations:
            context.declare_cases(kind, modifier, [
                ModifierCase(_spec(spec), tuple(Guard(*guard) for guard in guards))
                for spec, guards in cases])
        contexts.register(context)
    receiver = Context(RECEIVER)
    for kind, modifier, value in theory.receiver:
        receiver.declare_constant(kind, modifier, value)
    contexts.register(receiver)
    elevations = ElevationRegistry()
    for source in theory.sources:
        elevations.elevate(f"s_{source.relation}", source.relation, source.context,
                           dict(source.semantic))
    conversions = ConversionRegistry(domain)
    for kind in theory.kinds():
        for modifier in KINDS[kind][0]:
            conversions.register(kind, modifier, CONVERSIONS[modifier])
    return CoinSystem(domain, contexts, elevations, conversions, name="generated")


def _relation(source: Source, rows: Sequence[tuple]) -> Relation:
    schema = Schema.of(*(f"{name}:{sql_type}" for name, sql_type in source.columns))
    return Relation(schema, rows=list(rows), name=source.relation)


def _rates_relation(theory: Theory) -> Relation:
    schema = Schema.of("fromCur:string", "toCur:string", "rate:float")
    return Relation(schema, rows=list(theory.rates), name="rates")


def build_federation(theory: Theory) -> Federation:
    """A federation over the theory's sources and the ``rates`` relation."""
    federation = Federation(build_system(theory), default_receiver_context=RECEIVER,
                            name="generated")
    for source in theory.sources:
        memory = MemorySQLSource(f"s_{source.relation}")
        memory.add_relation(_relation(source, source.rows))
        federation.register_wrapper(RelationalWrapper(memory))
    rates = MemorySQLSource("s_rates")
    rates.add_relation(_rates_relation(theory))
    federation.register_wrapper(RelationalWrapper(rates))
    return federation


# ---------------------------------------------------------------------------
# The oracles
# ---------------------------------------------------------------------------


def _holds(guards, row: Dict[str, Any]) -> bool:
    return all((row[column] == value) == (op == "=") for column, op, value in guards)


def modifier_value(cases: Sequence[Case], row: Dict[str, Any]) -> Any:
    """A row's value of one modifier: the first case whose guards hold."""
    for (kind, value), guards in cases:
        if _holds(guards, row):
            return row[value] if kind == "attr" else value
    raise AssertionError(f"no case of {cases!r} holds for {row!r}")


def convert(modifier: str, value: Any, source: Any, target: Any,
            rates: Dict[Tuple[str, str], float]) -> Any:
    """``value`` with one modifier converted from ``source`` to ``target``."""
    if value is None or source == target:
        return value
    if modifier == "scaleFactor":
        return value * (source / target)
    if modifier == "currency":
        return value * rates[(source, target)]
    if modifier == "unit":
        return value * UNIT_FACTORS[(source, target)]
    if source == "iso":
        year, month, day = value[0:4], value[5:7], value[8:10]
        return f"{month}/{day}/{year}"
    month, day, year = value[0:2], value[3:5], value[6:10]
    return f"{year}-{month}-{day}"


def converted_rows(theory: Theory, source: Source) -> List[tuple]:
    """The source's rows with every semantic value in the receiver's context."""
    rates = {(origin, goal): rate for origin, goal, rate in theory.rates}
    names = source.column_names()
    declared = {(kind, modifier): cases for kind, modifier, cases in source.declarations}
    receiver = {(kind, modifier): value for kind, modifier, value in theory.receiver}
    converted = []
    for row in source.rows:
        values = dict(zip(names, row))
        out = list(row)
        for column, kind in source.semantic:
            value = values[column]
            for modifier in KINDS[kind][0]:
                value = convert(
                    modifier, value, modifier_value(declared[(kind, modifier)], values),
                    receiver[(kind, modifier)], rates)
            out[names.index(column)] = value
        converted.append(tuple(out))
    return converted


def converted_tables(theory: Theory) -> Dict[str, Relation]:
    return {source.relation: _relation(source, converted_rows(theory, source))
            for source in theory.sources}


def reference_rows(theory: Theory, sql: str) -> List[tuple]:
    """The unmediated statement over the converted relations, interpreted."""
    return reference_from(parse(sql), converted_tables(theory))


def sqlite_rows(theory: Theory, sql: str) -> List[tuple]:
    """The unmediated statement over the converted relations, in sqlite3."""
    connection = sqlite3.connect(":memory:")
    try:
        for source in theory.sources:
            connection.execute(
                f"CREATE TABLE {source.relation} ({', '.join(source.column_names())})")
            marks = ", ".join("?" for _ in source.columns)
            connection.executemany(f"INSERT INTO {source.relation} VALUES ({marks})",
                                   converted_rows(theory, source))
        return [tuple(row) for row in connection.execute(sql).fetchall()]
    finally:
        connection.close()


def normalized(rows: Sequence[tuple], ordered: bool) -> List[tuple]:
    """The one reconciliation of the three dialects' answers: every number
    (an ``int`` SUM in sqlite, a ``float`` one here) is a float rounded to
    ten significant digits, since a float sum depends on the order rows are
    added in; NULLs stay None.  An answer whose order the statement does not
    fix is compared as a bag."""
    def value(item):
        if isinstance(item, (int, float)) and not isinstance(item, bool):
            return float(f"{float(item):.10g}")
        return item

    out = [tuple(value(item) for item in row) for row in rows]
    if not ordered:
        out.sort(key=lambda row: tuple((item is not None, str(type(item)), item)
                                       for item in row))
    return out


def guard_partition_breaks(theory: Theory, sql: str, branches) -> List[str]:
    """Row combinations of the statement's FROM that do not reach exactly
    one branch: the guards must be exclusive and exhaustive."""
    select = parse(sql)
    by_relation = {source.relation: source for source in theory.sources}
    bound = [(table.binding.lower(), by_relation[table.name]) for table in select.tables]
    breaks = []
    for combination in product(*(source.rows for _binding, source in bound)):
        row = {f"{binding}.{column.lower()}": value
               for (binding, source), values in zip(bound, combination)
               for column, value in zip(source.column_names(), values)}
        reached = sum(all((row[guard.column.lower()] == guard.value) == (guard.op == "=")
                          for guard in branch.guards)
                      for branch in branches)
        if reached != 1:
            breaks.append(f"{combination!r} reaches {reached} branches")
    return breaks


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def _cases(draw, modifier: str, index: int, otherwise: bool):
    """One declaration's cases: a constant, a column (currency only), or
    constants guarded on the row's currency code — exclusive and exhaustive,
    or, with ``otherwise``, ending in an unguarded case."""
    values = MODIFIER_VALUES[modifier]
    guard_column = f"c{index}"
    forms = ["const", "guarded", "three"] + (["attr"] if modifier == "currency" else [])
    form = draw(st.sampled_from(forms + (["otherwise"] if otherwise else [])))
    pick = lambda: draw(st.sampled_from(values))
    if form == "const":
        return ((("const", pick()), ()),)
    if form == "attr":
        return ((("attr", guard_column), ()),)
    first, second = draw(st.lists(st.sampled_from(MODIFIER_VALUES["currency"]),
                                  min_size=2, max_size=2, unique=True))
    if form == "guarded":
        return ((("const", pick()), ((guard_column, "=", first),)),
                (("const", pick()), ((guard_column, "<>", first),)))
    if form == "otherwise":
        return ((("const", pick()), ((guard_column, "=", first),)),
                (("const", pick()), ()))
    return ((("const", pick()), ((guard_column, "=", first),)),
            (("const", pick()), ((guard_column, "=", second),)),
            (("const", pick()), ((guard_column, "<>", first), (guard_column, "<>", second))))


def _semantic_value(draw, kind: str):
    if kind == "day":
        return draw(st.sampled_from((None,) + DATES))
    return draw(st.sampled_from((None, 0, 3, 5, 1000, 2000)))


def _render_date(date, date_format: str) -> Optional[str]:
    if date is None:
        return None
    year, month, day = date
    if date_format == "iso":
        return f"{year:04d}-{month:02d}-{day:02d}"
    return f"{month:02d}/{day:02d}/{year:04d}"


@st.composite
def theories(draw, otherwise: bool = False):
    """A COIN system of 2-4 sources and 1-3 semantic types, with rows that
    hold NULLs and duplicates, and may be empty."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=3,
                          unique=True))
    sources = []
    for index in range(draw(st.integers(2, 4))):
        columns = [(f"k{index}", "integer"), (f"g{index}", "string"), (f"c{index}", "string")]
        semantic = []
        for kind in kinds:
            _modifiers, prefix, sql_type = KINDS[kind]
            columns.append((f"{prefix}{index}", sql_type))
            semantic.append((f"{prefix}{index}", kind))
        declarations = tuple(
            (kind, modifier, draw(_cases(modifier, index, otherwise)))
            for kind in kinds for modifier in KINDS[kind][0])
        rows = []
        for _ in range(draw(st.sampled_from((0, 1, 2, 3, 3, 4, 4, 5, 5, 5)))):
            if rows and draw(st.integers(0, 3)) == 0:
                rows.append(rows[-1])
                continue
            row = {f"k{index}": draw(st.sampled_from((None, 0, 1, 1, 1, 2))),
                   f"g{index}": draw(st.sampled_from((None, "a", "b"))),
                   f"c{index}": draw(st.sampled_from(MODIFIER_VALUES["currency"]))}
            for kind in kinds:
                column = f"{KINDS[kind][1]}{index}"
                row[column] = _semantic_value(draw, kind)
            for kind, modifier, cases in declarations:
                if modifier == "dateFormat":
                    column = f"d{index}"
                    row[column] = _render_date(row[column], modifier_value(cases, row))
            rows.append(tuple(row[name] for name, _type in columns))
        sources.append(Source(f"t{index}", tuple(columns), tuple(semantic), declarations,
                              tuple(rows)))
    receiver = tuple((kind, modifier, draw(st.sampled_from(MODIFIER_VALUES[modifier])))
                     for kind in kinds for modifier in KINDS[kind][0])
    return Theory(tuple(sources), receiver)


@dataclass(frozen=True)
class Statement:
    sql: str
    #: The statement's ORDER BY fixes the order of every output row.
    ordered: bool


@st.composite
def statements(draw, theory: Theory, unqualified: bool):
    """A receiver statement over one or two of the theory's relations: joins,
    converted and cross-source comparisons, GROUP BY/HAVING, ORDER BY,
    LIMIT/OFFSET, DISTINCT.  With ``unqualified``, references may drop their
    binding (the first one always does); otherwise all are qualified.  A
    table is aliased or not either way."""
    count = draw(st.sampled_from((1, 2)))
    picked = draw(st.permutations(range(len(theory.sources))))[:count]
    tables = []
    for index in picked:
        source = theory.sources[index]
        alias = draw(st.sampled_from((None, f"x{index}")))
        tables.append((index, source, alias or source.relation,
                       source.relation + (f" {alias}" if alias else "")))
    spelled = []

    def ref(position: int, column: str) -> str:
        bare = unqualified and (not spelled or draw(st.booleans()))
        spelled.append(bare)
        return column if bare else f"{tables[position][2]}.{column}"

    def column_of(kinds: Sequence[str]) -> Tuple[int, str, str]:
        """(table position, column, kind or plain) of a drawn column."""
        choices = [(position, name, kind)
                   for position, (_index, source, _binding, _text) in enumerate(tables)
                   for name, kind in source.semantic if kind in kinds]
        choices += [(position, f"{prefix}{index}", "plain")
                    for position, (index, _source, _binding, _text) in enumerate(tables)
                    for prefix in "gc" if "plain" in kinds]
        return draw(st.sampled_from(choices))

    numeric = [kind for kind in ("money", "length") if kind in theory.kinds()]
    every = theory.kinds() + ["plain"]
    where: List[str] = []
    if count == 2 and draw(st.integers(0, 4)):
        where.append(f"{ref(0, f'k{tables[0][0]}')} = {ref(1, f'k{tables[1][0]}')}")
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        position, column, kind = column_of(every)
        if kind == "day":
            date = draw(st.sampled_from(DATES))
            receiver_format = next(value for kind_, _m, value in theory.receiver if kind_ == "day")
            where.append(f"{ref(position, column)} > '{_render_date(date, receiver_format)}'")
        elif kind == "plain":
            literal = "'a'" if column.startswith("g") else "'USD'"
            where.append(f"{ref(position, column)} {draw(st.sampled_from(('=', '<>')))} {literal}")
        elif count == 2 and draw(st.booleans()):
            other = next(name for name, k in tables[1 - position][1].semantic if k == kind)
            where.append(f"{ref(position, column)} > {ref(1 - position, other)}")
        else:
            where.append(f"{ref(position, column)} > {draw(st.sampled_from((0, 4, 1500, 100000)))}")

    # (select item text, output name, ORDER BY text)
    items: List[Tuple[str, str, str]] = []
    group_by: List[str] = []
    having = None
    aggregate = draw(st.booleans())
    if aggregate:
        if draw(st.booleans()):
            position, column, _kind = column_of(["plain"])
            text = ref(position, column)
            group_by.append(text)
            items.append((text, column, text))
        for number in range(draw(st.integers(1, 2))):
            function = draw(st.sampled_from(("SUM", "MIN", "MAX", "COUNT", "AVG", "COUNT(*)")))
            if function == "COUNT(*)":
                call = "COUNT(*)"
            else:
                kinds = numeric if function in ("SUM", "AVG") else theory.kinds()
                if not kinds:
                    call = "COUNT(*)"
                else:
                    position, column, _kind = column_of(kinds)
                    call = f"{function}({ref(position, column)})"
            items.append((f"{call} AS a{number}", f"a{number}", f"a{number}"))
        if draw(st.booleans()):
            if numeric:
                position, column, _kind = column_of(numeric)
                having = f"SUM({ref(position, column)}) > {draw(st.sampled_from((0, 1500)))}"
            else:
                having = "COUNT(*) > 1"
    else:
        chosen = draw(st.lists(st.tuples(st.integers(0, count - 1),
                                         st.sampled_from(range(8))),
                               min_size=1, max_size=3, unique=True))
        for position, pick in chosen:
            source = tables[position][1]
            names = source.column_names()
            column = names[pick % len(names)]
            if any(name == column for _text, name, _order in items):
                continue
            text = ref(position, column)
            # ORDER BY may name the output column or repeat the reference.
            order = column if (unqualified and draw(st.booleans())) else text
            items.append((text, column, order))
    distinct = not aggregate and draw(st.booleans())

    limit = offset = None
    if draw(st.integers(0, 3)) == 0:
        limit = draw(st.sampled_from((0, 1, 2, 3, 3)))
        if draw(st.booleans()):
            offset = draw(st.integers(1, 2))
    order: List[str] = []
    if limit is not None or draw(st.booleans()):
        for _text, _name, order_text in items:
            order.append(order_text + draw(st.sampled_from(("", " DESC"))))

    sql = "SELECT " + ("DISTINCT " if distinct else "")
    sql += ", ".join(text for text, _name, _order in items)
    sql += " FROM " + ", ".join(text for _index, _source, _binding, text in tables)
    if where:
        sql += " WHERE " + " AND ".join(where)
    if group_by:
        sql += " GROUP BY " + ", ".join(group_by)
    if having:
        sql += " HAVING " + having
    if order:
        sql += " ORDER BY " + ", ".join(order)
    if limit is not None:
        sql += f" LIMIT {limit}"
        if offset is not None:
            sql += f" OFFSET {offset}"
    return Statement(sql, ordered=bool(order))


# ---------------------------------------------------------------------------
# The check
# ---------------------------------------------------------------------------


def reproducer(theory: Theory, sql: str) -> str:
    """A failing example as a pytest case to paste into a test module."""
    return (f"\n\ndef test_reproducer():\n"
            f"    check_statement(\n        {theory!r},\n        {sql!r})\n")


def check_statement(theory: Theory, sql: str, ordered: bool = False) -> None:
    """The mediated answer of ``sql`` is the answer of both oracles, and
    every row combination of its FROM reaches exactly one branch."""
    federation = build_federation(theory)
    answer = federation.query(sql, RECEIVER)
    got = normalized(answer.relation.rows, ordered)
    context = reproducer(theory, sql) + f"\nmediated: {answer.mediation.sql}\n"
    assert got == normalized(reference_rows(theory, sql), ordered), context
    assert got == normalized(sqlite_rows(theory, sql), ordered), context
    breaks = guard_partition_breaks(theory, sql, answer.mediation.branches)
    assert not breaks, context + "\n".join(breaks)
