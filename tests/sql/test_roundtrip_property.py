"""Property-based tests: every tree prints to text that parses back to it.

The generator covers every operator of the dialect's one table
(:data:`repro.sql.ast.BINDING`) and the predicate forms.  Two spellings do
not come back as built: ``!=`` parses as ``<>`` (so it is not generated), and
a negative numeric literal prints as a minus sign over its magnitude, which
parses as unary minus over a positive literal (:func:`as_parsed`).  Names
are drawn bare and such that they print only double-quoted.
"""

from hypothesis import given, settings, strategies as st

from repro.sql.ast import (
    BINDING,
    Between,
    BinaryOp,
    ColumnRef,
    InList,
    IsNull,
    Like,
    Literal,
    Select,
    SelectItem,
    TableRef,
    UnaryOp,
    Union,
    transform,
)
from repro.sql.lexer import KEYWORDS
from repro.sql.parser import parse, parse_expression
from repro.sql.printer import to_sql

# -- expression generators ----------------------------------------------------

#: Column, qualifier, table and alias names: plain ones, and ones the printer
#: must quote — a reserved word in any case, a space or other punctuation, a
#: leading digit, letters past ASCII, the empty name.  Only ``"`` has no
#: spelling (the printer refuses it).
identifiers = st.one_of(
    st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
        lambda name: name.upper() not in KEYWORDS),
    st.sampled_from(sorted(KEYWORDS)).flatmap(
        lambda word: st.sampled_from([word, word.lower(), word.title()])),
    st.text(st.characters(blacklist_characters='"', blacklist_categories=("Cs",)),
            min_size=1, max_size=8),
)

literals = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000).map(Literal),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False)
    .map(lambda value: Literal(round(value, 3))),
    st.text(alphabet="abcXYZ 0123'", min_size=0, max_size=8).map(Literal),
    st.booleans().map(Literal),
    st.just(Literal(None)),
)

column_references = st.one_of(
    identifiers.map(lambda name: ColumnRef(name)),
    st.tuples(identifiers, identifiers).map(lambda pair: ColumnRef(pair[1], pair[0])),
)

#: Every binary operator of the table; the predicates are generated as their
#: own nodes, and ``!=`` parses as ``<>``.
BINARY_OPERATORS = sorted(set(BINDING) - {"NOT", "IN", "BETWEEN", "LIKE", "IS", "!="})


def expressions(max_depth: int = 3):
    def extend(children):
        binary = st.tuples(st.sampled_from(BINARY_OPERATORS), children, children).map(
            lambda triple: BinaryOp(*triple))
        unary = st.tuples(st.sampled_from(["NOT", "-"]), children).map(
            lambda pair: UnaryOp(*pair))
        in_list = st.builds(lambda expr, items, negated: InList(expr, tuple(items), negated),
                            children, st.lists(children, min_size=1, max_size=3), st.booleans())
        between = st.builds(Between, children, children, children, st.booleans())
        like = st.builds(Like, children, children, st.booleans())
        is_null = st.builds(IsNull, children, st.booleans())
        return st.one_of(binary, unary, in_list, between, like, is_null)

    return st.recursive(st.one_of(literals, column_references), extend, max_leaves=max_depth * 4)


def as_parsed(node):
    """``node`` as the parser reads its printed text back: a negative
    numeric literal becomes unary minus over its magnitude."""
    def positive(child):
        value = getattr(child, "value", None)
        if (isinstance(child, Literal) and isinstance(value, (int, float))
                and not isinstance(value, bool) and value < 0):
            return UnaryOp("-", Literal(-value))
        return child
    return transform(node, positive)


select_statements = st.builds(
    lambda items, table, alias, condition: Select(
        items=tuple(SelectItem(expr, name) for expr, name in items),
        tables=(TableRef(table, alias),),
        where=condition,
    ),
    st.lists(st.tuples(expressions(2), st.one_of(st.none(), identifiers)),
             min_size=1, max_size=4),
    identifiers,
    st.one_of(st.none(), identifiers),
    st.one_of(st.none(), expressions(2)),
)


class TestExpressionRoundtrip:
    @settings(max_examples=200, deadline=None)
    @given(expressions())
    def test_printed_text_parses_to_the_same_tree(self, expression):
        assert parse_expression(to_sql(expression)) == as_parsed(expression)

    @settings(max_examples=100, deadline=None)
    @given(expressions())
    def test_parse_of_print_preserves_structure_of_reprint(self, expression):
        # Idempotence: a second round trip changes nothing further.
        once = to_sql(parse_expression(to_sql(expression)))
        twice = to_sql(parse_expression(once))
        assert once == twice


class TestStatementRoundtrip:
    @settings(max_examples=100, deadline=None)
    @given(select_statements)
    def test_select_roundtrip(self, statement):
        assert parse(to_sql(statement)) == as_parsed(statement)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(select_statements, min_size=2, max_size=3), st.booleans())
    def test_union_roundtrip(self, selects, use_all):
        statement = Union(tuple(selects), all=use_all)
        assert parse(to_sql(statement)) == as_parsed(statement)
