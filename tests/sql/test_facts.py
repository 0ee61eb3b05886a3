"""``analyse_select``'s one pass against the walkers it replaced.

The planner and the mediator used to ask each question of a SELECT with a
walk of its own; the old walkers are kept here, as they were, and every fact
must equal their answer on generated statements.
"""

from hypothesis import given, settings, strategies as st

from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    FunctionCall,
    OrderItem,
    Select,
    SelectItem,
    Star,
    Subquery,
    TableRef,
    column_refs,
    conjoin,
    conjuncts,
    contains_aggregate,
    is_aggregate_call,
    walk,
)
from repro.sql.facts import analyse_expression, analyse_select
from repro.sql.parser import parse

from tests.sql.test_ast_table import rich_expressions, same_objects
from tests.sql.test_roundtrip_property import column_references


# -- the old walkers, verbatim ---------------------------------------------------


def old_has_subquery(condition):  # QueryPlanner._classify_conditions
    return any(isinstance(node, Subquery) for node in walk(condition))


def old_needs_arithmetic(condition):  # QueryPlanner._condition_pushable
    return any(
        (isinstance(node, BinaryOp) and node.op in ("+", "-", "*", "/", "%", "||"))
        or isinstance(node, FunctionCall)
        for node in walk(condition)
    )


def old_equi_join_parts(condition):  # QueryPlanner._equi_join_parts
    if (
        isinstance(condition, BinaryOp)
        and condition.op == "="
        and isinstance(condition.left, ColumnRef)
        and isinstance(condition.right, ColumnRef)
    ):
        return condition.left, condition.right
    return None


def old_has_star(select):  # QueryPlanner._needed_columns
    return any(isinstance(node, Star) for item in select.items for node in walk(item.expr))


def old_items_aggregate(select):  # QueryPlanner._branch_fetch_limit
    return any(is_aggregate_call(node) for item in select.items for node in walk(item.expr))


# -- generated statements ----------------------------------------------------------

equalities = st.builds(lambda l, r: BinaryOp("=", l, r), column_references, column_references)
conditions = st.one_of(rich_expressions(), equalities)

selects = st.builds(
    lambda items, where, group_by, having, order_by: Select(
        items=tuple(SelectItem(expr) for expr in items),
        tables=(TableRef("t"), TableRef("u", "v")),
        where=conjoin(where),
        group_by=tuple(group_by),
        having=having,
        order_by=tuple(OrderItem(expr) for expr in order_by),
    ),
    st.lists(st.one_of(rich_expressions(), st.just(Star()),
                       st.just(FunctionCall("COUNT", (Star(),)))), min_size=1, max_size=2),
    st.lists(conditions, max_size=3),
    st.lists(column_references, max_size=2),
    st.one_of(st.none(), column_references, rich_expressions()),
    st.lists(column_references, max_size=2),
)


class TestFactsEqualTheOldWalkers:
    @settings(max_examples=80, deadline=None)
    @given(selects)
    def test_facts_of_a_select(self, select):
        facts = analyse_select(select)
        assert same_objects([c.condition for c in facts.conjuncts], conjuncts(select.where))
        for conjunct in facts.conjuncts:
            condition = conjunct.condition
            assert same_objects(conjunct.refs, column_refs(condition))
            assert conjunct.has_subquery == old_has_subquery(condition)
            assert conjunct.has_computation == old_needs_arithmetic(condition)
            assert conjunct.has_aggregate == contains_aggregate(condition)
            assert conjunct.equi_pair == old_equi_join_parts(condition)
            if conjunct.equi_pair is not None:
                assert same_objects(conjunct.equi_pair, (condition.left, condition.right))

        assert facts.items.has_star == old_has_star(select)
        assert facts.items.has_aggregate == old_items_aggregate(select)
        assert same_objects(facts.items.refs, column_refs(SelectItem(select.items)))
        # Distinct by (qualifier, name) as written; the first occurrence, in
        # the order a walk of the whole statement meets them.
        first = {}
        for ref in column_refs(select):
            first.setdefault((ref.table, ref.name), ref)
        assert same_objects(facts.refs, first.values())

    @settings(max_examples=60, deadline=None)
    @given(rich_expressions())
    def test_expression_facts(self, expression):
        facts = analyse_expression(expression)
        assert same_objects(facts.refs, column_refs(expression))
        assert facts.has_subquery == old_has_subquery(expression)
        assert facts.has_computation == old_needs_arithmetic(expression)
        assert facts.has_aggregate == contains_aggregate(expression)
        assert facts.has_star == any(isinstance(node, Star) for node in walk(expression))


class TestFactsByHand:
    def test_the_paper_query(self):
        facts = analyse_select(parse(
            "SELECT r1.cname, r1.revenue FROM r1, r2 "
            "WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses"))
        assert [ref.qualified for ref in facts.refs] == [
            "r1.cname", "r1.revenue", "r2.cname", "r2.expenses"]
        equi, comparison = facts.conjuncts
        assert [ref.qualified for ref in equi.equi_pair] == ["r1.cname", "r2.cname"]
        assert comparison.equi_pair is None
        assert not any(c.has_subquery or c.has_computation or c.has_aggregate
                       for c in facts.conjuncts)

    def test_refs_keep_case_and_join_conditions_come_before_where(self):
        facts = analyse_select(parse(
            "SELECT a.X FROM t a JOIN u b ON a.k = b.k WHERE A.x > 1 AND a.X < 9 "
            "GROUP BY a.g HAVING SUM(b.v) > 0 ORDER BY total"))
        assert [(ref.table, ref.name) for ref in facts.refs] == [
            ("a", "X"), ("a", "k"), ("b", "k"), ("A", "x"), ("a", "g"), ("b", "v"),
            (None, "total")]

    def test_flags(self):
        facts = analyse_select(parse(
            "SELECT COUNT(*), t.a FROM t WHERE t.a + 1 > 2 AND UPPER(t.b) = 'X' "
            "AND t.c IN (SELECT u.c FROM u) AND EXISTS (SELECT u.d FROM u) AND t.e = 'k'"))
        assert facts.items.has_star and facts.items.has_aggregate
        flags = [(c.has_computation, c.has_subquery) for c in facts.conjuncts]
        assert flags == [(True, False), (True, False), (False, True), (False, True),
                         (False, False)]
        # A subquery's own columns are met where a walk meets them.
        assert [ref.qualified for ref in facts.conjuncts[2].refs] == ["t.c", "u.c"]

    def test_no_where_no_conjuncts(self):
        facts = analyse_select(parse("SELECT t.a FROM t"))
        assert facts.conjuncts == () and [ref.name for ref in facts.refs] == ["a"]
