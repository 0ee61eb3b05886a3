"""The AST's child table against reflection, and the traversals that read it
against reference implementations kept here.

``FIELDS``/``CHILD_FIELDS`` are fixed when a node class is created; nothing on
a traversal reflects on a dataclass any more.  These tests are where
reflection survives: for *every* ``Node`` subclass — found by walking
``Node.__subclasses__()``, so a class added later cannot be forgotten — the
table must say what ``dataclasses.fields`` and the resolved type hints say,
and ``walk``, ``column_refs`` and ``transform`` must agree, tree for generated
tree, with the reflective implementations they replaced.
"""

import typing
from dataclasses import fields, is_dataclass, replace

from hypothesis import given, settings, strategies as st

import repro.sql.parser  # noqa: F401 - defines the parser's own node class
from repro.sql.ast import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Exists,
    FunctionCall,
    InList,
    Insert,
    IsNull,
    Join,
    Like,
    Literal,
    Node,
    Select,
    SelectItem,
    Subquery,
    TableRef,
    column_refs,
    transform,
    walk,
)

from tests.sql.test_roundtrip_property import expressions, literals, select_statements


def node_classes():
    found, pending = [], [Node]
    while pending:
        for cls in pending.pop().__subclasses__():
            found.append(cls)
            pending.append(cls)
    return found


def _may_hold_node(hint) -> bool:
    if isinstance(hint, type):
        return issubclass(hint, Node)
    return any(_may_hold_node(argument) for argument in typing.get_args(hint))


class TestTheTableIsWhatReflectionSays:
    def test_every_node_class_is_found(self):
        names = {cls.__name__ for cls in node_classes()}
        assert {"Literal", "ColumnRef", "Case", "Select", "Union", "Insert",
                "_DerivedTable"} <= names

    def test_fields_and_child_fields_of_every_class(self):
        for cls in node_classes():
            assert is_dataclass(cls), f"{cls.__name__} was not made by node_class"
            hints = typing.get_type_hints(cls)
            names = tuple(f.name for f in fields(cls))
            assert cls.FIELDS == names, cls.__name__
            assert cls.CHILD_FIELDS == tuple(
                name for name in names if _may_hold_node(hints[name])), cls.__name__

    def test_the_table_is_per_class_not_inherited(self):
        for cls in node_classes():
            assert "FIELDS" in vars(cls) and "CHILD_FIELDS" in vars(cls), cls.__name__
        assert Node.FIELDS == () and Node.CHILD_FIELDS == ()

    def test_scalar_and_child_fields_partition_a_select(self):
        assert Select.CHILD_FIELDS == (
            "items", "tables", "where", "group_by", "having", "order_by")
        assert [name for name in Select.FIELDS if name not in Select.CHILD_FIELDS] == [
            "limit", "offset", "distinct"]
        assert Insert.CHILD_FIELDS == ("rows",)  # columns are strings
        assert Literal.CHILD_FIELDS == ()  # a value is never a node


# -- the reflective implementations the table replaced --------------------------


def _iter_nodes(value):
    if isinstance(value, Node):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _iter_nodes(item)


def reference_children(node):
    for f in fields(node):
        yield from _iter_nodes(getattr(node, f.name))


def reference_walk(node):
    yield node
    for child in reference_children(node):
        yield from reference_walk(child)


def reference_transform(node, fn, leave=()):
    if leave and isinstance(node, leave):
        return node
    changes = {}
    for f in fields(node):
        old = getattr(node, f.name)
        new = _reference_rebuild(old, fn, leave)
        if new is not old:
            changes[f.name] = new
    if changes:
        node = replace(node, **changes)
    return fn(node)


def _reference_rebuild(value, fn, leave):
    if isinstance(value, Node):
        return reference_transform(value, fn, leave)
    if isinstance(value, tuple):
        return tuple(_reference_rebuild(item, fn, leave) for item in value)
    return value


# -- generated trees: the round-trip suite's, plus the node classes it lacks ----


def rich_expressions():
    def extend(children):
        return st.one_of(
            st.builds(lambda op, l, r: BinaryOp(op, l, r),
                      st.sampled_from(["+", "=", "AND", "OR", "||"]), children, children),
            st.builds(lambda name, args: FunctionCall(name, tuple(args)),
                      st.sampled_from(["UPPER", "COALESCE", "SUM", "count"]),
                      st.lists(children, max_size=3)),
            st.builds(lambda e, items, neg: InList(e, tuple(items), neg),
                      children, st.lists(children, min_size=1, max_size=3), st.booleans()),
            st.builds(Between, children, children, children, st.booleans()),
            st.builds(Like, children, literals, st.booleans()),
            st.builds(IsNull, children, st.booleans()),
            st.builds(lambda whens, default: Case(tuple(whens), default),
                      st.lists(st.tuples(children, children), min_size=1, max_size=3),
                      st.one_of(st.none(), children)),
            st.builds(lambda s, neg: Exists(Subquery(s), neg), select_statements, st.booleans()),
            st.builds(lambda e, s: InList(e, (Subquery(s),)), children, select_statements),
        )

    return st.recursive(expressions(2), extend, max_leaves=10)


trees = st.one_of(
    rich_expressions(),
    select_statements,
    st.builds(lambda s, e: Select(items=s.items, tables=s.tables, where=e,
                                  group_by=(e,), having=e),
              select_statements, rich_expressions()),
)


def same_objects(left, right):
    left, right = list(left), list(right)
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


class TestTraversalsAgreeWithTheReference:
    @settings(max_examples=60, deadline=None)
    @given(trees)
    def test_walk_order_children_and_column_refs(self, tree):
        assert same_objects(walk(tree), reference_walk(tree))
        for node in reference_walk(tree):
            assert same_objects(node.children(), reference_children(node))
        assert same_objects(column_refs(tree),
                            [n for n in reference_walk(tree) if isinstance(n, ColumnRef)])

    @settings(max_examples=60, deadline=None)
    @given(trees)
    def test_identity_transform_returns_the_same_object(self, tree):
        seen = []
        assert transform(tree, lambda node: seen.append(node) or node) is tree
        # Bottom-up: every node is handed over after all of its descendants.
        handed = []
        reference_transform(tree, lambda node: handed.append(node) or node)
        assert seen == handed

    @settings(max_examples=60, deadline=None)
    @given(trees, st.data())
    def test_substitution_and_leave(self, tree, data):
        refs = column_refs(tree)
        targets = set(data.draw(st.lists(st.sampled_from(refs), max_size=3))) if refs else set()

        def substitute(node):
            if isinstance(node, ColumnRef) and node in targets:
                return BinaryOp("*", node, Literal(2))
            if isinstance(node, Literal) and node.value is None:
                return Literal(0)
            return node

        for leave in ((), (Subquery,), (Case, InList)):
            ours = transform(tree, substitute, leave)
            assert ours == reference_transform(tree, substitute, leave)
            if ours == tree:
                assert ours is tree
            # What is left is left as the same object, not a copy.
            for node in walk(ours):
                if leave and isinstance(node, leave):
                    assert any(node is original for original in walk(tree))

    def test_case_pairs_nested_rows_and_joins_by_hand(self):
        a, b, c, d, e = (ColumnRef(name) for name in "abcde")
        case = Case(((a, b), (c, d)), e)
        assert list(walk(case)) == [case, a, b, c, d, e]
        assert list(Case(((a, b),)).children()) == [a, b]
        insert = Insert("t", ("x", "y"), ((Literal(1), a), (Literal(2), b)))
        assert list(insert.children()) == [Literal(1), a, Literal(2), b]
        join = Join(TableRef("l"), TableRef("r"), "INNER", BinaryOp("=", a, b))
        select = Select(items=(SelectItem(c),), tables=(join,), where=d)
        assert column_refs(select) == [c, a, b, d]
        assert transform(select, lambda node: node) is select
