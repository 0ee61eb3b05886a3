"""Abstract syntax tree for the prototype's SQL dialect.

Nodes are small frozen dataclasses with no behaviour beyond structural
helpers: :func:`walk` yields every node of a tree, :func:`transform` rebuilds
a tree bottom-up through a mapping function — both are used heavily by the
mediation engine when splicing conversion expressions into queries, and by the
multi-database engine when decomposing a mediated query into per-source
sub-queries.

Every traversal reads one table, fixed per class when the class is created
(:func:`node_class`): ``FIELDS``, the field names in declaration order, and
``CHILD_FIELDS``, those of them that can hold nodes.  No tree walk reflects on
a dataclass.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Union as TUnion


class Node:
    """Base class for every AST node (expressions and statements)."""

    #: Field names in declaration order, and those of them that can hold
    #: nodes (a node, an optional node, or tuples of them to any depth); the
    #: rest are scalars.  Set by :func:`node_class`.
    FIELDS: Tuple[str, ...] = ()
    CHILD_FIELDS: Tuple[str, ...] = ()

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (in syntactic order)."""
        for name in self.CHILD_FIELDS:
            yield from _iter_nodes(getattr(self, name))

    def copy(self, **changes: Any) -> "Node":
        """Return a shallow copy with the given field replacements."""
        values = {name: getattr(self, name) for name in self.FIELDS}
        values.update(changes)
        return self.__class__(**values)


#: The names a scalar field's annotation is spelled with; any other name in
#: an annotation is (or, for a forward reference, may be) a node class.
_SCALAR_NAMES = frozenset({"Any", "Optional", "Tuple", "str", "bool", "int", "float"})


def node_class(cls: type) -> type:
    """Class decorator of every node: a frozen dataclass, plus its row of the
    child table read off the field annotations — once, here."""
    cls = dataclass(frozen=True)(cls)
    declared = fields(cls)
    cls.FIELDS = tuple(f.name for f in declared)
    cls.CHILD_FIELDS = tuple(
        f.name for f in declared
        if not _SCALAR_NAMES.issuperset(re.findall(r"\w+", f.type)))
    return cls


def _iter_nodes(value: Any) -> Iterator[Node]:
    if isinstance(value, Node):
        yield value
    elif value.__class__ is tuple:
        for item in value:
            yield from _iter_nodes(item)


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and every descendant, pre-order.  A tuple of nodes (a
    clause; ``None`` for an absent member) is walked member by member."""
    stack: List[Any] = [node]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if node.__class__ is tuple:
            stack.extend(node[::-1])
        elif node is not None:
            yield node
            for name in node.CHILD_FIELDS[::-1]:
                push(getattr(node, name))


def transform(node: Node, fn: Callable[[Node], Node],
              leave: Tuple[type, ...] = ()) -> Node:
    """Rebuild ``node`` bottom-up, applying ``fn`` to every node.

    ``fn`` receives a node whose children have already been transformed and
    must return a node (possibly the same one).  Tuples of nodes inside
    fields are transformed element-wise; a subtree in which ``fn`` changed
    nothing is handed to it as the same object.  A node of a ``leave`` class
    is kept as it is: neither entered nor handed to ``fn``.
    """
    if leave and isinstance(node, leave):
        return node
    values = None
    for name in node.CHILD_FIELDS:
        old = getattr(node, name)
        new = _rebuild(old, fn, leave)
        if new is not old:
            if values is None:
                values = {field: getattr(node, field) for field in node.FIELDS}
            values[name] = new
    if values is not None:
        node = node.__class__(**values)
    return fn(node)


def _rebuild(value: Any, fn: Callable[[Node], Node], leave: Tuple[type, ...]) -> Any:
    """One field value of :func:`transform`.  A module-level function, not a
    closure naming itself: a self-referential closure is a reference cycle,
    and every transformed node would leave one for the cycle collector."""
    if value.__class__ is tuple:
        rebuilt = tuple([_rebuild(item, fn, leave) for item in value])
        return rebuilt if any(map(operator.is_not, rebuilt, value)) else value
    if value is None:
        return None
    return transform(value, fn, leave)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@node_class
class Literal(Node):
    """A constant: number, string, boolean or NULL (``value is None``)."""

    value: Any

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return repr(self.value)


@node_class
class ColumnRef(Node):
    """A (possibly qualified) column reference such as ``r1.revenue``."""

    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        """The dotted form used for display and for schema lookups."""
        return f"{self.table}.{self.name}" if self.table else self.name

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.qualified


@node_class
class Star(Node):
    """``*`` or ``t.*`` in a select list."""

    table: Optional[str] = None


@node_class
class BinaryOp(Node):
    """A binary operation: arithmetic, comparison, AND/OR or concatenation."""

    op: str
    left: Node
    right: Node


@node_class
class UnaryOp(Node):
    """A unary operation: ``NOT x`` or ``-x``."""

    op: str
    operand: Node


@node_class
class FunctionCall(Node):
    """A scalar or aggregate function call, e.g. ``SUM(r1.revenue)``."""

    name: str
    args: Tuple[Node, ...] = ()
    distinct: bool = False


@node_class
class InList(Node):
    """``expr [NOT] IN (v1, v2, ...)`` with literal/expression members."""

    expr: Node
    items: Tuple[Node, ...]
    negated: bool = False


@node_class
class Between(Node):
    """``expr [NOT] BETWEEN low AND high``."""

    expr: Node
    low: Node
    high: Node
    negated: bool = False


@node_class
class Like(Node):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    expr: Node
    pattern: Node
    negated: bool = False


@node_class
class IsNull(Node):
    """``expr IS [NOT] NULL``."""

    expr: Node
    negated: bool = False


@node_class
class Subquery(Node):
    """A parenthesized query usable as a table or scalar/EXISTS operand."""

    query: "Select"


@node_class
class Exists(Node):
    """``[NOT] EXISTS (subquery)``."""

    subquery: Subquery
    negated: bool = False


@node_class
class Case(Node):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    whens: Tuple[Tuple[Node, Node], ...]
    default: Optional[Node] = None


# ---------------------------------------------------------------------------
# Table references and joins
# ---------------------------------------------------------------------------


@node_class
class TableRef(Node):
    """A base-table reference with an optional alias, e.g. ``r1`` or ``R1 x``.

    ``source`` optionally pins the table to a named source (``source.table``
    syntax is accepted by the parser); the catalog resolves unqualified names.
    """

    name: str
    alias: Optional[str] = None
    source: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is referred to by in column qualifiers."""
        return self.alias or self.name


@node_class
class Join(Node):
    """An explicit join between two table expressions."""

    left: Node
    right: Node
    kind: str = "INNER"  # INNER, LEFT, RIGHT, CROSS
    condition: Optional[Node] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@node_class
class SelectItem(Node):
    """One entry of a select list: an expression with an optional alias."""

    expr: Node
    alias: Optional[str] = None


@node_class
class OrderItem(Node):
    """One entry of an ORDER BY clause."""

    expr: Node
    ascending: bool = True


@node_class
class Select(Node):
    """A single SELECT statement (one UNION branch)."""

    items: Tuple[SelectItem, ...]
    tables: Tuple[Node, ...] = ()
    where: Optional[Node] = None
    group_by: Tuple[Node, ...] = ()
    having: Optional[Node] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False

    @property
    def output_names(self) -> List[str]:
        """The column names of the result, using aliases when present."""
        names: List[str] = []
        for index, item in enumerate(self.items):
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ColumnRef):
                names.append(item.expr.name)
            else:
                names.append(f"col_{index + 1}")
        return names


@node_class
class Union(Node):
    """A UNION (or UNION ALL) of two or more SELECT statements."""

    selects: Tuple[Select, ...]
    all: bool = False

    @property
    def output_names(self) -> List[str]:
        return self.selects[0].output_names if self.selects else []


@node_class
class ColumnDef(Node):
    """A column definition in CREATE TABLE."""

    name: str
    type_name: str = "string"


@node_class
class CreateTable(Node):
    """``CREATE TABLE name (col type, ...)`` used to load demo sources."""

    name: str
    columns: Tuple[ColumnDef, ...]


@node_class
class Insert(Node):
    """``INSERT INTO name [(cols)] VALUES (...), (...)``."""

    table: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Node, ...], ...]


#: Any statement the parser may return.
Statement = TUnion[Select, Union, CreateTable, Insert]

#: Names of aggregate functions recognized by the dialect.
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def is_aggregate_call(node: Node) -> bool:
    """Return True when ``node`` is a call to an aggregate function."""
    return isinstance(node, FunctionCall) and node.name.upper() in AGGREGATE_FUNCTIONS


def contains_aggregate(node: Node) -> bool:
    """Return True when any descendant of ``node`` is an aggregate call."""
    return any(is_aggregate_call(n) for n in walk(node))


def column_refs(node: Node) -> List[ColumnRef]:
    """Collect every column reference appearing under ``node``, in order."""
    return [n for n in walk(node) if isinstance(n, ColumnRef)]


def conjuncts(condition: Optional[Node]) -> List[Node]:
    """Split a WHERE/HAVING condition into its top-level AND-ed conjuncts."""
    if condition is None:
        return []
    if isinstance(condition, BinaryOp) and condition.op.upper() == "AND":
        return conjuncts(condition.left) + conjuncts(condition.right)
    return [condition]


def conjoin(conditions: Sequence[Node]) -> Optional[Node]:
    """Combine conditions with AND; return None for an empty sequence."""
    result: Optional[Node] = None
    for condition in conditions:
        result = condition if result is None else BinaryOp("AND", result, condition)
    return result


def disjoin(conditions: Sequence[Node]) -> Optional[Node]:
    """Combine conditions with OR; return None for an empty sequence."""
    result: Optional[Node] = None
    for condition in conditions:
        result = condition if result is None else BinaryOp("OR", result, condition)
    return result
