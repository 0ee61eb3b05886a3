"""Compilation of SQL AST expressions into generated Python kernels.

An interpreter re-walks the AST for every row; the one kept beside the tests
does, as the executable specification of these kernels.
:class:`ExpressionCompiler` lowers an expression **once** to the source of
one straight-line Python function: ``compile`` gives ``row -> value``,
``predicate`` ``row -> True/False/None``, ``projection`` one ``row -> tuple``
for a whole select list, ``order_key`` one flat total-order key for a whole
ORDER BY and ``bucket_key`` the normalized (composite) hash-join key.  However
deep the expression, a row costs one Python call.

* **Emitter.**  Every node becomes a few statements over SSA temporaries
  (``t1 = row[3]``, ``c2 = t1.__class__``).  ``AND``/``OR`` chains and
  ``CASE`` are real blocks with early exit, so what SQL would not evaluate is
  not evaluated; an unknown column or function becomes a ``raise`` where the
  interpreter would raise — compiling itself never fails.
* **Fast path and helpers.**  Arithmetic, comparisons, negation and the key
  normalizations test the *exact* class of their operands inline (``c2 is
  float or c2 is int``, ``is str``) and apply the plain Python operator,
  float-coerced as ``sql_compare``/``sql_equal`` coerce; an ``IN`` list of
  literals of one exact class (``int`` or ``str``) is a ``frozenset`` probe
  for a value of that class.  Everything else —
  ``bool``, ``Decimal``, subclasses, mixed types — calls a shared helper
  (``_arith_slow``, ``_order_slow``, ``sql_equal``, ``_in_list``, ...), the
  one place the full rule and its error messages live.  The interpreter is
  the specification ``tests/relational/test_compile*.py`` hold kernels to.
* **No statement text in generated source.**  Literals, LIKE matchers,
  IN-list tuples, function objects, deferred errors, folded constants and
  sub-kernels are arguments of a generated factory (``def make(k0, k1): def
  kernel(row): ...``); columns appear only as integer positions, operators
  only from fixed tables.  The source is a function of expression *shape* and
  schema positions alone: ``exec`` never sees a byte the receiver typed, and
  statements differing in constants share one source.
* **Caches.**  Factories are cached by source in a bounded, locked LRU
  (:data:`_CODE`): the builtin ``compile()`` is paid per shape; a new constant
  or relation pair costs string assembly and one factory call.  Each source
  is registered with :mod:`linecache` as ``<repro-kernel:HASH>`` (evicted with
  its factory): tracebacks print the generated line, and
  ``linecache.getlines(kernel.__code__.co_filename)`` dumps a kernel.
  Kernels are re-entrant — pool and gateway threads share them — and
  shared **by structure**: the process-wide :data:`_MEMO` keys a kernel by
  its entry point, the canonical form of its expressions
  (:func:`repro.sql.normalize.expression_form`) and the schema, so a
  statement never seen before recalls every kernel an earlier one already
  built and generates only those naming its own constants.  A plan's
  template puts an identity-keyed :class:`KernelMemo` in front
  (:class:`KernelScope`), so re-lowering the same plan serializes nothing.
  With a subquery a kernel folds its result for its own lifetime and is
  kept nowhere.
* **Folding and splitting.**  A row-independent subtree is its own kernel
  behind a lazy cell (:func:`_fold`).  A subtree past :data:`MAX_KERNEL_DEPTH`
  or :data:`MAX_KERNEL_NODES` is its own kernel called from its parent —
  found bottom-up without recursion, so CPython's limits on nested blocks,
  indentation and recursion are never reached.
"""

from __future__ import annotations

import hashlib
import linecache
import math
import operator
import re
import threading
from collections import OrderedDict
from decimal import Decimal
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.errors import EvaluationError
from repro.relational.schema import Schema
from repro.relational.types import sort_key, sql_compare, sql_equal
from repro.sql.ast import (
    Between, BinaryOp, Case, ColumnRef, Exists, FunctionCall, InList, IsNull, Like, Literal,
    Node, Star, Subquery, UnaryOp,
)
from repro.sql.normalize import expression_form

Row = Sequence[Any]
CompiledExpr = Callable[[Row], Any]
#: Runs an (uncorrelated) subquery's Select; returns its Relation.
SubqueryExecutor = Optional[Callable[[Node], Any]]

#: Tallest subtree one kernel holds.  Every AND/OR/CASE level opens one
#: ``while`` block and CPython refuses more than 20 statically nested blocks.
MAX_KERNEL_DEPTH = 16
#: Most non-literal nodes one kernel holds.
MAX_KERNEL_NODES = 400

_ARITHMETIC: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "%": operator.mod,
}
_ORDERING: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_EQUALITY = {"=": "==", "<>": "!="}


class KernelMemo:
    """Bounded, thread-safe LRU of finished kernels shared across operators.

    An entry may carry the expression nodes its key was made from.  A key
    made of node **identities** does — cached plans are immutable, so
    re-executing one presents the same AST objects every time, and identity
    lookups skip serializing the trees per operator: while an entry lives,
    its ids cannot be recycled, and a lookup additionally verifies the stored
    nodes *are* the probe nodes, so an id reused after eviction can only
    miss.  A key made of text (a canonical form, a kernel's source) carries
    no nodes and pins no tree.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Tuple[tuple, Any]]" = OrderedDict()
        self._lock = threading.Lock()

    def _live(self, key: Hashable, nodes: tuple) -> Optional[Tuple[tuple, Any]]:
        """The entry under ``key`` if it was stored for ``nodes`` (lock held)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        stored_nodes = entry[0]
        if len(stored_nodes) != len(nodes) or any(
                map(operator.is_not, stored_nodes, nodes)):
            # id recycled after eviction of the original nodes.
            del self._entries[key]
            return None
        self._entries.move_to_end(key)
        return entry

    def get(self, key: Hashable, nodes: tuple = ()) -> Any:
        """The value stored under ``key`` for ``nodes``, or None."""
        with self._lock:
            entry = self._live(key, nodes)
            return None if entry is None else entry[1]

    def put(self, key: Hashable, nodes: tuple, value: Any) -> Tuple[Any, List[Any]]:
        """Store ``value`` unless a racing caller already stored one: returns
        the entry's value — every caller of one key leaves with the same
        object — and the values evicted to make room."""
        with self._lock:
            entry = self._live(key, nodes)
            if entry is not None:
                return entry[1], []
            self._entries[key] = (nodes, value)
            return value, [self._entries.popitem(last=False)[1][1]
                           for _ in range(len(self._entries) - self.capacity)]

    def clear(self) -> List[Any]:
        """Drop every entry; returns the values dropped."""
        with self._lock:
            dropped = [value for _nodes, value in self._entries.values()]
            self._entries.clear()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide kernel table, by **structure**: ``(entry point, detail,
#: canonical form of each expression, schema token)`` — no nodes, so it pins
#: no plan's AST, and a statement never seen before recalls from it every
#: kernel whose expressions an earlier one already spelled.
_MEMO = KernelMemo(capacity=1024)
#: Kernel factories by generated source text: the builtin ``compile()`` is
#: paid once per expression shape.
_CODE = KernelMemo(capacity=1024)


def _factory(source: str) -> Callable[..., CompiledExpr]:
    """The ``make`` function of ``source``, compiled on first sight."""
    make = _CODE.get(source)
    if make is None:
        filename = f"<repro-kernel:{hashlib.sha1(source.encode()).hexdigest()[:16]}>"
        scope: Dict[str, Any] = {}
        exec(compile(source, filename, "exec"), _KERNEL_GLOBALS, scope)
        make = scope["make"]
        # mtime None: linecache.checkcache() leaves the entry alone.
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        make, evicted = _CODE.put(source, (), make)
        _forget_sources(evicted)
    return make


def _forget_sources(factories: Sequence[Callable[..., CompiledExpr]]) -> None:
    for make in factories:
        linecache.cache.pop(make.__code__.co_filename, None)


def clear_compiled_memo() -> None:
    """Drop every memoized kernel and cached factory (test isolation hook)."""
    _MEMO.clear()
    _forget_sources(_CODE.clear())


# -- shared helpers: what a kernel calls when its inline fast path does not apply


def _fold(fn: CompiledExpr) -> Callable[[], Any]:
    """A lazy cell over a row-independent kernel: evaluated on first use (an
    error surfaces when the interpreter would raise, and again on every use),
    then remembered.  Racing threads may both evaluate it: it is idempotent."""
    return lru_cache(maxsize=1)(partial(fn, ()))


def _arith_slow(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    for value in (left, right):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise EvaluationError(f"arithmetic on non-numeric value {value!r}")
    try:
        return _ARITHMETIC[op](left, right)
    except ZeroDivisionError:
        return None


def _negate_slow(value: Any) -> Any:
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise EvaluationError(f"cannot negate {value!r}")
    return -value


def _order_slow(op: str, left: Any, right: Any) -> Optional[bool]:
    comparison = sql_compare(left, right)
    return None if comparison is None else _ORDERING[op](comparison, 0)


def _not_equal(left: Any, right: Any) -> Optional[bool]:
    equal = sql_equal(left, right)
    return None if equal is None else not equal


def _in_list(value: Any, members: Sequence[Any], negated: bool) -> Optional[bool]:
    if value is None:
        return None
    saw_null = False
    for member in members:
        equal = sql_equal(value, member)
        if equal is True:
            return not negated
        if equal is None:
            saw_null = True
    return None if saw_null else negated


def _between(value: Any, low: Any, high: Any, negated: bool) -> Optional[bool]:
    # As interpreted: the second comparison's type error beats the first's NULL.
    low_cmp, high_cmp = sql_compare(value, low), sql_compare(value, high)
    if low_cmp is None or high_cmp is None:
        return None
    inside = low_cmp >= 0 and high_cmp <= 0
    return not inside if negated else inside


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (``%`` and ``_`` wildcards) to a regex."""
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


#: LIKE pattern -> compiled regex, shared by every kernel.
_like_regex = lru_cache(maxsize=512)(like_to_regex)


def _like(value: Any, pattern: Any, negated: bool) -> Optional[bool]:
    if value is None or pattern is None:
        return None
    matched = _like_regex(str(pattern)).match(str(value)) is not None
    return not matched if negated else matched


def _substr(value: Any, start: Any, length: Any) -> Any:
    if value is None or start is None:
        return None
    text = str(value)
    begin = max(int(start) - 1, 0)
    if length is None:
        return text[begin:]
    return text[begin : begin + int(length)]


#: Scalar functions available to queries (beyond the aggregates).
_SCALAR_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "ABS": lambda x: None if x is None else abs(x),
    "ROUND": lambda x, digits=0: None if x is None else round(x, int(digits)),
    "FLOOR": lambda x: None if x is None else math.floor(x),
    "CEIL": lambda x: None if x is None else math.ceil(x),
    "UPPER": lambda s: None if s is None else str(s).upper(),
    "LOWER": lambda s: None if s is None else str(s).lower(),
    "TRIM": lambda s: None if s is None else str(s).strip(),
    "LENGTH": lambda s: None if s is None else len(str(s)),
    "SUBSTR": lambda s, start, length=None: _substr(s, start, length),
    "COALESCE": lambda *args: next((a for a in args if a is not None), None),
    "NULLIF": lambda a, b: None if sql_equal(a, b) is True else a,
    "CONCAT": lambda *args: None if any(a is None for a in args) else "".join(str(a) for a in args),
}


def _call(name: str, fn: Callable[..., Any], *args: Any) -> Any:
    try:
        return fn(*args)
    except EvaluationError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise EvaluationError(f"error evaluating {name}: {exc}") from exc


def _hash_key(value: Any) -> Any:
    """Normalize join keys so 1, 1.0 and Decimal("1") hash to the same bucket."""
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float, Decimal)):
        return ("n", float(value))
    return ("s", value)


class _Descending:
    """The text of a descending *string* order key: ``<`` inverted, so an
    ascending comparison of keys orders the strings descending.  Numbers and
    ranks descend by negation and never meet this class (``order_key``)."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return other.__class__ is _Descending and self.value == other.value


def _subquery(executor: SubqueryExecutor, query: Node, how: str, row: Row) -> Any:
    """An uncorrelated subquery's answer, read ``how`` its expression reads it."""
    if executor is None:
        raise EvaluationError("subqueries are not supported in this evaluation context")
    relation = executor(query)
    if how == "members":
        return [member[0] for member in relation.rows]
    if how != "scalar":
        return (len(relation.rows) > 0) != (how == "not exists")
    if len(relation.rows) == 0:
        return None
    if len(relation.rows) > 1 or len(relation.schema) != 1:
        raise EvaluationError("scalar subquery must return a single value")
    return relation.rows[0][0]


#: The globals of every generated kernel: the helpers and builtins it names.
_KERNEL_GLOBALS: Dict[str, Any] = {fn.__name__: fn for fn in (
    float, str, bool, sql_equal, sort_key, _arith_slow, _negate_slow, _order_slow,
    _not_equal, _in_list, _between, _like, _call, _hash_key, _Descending,
)}


# -- the emitter

#: Nodes whose kernels already yield True/False/None, making ``predicate``'s
#: boolean conversion a no-op worth skipping.
_BOOLEAN_OPS = frozenset({"AND", "OR", "=", "<>", "<", "<=", ">", ">=", "NOT"})


def _returns_bool(node: Node) -> bool:
    if isinstance(node, (BinaryOp, UnaryOp)):
        return node.op.upper() in _BOOLEAN_OPS
    return isinstance(node, (InList, Between, Like, IsNull, Exists))


def _chain_of(node: Node) -> Optional[str]:
    """"AND"/"OR" when ``node`` is a link of such a chain."""
    op = node.op.upper() if node.__class__ is BinaryOp else None
    return op if op == "AND" or op == "OR" else None


def _chain_operands(nodes: Sequence[Node], inlined: Callable[[Node], bool]) -> List[Node]:
    """The operands of a flat AND/OR chain over ``nodes``, in evaluation order:
    ``inlined`` links are replaced by their own operands (no recursion)."""
    operands: List[Node] = []
    pending = list(reversed(nodes))
    while pending:
        node = pending.pop()
        if inlined(node):
            pending += (node.right, node.left)
        else:
            operands.append(node)
    return operands


class _Build:
    """One top-level build: the analysis its kernels share.

    :meth:`analyse` visits the trees once, bottom-up and without recursion,
    and records which subtrees are row-independent (``constant``: they fold),
    which were too tall or too big and are already compiled as kernels of
    their own (``split``), and whether a subquery occurs (``private``)."""

    def __init__(self, schema: Schema, executor: SubqueryExecutor):
        self.schema = schema
        self.executor = executor
        self.constant: set = set()
        self.split: Dict[int, CompiledExpr] = {}
        self.private = False

    def inlined(self, chain: Optional[str], child: Node) -> bool:
        """True when ``child`` continues its parent's AND/OR chain in place."""
        return (chain is not None and _chain_of(child) == chain
                and id(child) not in self.split and id(child) not in self.constant)

    def analyse(self, roots: Sequence[Node]) -> None:
        facts: Dict[int, Tuple[bool, int, int]] = {}  # id -> constant, height, size
        stack = [(root, False) for root in roots]
        while stack:
            node, expanded = stack.pop()
            if id(node) in facts:
                continue
            cls = node.__class__
            if cls is Subquery or cls is Exists or not cls.CHILD_FIELDS:
                # A leaf: nothing beneath it is lowered here (a subquery runs
                # through the scope's executor, not in this kernel).
                self.private = self.private or cls is Subquery or cls is Exists
                facts[id(node)] = (cls is Literal, 0, 0 if cls is Literal else 1)
                continue
            # Children in syntactic order, which is evaluation order.
            children = tuple(node.children())
            if not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in children)
                continue
            constant, height, size, chain = True, 0, 1, _chain_of(node)
            for child in children:
                child_constant, child_height, child_size = facts[id(child)]
                constant = constant and child_constant
                height = max(height, child_height + (not self.inlined(chain, child)))
                size += child_size
            if constant:
                self.constant.add(id(node))
            if height >= MAX_KERNEL_DEPTH or size >= MAX_KERNEL_NODES:
                self.split[id(node)] = self.kernel("expr", (node,))
                height, size = 0, 1
            facts[id(node)] = (constant, height, size)

    def kernel(self, kind: str, nodes: Sequence[Node], *detail: Hashable,
               folding: bool = False) -> CompiledExpr:
        emitter = _Emitter(self, folding)
        getattr(emitter, "kernel_" + kind)(nodes, *detail)
        params = ", ".join(f"k{index}" for index in range(len(emitter.consts)))
        source = (f"def make({params}):\n    def kernel(row):\n"
                  f"{''.join(emitter.lines)}    return kernel\n")
        return _factory(source)(*emitter.consts)


_MISSING = object()


class _Emitter:
    """Lowers the trees of one kernel to statements over SSA temporaries.

    Node methods append statements and return an *atom*: the temporary,
    factory argument or side-effect-free expression holding the value."""

    def __init__(self, build: _Build, folding: bool):
        self.build = build
        self.folding = folding  # inside a folded constant: nothing folds again
        self.lines: List[str] = []
        self.consts: List[Any] = []
        self.literals: Dict[str, Any] = {}  # atom -> value of a Literal node
        self.pad = " " * 8
        self.names = 0

    def line(self, text: str) -> None:
        self.lines.append(f"{self.pad}{text}\n")

    def indent(self, levels: int) -> None:
        self.pad = " " * (len(self.pad) + 4 * levels)

    def temp(self, prefix: str = "t") -> str:
        self.names += 1
        return f"{prefix}{self.names}"

    def const(self, value: Any) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def assign(self, expression: str, prefix: str = "t") -> str:
        out = self.temp(prefix)
        self.line(f"{out} = {expression}")
        return out

    def name(self, atom: str) -> str:
        """``atom`` as a plain name, for operands that are tested and used."""
        return atom if atom.isidentifier() else self.assign(atom)

    def classof(self, atom: str) -> str:
        return self.assign(f"{atom}.__class__", "c")

    def fold(self, fn: CompiledExpr) -> str:
        return self.assign(f"{self.const(_fold(fn))}()")

    def fail(self, error: Exception) -> str:
        """Raise ``error`` where the interpreter would; never at compile time."""
        self.line(f"raise {self.const(error)}.with_traceback(None)")
        return "None"

    def number(self, atom: str, coerce: bool) -> Tuple[Optional[str], str]:
        """(guard, operand) of ``atom`` in a numeric fast path: the guard tests
        the exact class (None for a numeric literal); with ``coerce`` the
        operand is float-coerced as ``sql_compare``/``sql_equal`` coerce."""
        value = self.literals.get(atom, _MISSING)
        if value.__class__ is float or value.__class__ is int:
            try:
                return None, self.const(float(value)) if coerce else atom
            except OverflowError:  # raised at evaluation, by the generic path
                pass
        cls = self.classof(atom)
        operand = f"({atom} if {cls} is float else float({atom}))" if coerce else atom
        return f"({cls} is float or {cls} is int)", operand

    def branches(self, out: str, cases: Sequence[Tuple[str, str]], otherwise: str) -> str:
        keyword = "if"
        for guard, expression in cases:
            self.line(f"{keyword} {guard or 'True'}: {out} = {expression}")
            keyword = "elif"
        self.line(f"else: {out} = {otherwise}" if cases else f"{out} = {otherwise}")
        return out

    def value(self, node: Node) -> str:
        build = self.build
        split = build.split.get(id(node))
        if split is not None:
            return self.assign(f"{self.const(split)}(row)")
        if id(node) in build.constant and not self.folding:
            return self.fold(build.kernel("expr", (node,), folding=True))
        emit = getattr(self, "emit_" + node.__class__.__name__, None)
        if emit is not None:
            return emit(node)
        return self.fail(EvaluationError(
            "'*' is only valid inside COUNT(*) or a select list" if node.__class__ is Star
            else f"cannot evaluate expression {node!r}"))

    def emit_Literal(self, node: Literal) -> str:
        atom = self.const(node.value)
        self.literals[atom] = node.value
        return atom

    def emit_ColumnRef(self, node: ColumnRef) -> str:
        try:
            return f"row[{self.build.schema.index_of(node.name, node.table):d}]"
        except Exception as exc:
            return self.fail(exc)

    def emit_BinaryOp(self, node: BinaryOp) -> str:
        op = node.op.upper()
        if op == "AND" or op == "OR":
            return self.chain(op, _chain_operands(
                (node.left, node.right), lambda child: self.build.inlined(op, child)))
        left, right = self.name(self.value(node.left)), self.name(self.value(node.right))
        nulls = " or ".join(f"{x} is None" for x in (left, right) if self.literals.get(x) is None)
        null_case = [(nulls, "None")] if nulls else []
        if op in _ARITHMETIC:
            (left_guard, _), (right_guard, _) = self.number(left, False), self.number(right, False)
            fast = f"{left} {op} {right}" + (f" if {right} else None" if op in "/%" else "")
            guard = " and ".join(filter(None, (left_guard, right_guard)))
            return self.branches(self.temp(), [(guard, fast)] + null_case,
                                 f"_arith_slow({op!r}, {left}, {right})")
        if op in _EQUALITY or op in _ORDERING:
            return self.comparison(op, left, right, null_case)
        if op == "||":
            return self.branches(self.temp(), null_case, f'f"{{{left}}}{{{right}}}"')
        # As interpreted: NULL for a NULL operand, else the operator is rejected.
        error = self.const(EvaluationError(f"unsupported operator {node.op!r}"))
        self.line(f"if {left} is not None and {right} is not None: "
                  f"raise {error}.with_traceback(None)")
        return "None"

    def comparison(self, op: str, left: str, right: str,
                   null_case: List[Tuple[str, str]]) -> str:
        python_op = _EQUALITY.get(op, op)
        kinds = [self.literals.get(x, _MISSING).__class__ for x in (left, right)]
        cases = []
        if str not in kinds:
            (left_guard, left_float), (right_guard, right_float) = (
                self.number(left, True), self.number(right, True))
            cases.append((" and ".join(filter(None, (left_guard, right_guard))),
                          f"{left_float} {python_op} {right_float}"))
        if int not in kinds and float not in kinds:
            # Exact strings compare as sql_compare/sql_equal compare them.
            guard = " and ".join(f"{x}.__class__ is str"
                                 for x, kind in zip((left, right), kinds) if kind is not str)
            cases.append((guard, f"{left} {python_op} {right}"))
        if op in _ORDERING:
            slow = f"_order_slow({op!r}, {left}, {right})"
        else:
            slow = f"{'sql_equal' if op == '=' else '_not_equal'}({left}, {right})"
        return self.branches(self.temp(), cases + null_case, slow)

    def chain(self, op: str, operands: Sequence[Node]) -> str:
        """A flat AND/OR chain: one block, leaving at the first decisive operand."""
        out = self.temp()
        self.line(f"{out} = {op == 'AND'}")
        self.line("while True:")
        self.indent(1)
        for operand in operands:
            x = self.name(self.value(operand))
            if op == "AND":
                self.line(f"if not {x}:")
                self.line(f"    if {x} is None: {out} = None")
                self.line(f"    else: {out} = False; break")
            else:
                self.line(f"if {x}: {out} = True; break")
                self.line(f"elif {x} is None: {out} = None")
        self.line("break")
        self.indent(-1)
        return out

    def emit_UnaryOp(self, node: UnaryOp) -> str:
        x = self.name(self.value(node.operand))
        if node.op.upper() == "NOT":
            return f"(None if {x} is None else not {x})"
        if node.op == "-":
            guard, _ = self.number(x, False)
            return self.branches(self.temp(), [(guard, f"-{x}"), (f"{x} is None", "None")],
                                 f"_negate_slow({x})")
        return self.fail(EvaluationError(f"unsupported unary operator {node.op!r}"))

    def emit_FunctionCall(self, node: FunctionCall) -> str:
        name = node.name.upper()
        fn = _SCALAR_FUNCTIONS.get(name)
        if fn is None:
            return self.fail(EvaluationError(
                f"unknown function {name!r} (aggregates are only valid with GROUP BY handling)"
            ))
        arguments = "".join(f", {self.value(arg)}" for arg in node.args)
        return self.assign(f"_call({self.const(name)}, {self.const(fn)}{arguments})")

    def emit_InList(self, node: InList) -> str:
        value = self.value(node.expr)
        items = node.items
        if len(items) == 1 and isinstance(items[0], Subquery):
            members = self.subquery(items[0].query, "members")
        elif all(item.__class__ is Literal for item in items):
            values = tuple(item.value for item in items)
            members = self.const(values)
            kind = values[0].__class__
            if (kind is int or kind is str) and all(v.__class__ is kind for v in values):
                # One exact class on both sides: ``sql_equal`` is float equality
                # of ints, plain equality of strings, and a set probe decides
                # it.  Every other probe class takes the loop.
                try:
                    probe = self.const(frozenset(map(float, values) if kind is int else values))
                except OverflowError:  # raised per row, by the loop
                    probe = None
                if probe is not None:
                    value = self.name(value)
                    key = f"float({value})" if kind is int else value
                    return self.branches(
                        self.temp(),
                        [(f"{value}.__class__ is {kind.__name__}",
                          f"{key} {'not in' if node.negated else 'in'} {probe}")],
                        f"_in_list({value}, {members}, {bool(node.negated)})")
        else:
            members = f"({''.join(self.value(item) + ', ' for item in items)})"
        return self.assign(f"_in_list({value}, {members}, {bool(node.negated)})")

    def emit_Between(self, node: Between) -> str:
        value, low, high = self.value(node.expr), self.value(node.low), self.value(node.high)
        return self.assign(f"_between({value}, {low}, {high}, {bool(node.negated)})")

    def emit_Like(self, node: Like) -> str:
        x = self.name(self.value(node.expr))
        if node.pattern.__class__ is Literal and node.pattern.value is not None:
            # A literal pattern's regex is bound, not looked up per row.
            matcher = self.const(_like_regex(str(node.pattern.value)).match)
            test = "is" if node.negated else "is not"
            return self.assign(f"None if {x} is None else {matcher}(str({x})) {test} None")
        return self.assign(f"_like({x}, {self.value(node.pattern)}, {bool(node.negated)})")

    def emit_IsNull(self, node: IsNull) -> str:
        return f"({self.value(node.expr)} is {'not ' if node.negated else ''}None)"

    def emit_Case(self, node: Case) -> str:
        """Only the taken arm is evaluated; WHENs stay flat (``break`` leaves)."""
        out = self.temp()
        self.line("while True:")
        self.indent(1)
        for condition, result in node.whens:
            self.line(f"if {self.value(condition)}:")
            self.indent(1)
            self.line(f"{out} = {self.value(result)}")
            self.line("break")
            self.indent(-1)
        self.line(f"{out} = {self.value(node.default) if node.default is not None else None}")
        self.line("break")
        self.indent(-1)
        return out

    def subquery(self, query: Node, how: str) -> str:
        """Uncorrelated (the dialect has no correlation): run at most once."""
        return self.fold(partial(_subquery, self.build.executor, query, how))

    def emit_Subquery(self, node: Subquery) -> str:
        return self.subquery(node.query, "scalar")

    def emit_Exists(self, node: Exists) -> str:
        return self.subquery(node.subquery.query, "not exists" if node.negated else "exists")

    def kernel_expr(self, nodes: Sequence[Node]) -> None:
        self.line(f"return {self.value(nodes[0])}")

    def kernel_pred(self, nodes: Sequence[Node]) -> None:
        """``nodes`` are the conjuncts of the predicate (see ``predicate``)."""
        x = self.chain("AND", nodes) if len(nodes) > 1 else self.value(nodes[0])
        if len(nodes) == 1 and not _returns_bool(nodes[0]):
            x = self.name(x)
            x = f"None if {x} is None else bool({x})"
        self.line(f"return {x}")

    def kernel_proj(self, nodes: Sequence[Node]) -> None:
        self.line(f"return ({''.join(self.value(node) + ', ' for node in nodes)})")

    def kernel_order(self, nodes: Sequence[Node],
                     keys: Sequence[Tuple[Optional[int], bool]]) -> None:
        """One flat tuple ordering rows as the whole ORDER BY does: per key
        ``types.sort_key``'s ``(rank, number, text)`` of its value — a row
        position, or the next of ``nodes`` — exact floats, ints and strings
        inline.  A descending key is ``(-rank, -number, '')``; only a
        descending *string* needs a wrapper, and gets one."""
        sources = iter(nodes)
        parts = []
        for position, ascending in keys:
            x = self.name(self.value(next(sources)) if position is None
                          else f"row[{position:d}]")
            cls = self.classof(x)
            rank, number, text = self.temp("r"), self.temp("n"), self.temp("s")
            sign = "" if ascending else "-"
            slow = f"{rank}, {number}, {text} = sort_key({x})" + (
                "" if ascending else f"; {rank} = -{rank}; {number} = -{number}")
            self.line(f"if {cls} is float:")
            self.line(f"    if {x} == {x}: {rank} = {sign}1; {number} = {sign}{x}")
            self.line(f"    else: {rank} = {sign}2; {number} = 0")
            self.line(f"    {text} = ''")
            self.line(f"elif {cls} is int:")
            self.line(f"    try: {rank} = {sign}1; {number} = {sign}float({x}); {text} = ''")
            self.line(f"    except OverflowError: {slow}")
            if ascending:
                self.line(f"elif {cls} is str: {rank} = 3; {number} = 0; {text} = {x}")
                self.line(f"else: {slow}")
            else:
                self.line("else:")
                self.line(f"    if {cls} is str: {rank} = -3; {number} = 0; {text} = {x}")
                self.line(f"    else: {slow}")
                self.line(f"    if {rank} == -3: {text} = _Descending({text})")
            parts += (rank, number, text)
        self.line(f"return ({''.join(part + ', ' for part in parts)})")

    def kernel_key(self, nodes: Sequence[Node]) -> None:
        """``(_hash_key(v), ...)`` over the key parts, None at the first NULL."""
        parts = []
        for node in nodes:
            x = self.name(self.value(node))
            cls, part = self.classof(x), self.temp("h")
            self.line(f"if {cls} is float or {cls} is int: {part} = ('n', float({x}))")
            self.line(f"elif {cls} is str: {part} = ('s', {x})")
            self.line(f"elif {x} is None: return None")
            self.line(f"else: {part} = _hash_key({x})")
            parts.append(part)
        self.line(f"return ({''.join(part + ', ' for part in parts)})")


class ExpressionCompiler:
    """Compiles expressions of a fixed schema into ``row -> value`` kernels.

    Mirrors the public surface of the reference interpreter: ``compile``
    replaces ``evaluate`` (returning a function instead of a value) and
    ``predicate`` yields the three-valued True/False/None convention used by
    Filter and the join operators.
    """

    def __init__(self, schema: Schema, subquery_executor: SubqueryExecutor = None,
                 scope: Optional["KernelScope"] = None):
        self.schema = schema
        self._scope = scope or KernelScope(subquery_executor)

    def _kernel(self, kind: str, nodes: Tuple[Node, ...], *detail: Hashable) -> Any:
        """Recall-or-build the kernel of ``nodes`` (and whatever else of
        ``detail`` its entry point lowers) against this schema.

        Two lookups: the scope's own memo by node identity (a plan lowering
        its own trees again), then the process-wide table by structure —
        whoever compiled the same expressions over the same schema, in
        whatever statement, left the kernel there.  A subquery's result is
        folded into its kernel, binding it to this scope's executor and
        lifetime: such a kernel is kept nowhere, rebuilt each time, and the
        scope is told it holds ``private`` kernels."""
        token = self.schema.memo_token
        front = self._scope.memo
        if front is not None:
            identity = (kind, detail, tuple(map(id, nodes)), token)
            fn = front.get(identity, nodes)
            if fn is not None:
                return fn
        structure = (kind, detail, tuple(map(expression_form, nodes)), token)
        fn = _MEMO.get(structure)
        if fn is None:
            fn, private = self._generate(kind, nodes, detail)
            if private:
                self._scope.private = True
                return fn
            fn = _MEMO.put(structure, (), fn)[0]
        if front is not None:
            front.put(identity, nodes, fn)
        return fn

    def _generate(self, kind: str, nodes: Tuple[Node, ...],
                  detail: Tuple[Hashable, ...]) -> Tuple[Any, bool]:
        """A new kernel, and whether it folded a subquery (is private)."""
        if (kind == "proj" and len(nodes) > 1
                and all(node.__class__ is ColumnRef for node in nodes)):
            # Plain columns: itemgetter builds the tuple without entering
            # Python at all.  An unknown column raises per row, from a kernel.
            try:
                return operator.itemgetter(*[
                    self.schema.index_of(node.name, node.table) for node in nodes
                ]), False
            except Exception:
                pass
        build = _Build(self.schema, self._scope.subquery_executor)
        build.analyse(nodes)
        return build.kernel(kind, nodes, *detail), build.private

    def compile(self, node: Node) -> CompiledExpr:
        return self._kernel("expr", (node,))

    def predicate(self, node: Node) -> Callable[[Row], Optional[bool]]:
        # Keyed by its conjuncts: executors conjoin the same cached conditions
        # into a fresh AND node per execution, which must still hit the memo.
        return self._kernel("pred", tuple(_chain_operands(
            (node,), lambda child: _chain_of(child) == "AND")))

    def projection(self, expressions: Sequence[Node]) -> Callable[[Row], tuple]:
        """Compile a list of output expressions into one ``row -> tuple``."""
        return self._kernel("proj", tuple(expressions))

    def order_key(self, keys: Sequence[Tuple[Union[Node, int], bool]],
                  ) -> Callable[[Row], tuple]:
        """Compile a whole ORDER BY — ``(source, ascending)`` keys, a source
        an expression or an ``int`` position of the row — to one ``row ->
        flat tuple``: ``list.sort``, ``heapq.merge`` and ``heapq.nsmallest``
        by it order rows as the stable per-key cascade over
        :func:`types.sort_key` does (last key first, ``reverse`` for a
        descending one)."""
        return self._kernel(
            "order",
            tuple(source for source, _ascending in keys if source.__class__ is not int),
            tuple((source if source.__class__ is int else None, bool(ascending))
                  for source, ascending in keys))

    def bucket_key(self, expressions: Sequence[Node]) -> Callable[[Row], Optional[tuple]]:
        """Compile (composite) join key expressions to one ``row -> key``: the
        tuple of the parts normalized as :func:`_hash_key` normalizes them, or
        None when a part is NULL (SQL equality with NULL is never true)."""
        return self._kernel("key", tuple(expressions))


class KernelScope:
    """Where a group of operators gets its kernels from.

    Every scope recalls from and contributes to the process-wide structural
    table :data:`_MEMO`.  A plan's template brings a :class:`KernelMemo` of
    its own in front of it, keyed by node identity: kernels found once are
    found again without serializing a tree, for exactly as long as the
    template lives.  The default scope — a source's local processor — has no
    front.  ``private`` turns true once a kernel folded a subquery: operators
    holding one must not outlive their execution.
    """

    def __init__(self, subquery_executor: SubqueryExecutor = None,
                 memo: Optional[KernelMemo] = None):
        self.subquery_executor = subquery_executor
        self.memo = memo
        self.private = False


# -- convenience wrappers


def compile_expression(node: Node, schema: Schema,
                       subquery_executor: SubqueryExecutor = None) -> CompiledExpr:
    """Compile one expression against a schema."""
    return ExpressionCompiler(schema, subquery_executor).compile(node)


def compile_predicate(node: Node, schema: Schema, subquery_executor: SubqueryExecutor = None,
                      ) -> Callable[[Row], Optional[bool]]:
    """Compile a row predicate returning True/False/None (SQL 3VL)."""
    return ExpressionCompiler(schema, subquery_executor).predicate(node)


def compile_projection(expressions: Sequence[Node], schema: Schema,
                       subquery_executor: SubqueryExecutor = None) -> Callable[[Row], tuple]:
    """Compile a select list into a single ``row -> tuple`` function."""
    return ExpressionCompiler(schema, subquery_executor).projection(expressions)


#: An INSERT's values are evaluated over no columns, once: their kernels are
#: built past every memo, not worth keeping.
_NO_COLUMNS = Schema(())


def evaluate_literal_expression(node: Node) -> Any:
    """Evaluate an expression containing no column references (e.g. INSERT values)."""
    if node.__class__ is Literal:
        return node.value
    build = _Build(_NO_COLUMNS, None)
    build.analyse((node,))
    return build.kernel("expr", (node,))(())
