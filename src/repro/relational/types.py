"""Value types and SQL-style three-valued comparison semantics.

The prototype moves data between very different substrates — relational
sources, regex-extracted web pages, conversion arithmetic inserted by the
mediator — so a small, predictable type system matters more than a rich one.
Four scalar types are supported (integers, floats, strings, booleans) plus
NULL.  Comparison and arithmetic follow SQL semantics: any operation on NULL
yields NULL, and predicates treat NULL as "unknown" (rows are only kept when
the predicate is definitely true).
"""

from __future__ import annotations

import enum
from decimal import Decimal as _Decimal
from typing import Any, Optional

from repro.errors import TypeMismatchError


class DataType(enum.Enum):
    """Declared type of an attribute."""

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    BOOLEAN = "boolean"
    #: ``ANY`` is used for computed columns whose type is unknown statically.
    ANY = "any"

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Map a SQL-ish type name (``int``, ``varchar``, ``number``...) to a DataType."""
        normalized = name.strip().lower()
        aliases = {
            "int": cls.INTEGER,
            "integer": cls.INTEGER,
            "bigint": cls.INTEGER,
            "smallint": cls.INTEGER,
            "number": cls.FLOAT,
            "numeric": cls.FLOAT,
            "decimal": cls.FLOAT,
            "float": cls.FLOAT,
            "double": cls.FLOAT,
            "real": cls.FLOAT,
            "char": cls.STRING,
            "varchar": cls.STRING,
            "varchar2": cls.STRING,
            "text": cls.STRING,
            "string": cls.STRING,
            "bool": cls.BOOLEAN,
            "boolean": cls.BOOLEAN,
            "any": cls.ANY,
        }
        try:
            return aliases[normalized]
        except KeyError as exc:
            raise TypeMismatchError(f"unknown type name {name!r}") from exc

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` into this type (NULL passes through), or raise."""
        if value is None:
            return None
        if self is DataType.ANY:
            return value
        if self is DataType.INTEGER:
            if isinstance(value, bool):
                raise TypeMismatchError(f"boolean {value!r} is not an integer")
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, str):
                try:
                    return int(value.replace(",", "").strip())
                except ValueError:
                    pass
            raise TypeMismatchError(f"{value!r} is not an integer")
        if self is DataType.FLOAT:
            if isinstance(value, bool):
                raise TypeMismatchError(f"boolean {value!r} is not a number")
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                try:
                    return float(value.replace(",", "").strip())
                except ValueError:
                    pass
            raise TypeMismatchError(f"{value!r} is not a number")
        if self is DataType.STRING:
            if isinstance(value, str):
                return value
            return str(value)
        if self is DataType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)) and value in (0, 1):
                return bool(value)
            if isinstance(value, str) and value.lower() in ("true", "false"):
                return value.lower() == "true"
            raise TypeMismatchError(f"{value!r} is not a boolean")
        raise TypeMismatchError(f"unsupported type {self!r}")  # pragma: no cover

    @classmethod
    def infer(cls, value: Any) -> "DataType":
        """Infer the type of a Python value."""
        if value is None:
            return cls.ANY
        if isinstance(value, bool):
            return cls.BOOLEAN
        if isinstance(value, int):
            return cls.INTEGER
        if isinstance(value, float):
            return cls.FLOAT
        if isinstance(value, str):
            return cls.STRING
        return cls.ANY

    def unify(self, other: "DataType") -> "DataType":
        """The most specific type covering both (INTEGER ∪ FLOAT = FLOAT, else ANY)."""
        if self is other:
            return self
        if self is DataType.ANY:
            return other
        if other is DataType.ANY:
            return self
        numeric = {DataType.INTEGER, DataType.FLOAT}
        if self in numeric and other in numeric:
            return DataType.FLOAT
        return DataType.ANY


# ---------------------------------------------------------------------------
# Three-valued comparison helpers
# ---------------------------------------------------------------------------


def is_null(value: Any) -> bool:
    """True when the value is SQL NULL."""
    return value is None


def sql_equal(left: Any, right: Any) -> Optional[bool]:
    """SQL equality: NULL operands yield NULL (None)."""
    if left is None or right is None:
        return None
    if isinstance(left, bool) or isinstance(right, bool):
        return bool(left) == bool(right)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right


def may_hash(data_type: DataType) -> bool:
    """Whether an equi-join key of declared type ``data_type`` may be hashed.

    A hash join puts SQL-equal keys in one bucket only if bucket equality
    covers :func:`sql_equal`.  INTEGER, FLOAT and STRING values bucket by
    number or exact text, as they compare.  BOOLEAN keys do not: a boolean
    equals *any* number of its truth value (``TRUE = 2``), which no bucket
    can hold.  ANY keys may hold booleans.  Such keys stay in a nested loop.
    This is the only place the choice is made: the planner and the local
    processor both ask it."""
    return data_type in (DataType.INTEGER, DataType.FLOAT, DataType.STRING)


#: What :func:`sql_compare` answers for a NaN operand.
_UNORDERED = float("nan")
_INFINITY = float("inf")


def sql_compare(left: Any, right: Any) -> Optional[int]:
    """Three-way comparison: -1/0/+1, or None when either operand is NULL.

    Mixed numeric comparisons are allowed; comparing a number with a string
    raises :class:`TypeMismatchError` (the engine treats that as a query
    error rather than silently ordering heterogeneous values).

    A NaN operand is *unordered* (IEEE 754): the result is then NaN itself,
    so each of ``result < 0``, ``<= 0``, ``> 0`` and ``>= 0`` — the way every
    caller reads a three-way result — is false, exactly like the direct float
    comparison the compiled fast path performs.  This is the one place that
    rule lives.
    """
    if left is None or right is None:
        return None
    if isinstance(left, bool) and isinstance(right, bool):
        left, right = int(left), int(right)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        left, right = float(left), float(right)
        if left < right:
            return -1
        if left > right:
            return 1
        return 0 if left == right else _UNORDERED
    if isinstance(left, str) and isinstance(right, str):
        if left < right:
            return -1
        if left > right:
            return 1
        return 0
    raise TypeMismatchError(f"cannot compare {left!r} with {right!r}")


def sort_key(value: Any) -> tuple:
    """A total-order key for ORDER BY, as ``(rank, number, text)``: NULLs
    first, then every number, then NaN, then strings.

    This is the one definition of the order; the generated order key
    (``ExpressionCompiler.order_key``) inlines the same rule for exact
    classes.  NaN compares false with everything, so it cannot share the
    numbers' rank without unsorting the rows around it: it has a rank of its
    own, after every number (``inf`` included), all NaNs equal.  An ``int``
    past the floats orders as the infinity of its sign.
    """
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, int(value), "")
    if isinstance(value, (int, float, _Decimal)):
        try:
            number = float(value)
        except OverflowError:
            number = _INFINITY if value > 0 else -_INFINITY
        return (1, number, "") if number == number else (2, 0, "")
    return (3, 0, str(value))
