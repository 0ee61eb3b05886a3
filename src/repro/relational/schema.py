"""Relation schemas: ordered, typed attribute lists with name resolution.

A :class:`Schema` is an immutable ordered collection of :class:`Attribute`
objects.  Attributes may carry a *qualifier* — the table binding (alias) the
attribute belongs to — which is how the executor resolves references such as
``r1.revenue`` after a join has concatenated several source schemas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.types import DataType
from repro.sql.ast import (
    Between, BinaryOp, Case, ColumnRef, Exists, FunctionCall, InList, IsNull, Like, Literal,
    Node, UnaryOp,
)


@dataclass(frozen=True)
class Attribute:
    """A named, typed column, optionally qualified by its table binding."""

    name: str
    type: DataType = DataType.ANY
    qualifier: Optional[str] = None

    @property
    def qualified_name(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def with_qualifier(self, qualifier: Optional[str]) -> "Attribute":
        """Return a copy bound to a (possibly different) table binding."""
        return replace(self, qualifier=qualifier)

    def matches(self, name: str, qualifier: Optional[str] = None) -> bool:
        """Case-insensitive match on name and (when given) qualifier."""
        if self.name.lower() != name.lower():
            return False
        if qualifier is None:
            return True
        return (self.qualifier or "").lower() == qualifier.lower()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.qualified_name}:{self.type.value}"


#: The class a value of each declared type has once validated.
_EXACT_CLASS = {DataType.INTEGER: int, DataType.FLOAT: float,
                DataType.STRING: str, DataType.BOOLEAN: bool}


class Schema:
    """An ordered list of attributes with index/lookup helpers."""

    def __init__(self, attributes: Iterable[Attribute]):
        self.attributes: Tuple[Attribute, ...] = tuple(attributes)
        self._index: Dict[str, List[int]] = {}
        for position, attribute in enumerate(self.attributes):
            self._index.setdefault(attribute.name.lower(), []).append(position)
        # Lazily built caches; schemas are immutable, so derived schemas and
        # the memo token can be computed once and shared (the executor's warm
        # path re-derives the same schemas for every execution of a plan).
        # The derivation memo is bounded: long-lived catalog schemas see one
        # entry per distinct alias/join partner, which clients control.
        self._token: Optional[tuple] = None
        self._derived: Dict[object, object] = {}
        self._validators: Optional[Tuple[tuple, ...]] = None

    #: Bound on per-schema derivation memo entries (oldest evicted first).
    DERIVED_CACHE_SIZE = 128

    def _remember_derived(self, key: object, value: object) -> None:
        # Lock-free on purpose (schemas are constructed on hot paths, so no
        # per-instance lock): dict get/set are atomic under the GIL, and the
        # eviction pop tolerates losing a race — dropping a memo entry only
        # costs a recomputation, never correctness.
        derived = self._derived
        while len(derived) >= self.DERIVED_CACHE_SIZE:
            try:
                derived.pop(next(iter(derived)))
            except (KeyError, StopIteration, RuntimeError):
                break
        derived[key] = value

    @property
    def memo_token(self) -> tuple:
        """A cheap-to-hash structural identity (plain nested tuples).

        Used as the schema component of compiled-closure memo keys: hashing
        primitive tuples is several times cheaper than re-hashing dataclass
        attributes on every operator construction.
        """
        token = self._token
        if token is None:
            token = tuple(
                (a.name, a.type.value, a.qualifier) for a in self.attributes
            )
            self._token = token
        return token

    # -- constructors -------------------------------------------------------

    @classmethod
    def of(cls, *specs: str, qualifier: Optional[str] = None) -> "Schema":
        """Build a schema from ``"name:type"`` strings (type defaults to ANY).

        >>> Schema.of("cname:string", "revenue:integer", qualifier="r1")
        """
        attributes = []
        for spec in specs:
            name, _, type_name = spec.partition(":")
            data_type = DataType.from_name(type_name) if type_name else DataType.ANY
            attributes.append(Attribute(name=name, type=data_type, qualifier=qualifier))
        return cls(attributes)

    # -- basic container behaviour -------------------------------------------

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __getitem__(self, index: int) -> Attribute:
        return self.attributes[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash(self.attributes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema({', '.join(str(a) for a in self.attributes)})"

    # -- lookups ------------------------------------------------------------

    @property
    def names(self) -> List[str]:
        return [attribute.name for attribute in self.attributes]

    @property
    def qualified_names(self) -> List[str]:
        return [attribute.qualified_name for attribute in self.attributes]

    def index_of(self, name: str, qualifier: Optional[str] = None) -> int:
        """Resolve an attribute reference to its position.

        Resolution is case-insensitive.  An unqualified name that matches
        attributes under several qualifiers is ambiguous and raises
        :class:`SchemaError`, mirroring SQL semantics.
        """
        candidates = self._index.get(name.lower(), [])
        if qualifier is not None:
            matches = [
                position
                for position in candidates
                if (self.attributes[position].qualifier or "").lower() == qualifier.lower()
            ]
        else:
            matches = list(candidates)
        if not matches:
            raise SchemaError(f"unknown attribute {qualifier + '.' if qualifier else ''}{name}")
        if len(matches) > 1:
            raise SchemaError(f"ambiguous attribute reference {name!r}")
        return matches[0]

    def attribute(self, name: str, qualifier: Optional[str] = None) -> Attribute:
        return self.attributes[self.index_of(name, qualifier)]

    def has(self, name: str, qualifier: Optional[str] = None) -> bool:
        try:
            self.index_of(name, qualifier)
            return True
        except SchemaError:
            return False

    # -- derivations --------------------------------------------------------

    def with_qualifier(self, qualifier: Optional[str]) -> "Schema":
        """Re-qualify every attribute (used when a table is aliased).

        Memoized per qualifier: staging the same fetched relation under the
        same binding on every execution of a cached plan yields the *same*
        schema object, keeping downstream identity-based memos warm.
        """
        key = ("qualify", qualifier)
        derived = self._derived.get(key)
        if derived is None:
            derived = Schema(
                attribute.with_qualifier(qualifier) for attribute in self.attributes
            )
            self._remember_derived(key, derived)
        return derived

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (the schema of a join result).

        Memoized per right-hand schema **by value** (its :attr:`memo_token`;
        the result depends on nothing else): an entry pins no operand, and
        the equal schemas successive plans stage share one."""
        key = ("concat", other.memo_token)
        derived = self._derived.get(key)
        if derived is None:
            derived = Schema(self.attributes + other.attributes)
            self._remember_derived(key, derived)
        return derived

    def extended(self, attributes: Tuple[Attribute, ...]) -> "Schema":
        """This schema followed by ``attributes`` (the columns an operator
        appends to its input's).  Memoized per attribute tuple, by value."""
        key = ("extend", attributes)
        derived = self._derived.get(key)
        if derived is None:
            derived = Schema(self.attributes + attributes)
            self._remember_derived(key, derived)
        return derived

    def project(self, positions: Sequence[int]) -> "Schema":
        """Schema of a projection given attribute positions."""
        try:
            return Schema(self.attributes[position] for position in positions)
        except IndexError as exc:
            raise SchemaError(f"projection position out of range: {positions}") from exc

    def rename(self, names: Sequence[str]) -> "Schema":
        """Return a schema with the same types but new names (and no qualifiers)."""
        if len(names) != len(self.attributes):
            raise SchemaError(
                f"rename expects {len(self.attributes)} names, got {len(names)}"
            )
        return Schema(
            Attribute(name=name, type=attribute.type, qualifier=None)
            for name, attribute in zip(names, self.attributes)
        )

    def validate_row(self, row: Sequence) -> Tuple:
        """Type-check and coerce a row against this schema.

        NULLs, ``ANY`` columns and values whose exact class is already the
        declared type's pass through; everything else — subclasses (``bool``
        for an integer), strings to parse — takes :meth:`DataType.validate`."""
        validators = self._validators
        if validators is None:
            validators = self._validators = tuple(
                (_EXACT_CLASS.get(attribute.type),
                 None if attribute.type is DataType.ANY else attribute.type.validate)
                for attribute in self.attributes
            )
        if len(row) != len(validators):
            raise SchemaError(
                f"row arity {len(row)} does not match schema arity {len(self.attributes)}"
            )
        return tuple([
            value if value is None or value.__class__ is exact or validate is None
            else validate(value)
            for value, (exact, validate) in zip(row, validators)
        ])


def expression_type(node: Node, schema: Schema) -> DataType:
    """Best-effort static type of an expression (used to build result schemas)."""
    if isinstance(node, Literal):
        return DataType.infer(node.value)
    if isinstance(node, ColumnRef):
        try:
            return schema.attribute(node.name, node.table).type
        except Exception:
            return DataType.ANY
    if isinstance(node, BinaryOp):
        op = node.op.upper()
        if op in ("AND", "OR", "=", "<>", "<", "<=", ">", ">="):
            return DataType.BOOLEAN
        if op == "||":
            return DataType.STRING
        left = expression_type(node.left, schema)
        right = expression_type(node.right, schema)
        if op == "/":
            return DataType.FLOAT
        return left.unify(right)
    if isinstance(node, UnaryOp):
        if node.op.upper() == "NOT":
            return DataType.BOOLEAN
        return expression_type(node.operand, schema)
    if isinstance(node, FunctionCall):
        name = node.name.upper()
        if name in ("COUNT", "LENGTH"):
            return DataType.INTEGER
        if name in ("SUM", "AVG", "ROUND", "ABS", "FLOOR", "CEIL"):
            return DataType.FLOAT
        if name in ("UPPER", "LOWER", "TRIM", "SUBSTR", "CONCAT"):
            return DataType.STRING
        return DataType.ANY
    if isinstance(node, (InList, Between, Like, IsNull, Exists)):
        return DataType.BOOLEAN
    if isinstance(node, Case):
        # A NULL branch takes any type; a branch of unknown type may hold any
        # value, so the CASE may too (a join on it must not hash).
        values = [value for _, value in node.whens] + [node.default]
        types = [expression_type(value, schema) for value in values
                 if value is not None and not (isinstance(value, Literal) and value.value is None)]
        if not types or DataType.ANY in types:
            return DataType.ANY
        result = types[0]
        for candidate in types[1:]:
            result = result.unify(candidate)
        return result
    return DataType.ANY
