"""In-memory relations (tables / query results).

A :class:`Relation` couples a :class:`~repro.relational.schema.Schema` with a
list of tuples.  It is the unit of data exchange across the whole prototype:
wrappers return relations, the multi-database engine joins them, the mediator
post-processes them into the receiver's context, and the server serializes
them back to clients.

The methods on Relation implement the classic relational algebra directly on
materialized data.  They are deliberately simple — the capability-aware,
cost-based processing lives in :mod:`repro.engine`; Relation's own operators
exist so that small/local operations (and tests) do not need a full plan.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType, sort_key

Row = Tuple[Any, ...]


class Relation:
    """A schema plus a list of rows."""

    #: The stored, never-mutated relation these rows were copied or staged
    #: from (a source-result cache entry), when there is one: what one plan
    #: template stages from the same origin is row for row the same.
    origin: Optional["Relation"] = None

    def __init__(self, schema: Schema, rows: Optional[Iterable[Sequence[Any]]] = None,
                 name: Optional[str] = None, validate: bool = True):
        self.schema = schema
        self.name = name
        self.rows: List[Row] = []
        if rows is not None:
            for row in rows:
                self.append(row, validate=validate)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dicts(cls, schema: Schema, records: Iterable[Dict[str, Any]],
                   name: Optional[str] = None) -> "Relation":
        """Build a relation from dictionaries keyed by attribute name."""
        relation = cls(schema, name=name)
        for record in records:
            row = [record.get(attribute.name) for attribute in schema]
            relation.append(row)
        return relation

    @classmethod
    def empty_like(cls, other: "Relation") -> "Relation":
        return cls(other.schema, name=other.name)

    # -- container behaviour --------------------------------------------------

    def append(self, row: Sequence[Any], validate: bool = True) -> None:
        """Append a row, coercing values to the declared attribute types."""
        self.rows.append(self.schema.validate_row(row) if validate else tuple(row))

    def extend(self, rows: Iterable[Sequence[Any]], validate: bool = True) -> None:
        for row in rows:
            self.append(row, validate=validate)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> Row:
        return self.rows[index]

    def __eq__(self, other: object) -> bool:
        """Relations are equal when schemas match (names/types) and rows match as bags."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.names != other.schema.names:
            return False
        return sorted(self.rows, key=lambda r: tuple(map(sort_key, r))) == sorted(
            other.rows, key=lambda r: tuple(map(sort_key, r))
        )

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable
        raise TypeError("Relation is not hashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "relation"
        return f"<Relation {label} ({len(self.rows)} rows, {len(self.schema)} cols)>"

    # -- dict/record views ---------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Rows as dictionaries keyed by unqualified attribute names."""
        return [dict(zip(self.schema.names, row)) for row in self.rows]

    def column(self, name: str, qualifier: Optional[str] = None) -> List[Any]:
        """All values of one column, in row order."""
        position = self.schema.index_of(name, qualifier)
        return [row[position] for row in self.rows]

    # -- relational algebra ---------------------------------------------------

    def select(self, predicate: Callable[[Row], Optional[bool]]) -> "Relation":
        """Keep rows for which the predicate is definitely true (SQL semantics)."""
        result = Relation(self.schema, name=self.name)
        result.rows = [row for row in self.rows if predicate(row) is True]
        return result

    def project(self, names: Sequence[str]) -> "Relation":
        """Project onto the given attribute names (possibly qualified)."""
        positions = []
        for name in names:
            qualifier, _, bare = name.rpartition(".")
            positions.append(self.schema.index_of(bare, qualifier or None))
        schema = self.schema.project(positions)
        result = Relation(schema, name=self.name)
        result.rows = [tuple(row[position] for position in positions) for row in self.rows]
        return result

    def rename(self, names: Sequence[str]) -> "Relation":
        """Rename attributes positionally."""
        result = Relation(self.schema.rename(names), name=self.name)
        result.rows = list(self.rows)
        return result

    def with_qualifier(self, qualifier: Optional[str]) -> "Relation":
        """Re-qualify the schema (rows are shared, not copied)."""
        result = Relation(self.schema.with_qualifier(qualifier), name=self.name)
        result.rows = self.rows
        return result

    def distinct(self) -> "Relation":
        result = Relation(self.schema, name=self.name)
        seen = set()
        for row in self.rows:
            key = tuple(row)
            if key not in seen:
                seen.add(key)
                result.rows.append(row)
        return result

    def union(self, other: "Relation", all: bool = False) -> "Relation":
        """Union by position; schemas must have the same arity."""
        if len(self.schema) != len(other.schema):
            raise SchemaError("UNION requires relations of the same arity")
        result = Relation(self.schema, name=self.name)
        result.rows = list(self.rows) + list(other.rows)
        return result if all else result.distinct()

    def cross_join(self, other: "Relation") -> "Relation":
        schema = self.schema.concat(other.schema)
        result = Relation(schema)
        result.rows = [left + right for left in self.rows for right in other.rows]
        return result

    def join(self, other: "Relation",
             predicate: Callable[[Row], Optional[bool]]) -> "Relation":
        """Nested-loop theta join; the predicate sees concatenated rows."""
        schema = self.schema.concat(other.schema)
        result = Relation(schema)
        for left in self.rows:
            for right in other.rows:
                combined = left + right
                if predicate(combined) is True:
                    result.rows.append(combined)
        return result

    def equi_join(self, other: "Relation", left_on: str, right_on: str) -> "Relation":
        """Hash equi-join on one attribute from each side."""
        left_position = self._resolve(left_on)
        right_position = other._resolve(right_on)
        buckets: Dict[Any, List[Row]] = {}
        for row in other.rows:
            key = row[right_position]
            if key is not None:
                buckets.setdefault(key, []).append(row)
        schema = self.schema.concat(other.schema)
        result = Relation(schema)
        for left in self.rows:
            key = left[left_position]
            if key is None:
                continue
            for right in buckets.get(key, []):
                result.rows.append(left + right)
        return result

    def order_by(self, names: Sequence[str], ascending: Optional[Sequence[bool]] = None) -> "Relation":
        positions = [self._resolve(name) for name in names]
        directions = list(ascending) if ascending is not None else [True] * len(positions)
        result = Relation(self.schema, name=self.name)
        result.rows = list(self.rows)
        # Stable sort from the least-significant key to the most significant.
        for position, asc in reversed(list(zip(positions, directions))):
            result.rows.sort(key=lambda row: sort_key(row[position]), reverse=not asc)
        return result

    def limit(self, count: Optional[int], offset: int = 0) -> "Relation":
        result = Relation(self.schema, name=self.name)
        end = None if count is None else offset + count
        result.rows = self.rows[offset:end]
        return result

    # -- helpers -------------------------------------------------------------

    def _resolve(self, name: str) -> int:
        qualifier, _, bare = name.rpartition(".")
        return self.schema.index_of(bare, qualifier or None)

    def to_ascii_table(self, max_rows: int = 20) -> str:
        """Render the relation as a fixed-width text table (for demos/logs)."""
        headers = self.schema.qualified_names
        shown = self.rows[:max_rows]
        cells = [[_format_cell(value) for value in row] for row in shown]
        widths = [len(header) for header in headers]
        for row in cells:
            for index, text in enumerate(row):
                widths[index] = max(widths[index], len(text))
        lines = []
        border = "+" + "+".join("-" * (width + 2) for width in widths) + "+"
        lines.append(border)
        lines.append(
            "|" + "|".join(f" {header.ljust(width)} " for header, width in zip(headers, widths)) + "|"
        )
        lines.append(border)
        for row in cells:
            lines.append(
                "|" + "|".join(f" {text.ljust(width)} " for text, width in zip(row, widths)) + "|"
            )
        lines.append(border)
        if len(self.rows) > max_rows:
            lines.append(f"... {len(self.rows) - max_rows} more rows")
        return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def relation_from_rows(name: str, attribute_specs: Sequence[str],
                       rows: Iterable[Sequence[Any]], qualifier: Optional[str] = None) -> Relation:
    """Convenience constructor used throughout the demo datasets and tests.

    ``attribute_specs`` are ``"name:type"`` strings as accepted by
    :meth:`Schema.of`; ``qualifier`` defaults to the relation name.
    """
    schema = Schema.of(*attribute_specs, qualifier=qualifier if qualifier is not None else name)
    return Relation(schema, rows=rows, name=name)
