"""In-memory relations (tables / query results).

A :class:`Relation` couples a :class:`~repro.relational.schema.Schema` with a
list of tuples.  It is the unit of data exchange across the whole prototype:
wrappers return relations, the multi-database engine joins them, the mediator
post-processes them into the receiver's context, and the server serializes
them back to clients.

A Relation computes nothing itself: selections, joins, unions and limits
are physical operators (:mod:`repro.relational.operators`), which the engine's
plans and the local SQL processor both lower to.  What is left here are
views of the stored rows — records, a column, a projection by name — and
``order_by`` / ``sorted_on``, the plain stable sort examples and tests compare
the ORDER BY kernels with, and repair enumeration sorts its union with.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.relational.schema import Schema
from repro.relational.types import sort_key

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

    def order_by(self, names: Sequence[str], ascending: Optional[Sequence[bool]] = None) -> "Relation":
        positions = [self._resolve(name) for name in names]
        directions = list(ascending) if ascending is not None else [True] * len(positions)
        return self.sorted_on(list(zip(positions, directions)))

    def sorted_on(self, keys: Sequence[Tuple[int, bool]]) -> "Relation":
        """A copy stably sorted on ``(position, ascending)`` keys, the most
        significant first, as :func:`sort_key` orders values."""
        result = Relation(self.schema, name=self.name)
        result.rows = list(self.rows)
        # Stable sort from the least-significant key to the most significant.
        for position, asc in reversed(keys):
            result.rows.sort(key=lambda row: sort_key(row[position]), reverse=not asc)
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
