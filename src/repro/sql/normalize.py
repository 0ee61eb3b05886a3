"""Canonical statement forms and fingerprints for query-lifecycle caching.

The query pipeline memoizes mediation results and execution plans per
*statement* (see :mod:`repro.pipeline`).
Raw SQL text is a poor cache key — ``select r1.revenue from r1`` and
``SELECT r1.revenue FROM r1`` are the same query — so cache keys are built
from the **parsed AST**, which already discards whitespace, keyword case and
comment noise.  This module turns an AST into:

* :func:`canonical_form` — a stable structural serialization.  Table names,
  bindings and column qualifiers are case-folded (the catalog and schema
  lookups are case-insensitive throughout), while column *names* keep their
  case because they determine the output schema.  Conjunct order is **kept**:
  ``a AND b`` short-circuits left-to-right, so swapping conjuncts can change
  *which* evaluation error a row surfaces — sharing one cache entry between
  the two orderings would make errors depend on cache warmth.
* :func:`statement_fingerprint` — the SHA-256 digest of the canonical form,
  the fixed-size key the mediation and plan caches store.
* :func:`expression_form` — the same serialization of one expression: the
  structural identity generated kernels are shared under
  (:mod:`repro.relational.compile`).  One notion of "the same tree", not two.

Only SELECT/UNION statements are fingerprinted (they are all the pipeline
caches); other statements raise.
"""

from __future__ import annotations

import hashlib
from typing import Any, List

from repro.errors import SQLUnsupportedError
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Literal,
    Node,
    Select,
    Star,
    TableRef,
    Union,
)


def _fold(identifier: Any) -> Any:
    return identifier.lower() if isinstance(identifier, str) else identifier


def _serialize(value: Any, parts: List[str]) -> None:
    """Append a canonical token stream for ``value`` to ``parts``."""
    cls = value.__class__
    if cls is ColumnRef:
        # The qualifier is a table binding (case-insensitive); the name decides
        # the output column label and keeps its case.
        parts.append(f"ColumnRef({value.name},{_fold(value.table)})")
    elif cls is BinaryOp:
        parts.append(f"BinaryOp({value.op.upper()}")
        _serialize(value.left, parts)
        _serialize(value.right, parts)
        parts.append(")")
    elif cls is Literal:
        # repr keeps 1, 1.0, '1' and True distinct, which SQL semantics
        # require (and -0.0 from 0.0, Decimal('1.0') from Decimal('1.00')).
        parts.append(f"Literal({value.value!r})")
    elif cls is Select:
        _serialize_select(value, parts)
    elif cls is Union:
        parts.append("Union(")
        parts.append("all" if value.all else "distinct")
        for select in value.selects:
            _serialize_select(select, parts)
        parts.append(")")
    elif cls is TableRef:
        parts.append(
            f"TableRef({_fold(value.name)},{_fold(value.alias)},{_fold(value.source)})"
        )
    elif cls is Star:
        parts.append(f"Star({_fold(value.table)})")
    elif isinstance(value, Node):
        parts.append(f"{cls.__name__}(")
        for name in value.FIELDS:
            _serialize(getattr(value, name), parts)
        parts.append(")")
    elif cls is tuple or cls is list:
        parts.append("[")
        for item in value:
            _serialize(item, parts)
        parts.append("]")
    else:
        # Scalar fields, by repr for the reason literals are.
        parts.append(repr(value))


def _serialize_select(select: Select, parts: List[str]) -> None:
    parts.append("Select(")
    _serialize(select.items, parts)
    _serialize(select.tables, parts)
    _serialize(select.where, parts)
    _serialize(select.group_by, parts)
    _serialize(select.having, parts)
    _serialize(select.order_by, parts)
    parts.append(f"limit={select.limit!r},offset={select.offset!r},distinct={select.distinct!r}")
    parts.append(")")


def canonical_form(statement: Node) -> str:
    """The stable structural serialization used for statement fingerprints."""
    if not isinstance(statement, (Select, Union)):
        raise SQLUnsupportedError(
            f"only SELECT/UNION statements are fingerprinted, "
            f"not {type(statement).__name__}"
        )
    parts: List[str] = []
    _serialize(statement, parts)
    return "".join(parts)


def expression_form(expression: Node) -> str:
    """The canonical serialization of one expression (any node)."""
    parts: List[str] = []
    _serialize(expression, parts)
    return "".join(parts)


def statement_fingerprint(statement: Node) -> str:
    """SHA-256 digest of the canonical form — the cache-key component."""
    return hashlib.sha256(canonical_form(statement).encode("utf-8")).hexdigest()
