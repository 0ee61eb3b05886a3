"""Guard normalization for the abductive mediation procedure.

While the abductive procedure enumerates combinations of context assumptions
(which modifier case applies to which value), :func:`normalize_guards` keeps
the assumptions of a candidate branch mutually consistent and minimal.  The
constraints it reasons about are the :class:`~repro.coin.context.Guard`
conditions of the modifier cases: equalities and disequalities between a
source column and a literal.

Rules implemented:

* ``col = a`` and ``col = b`` with ``a != b`` — inconsistent;
* ``col = a`` and ``col <> a`` — inconsistent;
* ``col = a`` entails ``col <> b`` for every ``b != a`` — entailed
  disequalities are dropped from the normalized form (this is why the paper's
  JPY branch carries only ``rl.currency = 'JPY'`` and not also
  ``rl.currency <> 'USD'``);
* duplicates are dropped.

Guards over *different* columns never interact.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.coin.context import Guard


def _value_key(value: Any) -> Any:
    """Normalize literals so 1 and 1.0 compare equal but '1' stays distinct."""
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        return ("n", float(value))
    return ("s", value)


def normalize_guards(guards: Iterable[Guard]) -> Optional[Tuple[Guard, ...]]:
    """The minimal guards equivalent to the conjunction of ``guards``, ordered
    by (lower-cased) column, or None when they are inconsistent."""
    equal: Dict[str, Tuple[Any, Any]] = {}  # column -> (key, value)
    not_equal: Dict[str, Dict[Any, Any]] = {}  # column -> key -> value
    for guard in guards:
        column = guard.column.lower()
        key = _value_key(guard.value)
        known = equal.get(column)
        if guard.op == "=":
            if known is not None and known[0] != key or key in not_equal.get(column, ()):
                return None
            equal[column] = (key, guard.value)
        elif known is not None:
            if known[0] == key:
                return None
            # else: entailed by the equality, nothing to record.
        else:
            not_equal.setdefault(column, {})[key] = guard.value
    normalized = []
    for column in sorted(equal.keys() | not_equal.keys()):
        if column in equal:
            normalized.append(Guard(column, "=", equal[column][1]))
        else:
            values = not_equal[column]
            normalized.extend(Guard(column, "<>", values[key]) for key in sorted(values, key=repr))
    return tuple(normalized)
