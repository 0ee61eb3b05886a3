"""Transformation of answers into a receiver's context.

The mediated query already folds conversions into its expressions, so results
arrive in the receiver's context.  Two further needs remain, both covered by
this module:

* a receiver (or an application caching results) may want the same answer
  re-expressed in *another* receiver context without re-running the query —
  e.g. an analyst switching her workspace from USD to EUR;
* the demo front ends annotate result columns with the modifier values of the
  receiver's context ("revenue [USD, scale 1]").

Value-mode conversion functions (:meth:`ConversionFunction.convert_value`) do
the work; exchange rates come from a :class:`ConversionEnvironment`, which the
server layer wires to the same ancillary wrapper the mediated queries join
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import MediationError
from repro.coin.conversion import ConversionEnvironment
from repro.coin.system import CoinSystem
from repro.relational.relation import Relation


@dataclass(frozen=True)
class ColumnAnnotation:
    """Receiver-context metadata for one result column.

    Immutable — the modifier values are a read-only mapping and the label is
    rendered once — so one cached plan's annotations are shared by every
    answer it gives."""

    name: str
    semantic_type: Optional[str]
    modifier_values: Mapping[str, Any]
    _label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = MappingProxyType(dict(self.modifier_values))
        label = self.name
        if values:
            details = ", ".join(f"{modifier}={value}"
                                for modifier, value in sorted(values.items()))
            label = f"{self.name} [{details}]"
        object.__setattr__(self, "modifier_values", values)
        object.__setattr__(self, "_label", label)

    def label(self) -> str:
        return self._label


class AnswerTransformer:
    """Converts result relations between receiver contexts."""

    def __init__(self, system: CoinSystem, environment: Optional[ConversionEnvironment] = None):
        self.system = system
        self.environment = environment or ConversionEnvironment()

    # -- annotations -------------------------------------------------------------

    def annotate(self, relation: Relation, column_semantics: Sequence[Optional[str]],
                 receiver_context: str) -> List[ColumnAnnotation]:
        """Describe every column's semantic type and receiver-context modifiers."""
        annotations = []
        for attribute, semantic_type in zip(relation.schema, column_semantics):
            modifier_values: Dict[str, Any] = {}
            if semantic_type is not None:
                for modifier in self.system.modifiers_of_type(semantic_type):
                    modifier_values[modifier] = self.system.receiver_value(
                        receiver_context, semantic_type, modifier
                    )
            annotations.append(ColumnAnnotation(
                name=attribute.name,
                semantic_type=semantic_type,
                modifier_values=modifier_values,
            ))
        return annotations

    # -- conversion ----------------------------------------------------------------

    def transform(self, relation: Relation, column_semantics: Sequence[Optional[str]],
                  from_context: str, to_context: str) -> Relation:
        """Convert every semantic column of ``relation`` between two receiver contexts.

        Both contexts must assign *static* modifier values to the semantic
        types involved (receiver contexts always do); non-semantic columns are
        passed through unchanged.
        """
        if len(column_semantics) != len(relation.schema):
            raise MediationError(
                "column_semantics must have one entry per result column"
            )
        if from_context == to_context:
            return relation

        converters: List[Optional[Callable[[Any], Any]]] = []
        for semantic_type in column_semantics:
            converters.append(self._column_converter(semantic_type, from_context, to_context))

        result = Relation(relation.schema, name=relation.name)
        for row in relation.rows:
            converted = [
                value if converter is None else converter(value)
                for value, converter in zip(row, converters)
            ]
            result.append(converted, validate=False)
        return result

    def _column_converter(self, semantic_type: Optional[str], from_context: str,
                          to_context: str) -> Optional[Callable[[Any], Any]]:
        if semantic_type is None:
            return None
        modifiers = self.system.modifiers_of_type(semantic_type)
        if not modifiers:
            return None

        steps = []
        for modifier in modifiers:
            from_value = self.system.receiver_value(from_context, semantic_type, modifier)
            to_value = self.system.receiver_value(to_context, semantic_type, modifier)
            if from_value == to_value:
                continue
            function = self.system.conversions.lookup(semantic_type, modifier)
            steps.append((function, from_value, to_value))
        if not steps:
            return None

        def convert(value: Any) -> Any:
            for function, from_value, to_value in steps:
                value = function.convert_value(value, from_value, to_value, self.environment)
            return value

        return convert


def environment_from_rates(rates: Dict) -> ConversionEnvironment:
    """Build a conversion environment from a ``(from, to) -> rate`` mapping."""
    from repro.sources.exchange import complete_rates, lookup_rate

    table = complete_rates(rates)

    def rate_lookup(from_currency: str, to_currency: str) -> float:
        return lookup_rate(table, from_currency, to_currency)

    return ConversionEnvironment(rate_lookup=rate_lookup)


def environment_from_relation(rates_relation: Relation, from_column: str = "fromCur",
                              to_column: str = "toCur",
                              rate_column: str = "rate") -> ConversionEnvironment:
    """Build a conversion environment backed by a rates relation (ancillary wrapper output)."""
    table: Dict = {}
    from_position = rates_relation.schema.index_of(from_column)
    to_position = rates_relation.schema.index_of(to_column)
    rate_position = rates_relation.schema.index_of(rate_column)
    for row in rates_relation.rows:
        table[(row[from_position], row[to_position])] = row[rate_position]
    return environment_from_rates(table)
