"""Transformation of answers into a receiver's context.

The mediated query already folds conversions into its expressions, so results
arrive in the receiver's context.  Two further needs remain, both covered by
this module:

* a receiver (or an application caching results) may want the same answer
  re-expressed in *another* receiver context without re-running the query —
  e.g. an analyst switching her workspace from USD to EUR;
* the demo front ends annotate result columns with the modifier values of the
  receiver's context ("revenue [USD, scale 1]").

A conversion of an answer is a query over it: the conversion expressions the
mediator folds into its branches (:meth:`CoinSystem.convert`), over the
answer's columns, each ancillary relation they name left-joined as the rows
their conditions select.  The local query processor runs it, reading the
ancillary relations through the reader the transformer is given — the
federation's reads them on its engine, as the mediated queries do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import MediationError
from repro.coin.conversion import ConversionBuilder, Operand
from repro.coin.system import CoinSystem
from repro.relational.query import QueryProcessor
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sql.ast import ColumnRef, Join, Node, Select, SelectItem, Star, TableRef, conjoin, walk
from repro.sql.parser import DerivedTable

#: The answer's table in a conversion query; its columns are named by
#: position (``c0``, ``c1`` …), so duplicate result names cannot clash.
ANSWER = "answer"


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
    """Converts result relations between receiver contexts.

    ``read`` returns a relation a conversion names (the exchange rates) by
    its catalog name."""

    def __init__(self, system: CoinSystem, read: Callable[[str], Relation]):
        self.system = system
        self.read = read

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
        """Convert every semantic column of ``relation`` between two receiver
        contexts by running :meth:`query` over it; the result keeps its rows'
        order and its schema.

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
        answer = Relation(relation.schema.rename(
            [f"c{position}" for position in range(len(relation.schema))]))
        answer.rows = relation.rows
        read = lru_cache(maxsize=None)(self.read)

        def resolve(name: str, source: Optional[str]) -> Relation:
            return answer if name == ANSWER else read(name)

        query = self.query(relation.schema, column_semantics, from_context, to_context)
        converted = Relation(relation.schema, name=relation.name)
        converted.rows = QueryProcessor(resolve).execute(query).rows
        return converted

    def query(self, schema: Schema, column_semantics: Sequence[Optional[str]],
              from_context: str, to_context: str) -> Select:
        """The statement converting an answer of ``schema`` between two
        receiver contexts: the table :data:`ANSWER`, then each ancillary
        relation a conversion adds as ``LEFT JOIN (SELECT * FROM r3 WHERE
        <its conditions>) r3 ON TRUE`` — a missing rate is NULL, and the row
        stays."""
        builder = ConversionBuilder(used_aliases=[ANSWER])
        items = []
        for position, (attribute, semantic_type) in enumerate(zip(schema, column_semantics)):
            value: Node = ColumnRef(f"c{position}", ANSWER)
            if semantic_type is not None:
                value = self.system.convert(
                    semantic_type, value,
                    self._steps(semantic_type, from_context, to_context), builder)
            items.append(SelectItem(value, attribute.name))
        table: Node = TableRef(ANSWER)
        for ancillary in builder.extra_tables:
            binding = ancillary.binding
            where = conjoin([condition for condition in builder.extra_conditions
                             if any(node.__class__ is ColumnRef and node.table == binding
                                    for node in walk(condition))])
            rows = Select(items=(SelectItem(Star()),), tables=(ancillary,), where=where)
            table = Join(table, DerivedTable(rows, binding), "LEFT")
        return Select(items=tuple(items), tables=(table,))

    def _steps(self, semantic_type: str, from_context: str,
               to_context: str) -> Dict[str, Tuple[Operand, Operand]]:
        """Each modifier of ``semantic_type`` whose values in the two
        contexts differ: (from value, to value) as constant operands."""
        steps = {}
        for modifier in self.system.modifiers_of_type(semantic_type):
            source = self.system.receiver_value(from_context, semantic_type, modifier)
            target = self.system.receiver_value(to_context, semantic_type, modifier)
            if source != target:
                steps[modifier] = (Operand.of_constant(source), Operand.of_constant(target))
        return steps

