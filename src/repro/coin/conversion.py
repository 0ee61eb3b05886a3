"""Conversion functions: how modifier conflicts are resolved.

Once the mediator has determined that a value's modifier takes different
values in the source and receiver contexts, a *conversion function* supplies
the resolution: a SQL expression over the value (and possibly extra FROM
tables / WHERE conditions, when an ancillary source such as the exchange-rate
web service is needed).  This is how the paper's mediated query acquires
``rl.revenue * 1000 * r3.rate`` and the join conditions on ``r3``.  The same
expressions "further transform" an answer already returned into another
receiver's context: :meth:`repro.mediation.answers.AnswerTransformer.transform`
runs them as a query over the answer, so each function is written once.

A :class:`ConversionRegistry` associates a conversion function with each
(semantic type, modifier) pair; lookups walk the semantic-type hierarchy so a
conversion registered for ``monetaryAmount`` also serves ``companyFinancials``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConversionError
from repro.coin.domain import DomainModel
from repro.sql.ast import BinaryOp, ColumnRef, Literal, Node, TableRef


# ---------------------------------------------------------------------------
# Operands: what a modifier value "is" at conversion time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Operand:
    """Either a known constant or a SQL expression (typically a column ref)."""

    constant: Any = None
    expression: Optional[Node] = None

    @classmethod
    def of_constant(cls, value: Any) -> "Operand":
        return cls(constant=value, expression=None)

    @classmethod
    def of_expression(cls, expression: Node) -> "Operand":
        return cls(constant=None, expression=expression)

    @property
    def is_constant(self) -> bool:
        return self.expression is None

    def as_node(self) -> Node:
        """The operand as a SQL expression node."""
        if self.expression is not None:
            return self.expression
        return Literal(self.constant)

    def describe(self) -> str:
        if self.is_constant:
            return repr(self.constant)
        from repro.sql.printer import to_sql

        return to_sql(self.expression)


# ---------------------------------------------------------------------------
# Builder: collects ancillary tables and conditions during rewriting
# ---------------------------------------------------------------------------


class ConversionBuilder:
    """Accumulates the FROM/WHERE additions a conversion requires.

    The mediator creates one builder per UNION branch; conversion functions
    call :meth:`add_ancillary` to join an ancillary relation (allocating a
    fresh alias) and :meth:`add_condition` for extra WHERE conjuncts.
    """

    def __init__(self, used_aliases: Sequence[str] = ()):
        self._used = {alias.lower() for alias in used_aliases}
        self.extra_tables: List[TableRef] = []
        self.extra_conditions: List[Node] = []
        self._counter = 0

    def allocate_alias(self, base: str) -> str:
        """Return an alias not colliding with the query's existing bindings."""
        candidate = base
        while candidate.lower() in self._used:
            self._counter += 1
            candidate = f"{base}_{self._counter}"
        self._used.add(candidate.lower())
        return candidate

    def add_ancillary(self, relation: str, preferred_alias: Optional[str] = None) -> str:
        """Add an ancillary relation to the branch's FROM list; returns its alias."""
        alias = self.allocate_alias(preferred_alias or relation)
        self.extra_tables.append(TableRef(name=relation, alias=alias if alias != relation else None))
        return alias

    def add_condition(self, condition: Node) -> None:
        self.extra_conditions.append(condition)


# ---------------------------------------------------------------------------
# Conversion functions
# ---------------------------------------------------------------------------


class ConversionFunction:
    """Base class of all conversion functions."""

    #: Human-readable name used in explanations.
    name = "conversion"

    def build_expression(self, value: Node, source: Operand, target: Operand,
                         builder: ConversionBuilder) -> Node:
        """Rewrite ``value`` (a SQL expression) from the source to the target spec."""
        raise NotImplementedError

    def describe(self, source: Operand, target: Operand) -> str:
        return f"{self.name}: {source.describe()} -> {target.describe()}"


class ScaleFactorConversion(ConversionFunction):
    """Convert between multiplicative scale factors: multiply by from/to."""

    name = "scale-factor"

    def build_expression(self, value: Node, source: Operand, target: Operand,
                         builder: ConversionBuilder) -> Node:
        if source.is_constant and target.is_constant:
            try:
                ratio = float(source.constant) / float(target.constant)
            except (TypeError, ValueError) as exc:
                raise ConversionError(f"non-numeric scale factors {source.constant!r}/"
                                      f"{target.constant!r}") from exc
            except ZeroDivisionError as exc:
                raise ConversionError("target scale factor must be non-zero") from exc
            if ratio == 1:
                return value
            if isinstance(ratio, float) and ratio.is_integer():
                ratio = int(ratio)
            return BinaryOp("*", value, Literal(ratio))
        # Column-valued scale factors: emit value * source / target.
        scaled = BinaryOp("*", value, source.as_node())
        if target.is_constant and target.constant == 1:
            return scaled
        return BinaryOp("/", scaled, target.as_node())


class CurrencyConversion(ConversionFunction):
    """Convert between currencies by joining an ancillary exchange-rate relation.

    ``ancillary_relation`` is the catalog name of the rate relation (``r3`` in
    the paper's example); ``from_column``/``to_column``/``rate_column`` are its
    attribute names.  The conversion adds the relation to the branch's FROM
    list with conditions equating its from/to columns with the source/target
    currency, and multiplies the value by the rate column — reproducing
    exactly the shape of the paper's branches 2 and 3.
    """

    name = "currency"

    def __init__(self, ancillary_relation: str = "r3", from_column: str = "fromCur",
                 to_column: str = "toCur", rate_column: str = "rate",
                 preferred_alias: Optional[str] = None):
        self.ancillary_relation = ancillary_relation
        self.from_column = from_column
        self.to_column = to_column
        self.rate_column = rate_column
        self.preferred_alias = preferred_alias or ancillary_relation

    def build_expression(self, value: Node, source: Operand, target: Operand,
                         builder: ConversionBuilder) -> Node:
        if source.is_constant and target.is_constant and source.constant == target.constant:
            return value
        alias = builder.add_ancillary(self.ancillary_relation, self.preferred_alias)
        builder.add_condition(
            BinaryOp("=", ColumnRef(name=self.from_column, table=alias), source.as_node())
        )
        builder.add_condition(
            BinaryOp("=", ColumnRef(name=self.to_column, table=alias), target.as_node())
        )
        return BinaryOp("*", value, ColumnRef(name=self.rate_column, table=alias))


class FactorTableConversion(ConversionFunction):
    """Convert via a static table of multiplicative factors (units, shares...).

    The factor table maps ``(source value, target value)`` pairs to factors;
    identity pairs default to 1.  Both operands must be constants (the table
    lives at the mediator, not in any source).
    """

    name = "factor-table"

    def __init__(self, table_name: str, factors: Mapping[Tuple[Any, Any], float]):
        self.table_name = table_name
        self.factors = dict(factors)

    def _factor(self, source: Any, target: Any) -> float:
        if source == target:
            return 1.0
        try:
            return float(self.factors[(source, target)])
        except KeyError as exc:
            raise ConversionError(
                f"factor table {self.table_name!r} has no entry for {source!r} -> {target!r}"
            ) from exc

    def build_expression(self, value: Node, source: Operand, target: Operand,
                         builder: ConversionBuilder) -> Node:
        if not (source.is_constant and target.is_constant):
            raise ConversionError(
                f"factor-table conversion {self.table_name!r} requires constant modifier values"
            )
        factor = self._factor(source.constant, target.constant)
        if factor == 1.0:
            return value
        if factor.is_integer():
            return BinaryOp("*", value, Literal(int(factor)))
        return BinaryOp("*", value, Literal(factor))


class DateFormatConversion(ConversionFunction):
    """Convert date strings between ``iso`` (YYYY-MM-DD) and ``us`` (MM/DD/YYYY).

    The conversion is SUBSTR/concatenation arithmetic, so it runs inside the
    mediated query.  Only the two formats the demo scenarios use are
    supported.
    """

    name = "date-format"

    _KNOWN = ("iso", "us")

    def build_expression(self, value: Node, source: Operand, target: Operand,
                         builder: ConversionBuilder) -> Node:
        from repro.sql.ast import FunctionCall

        if not (source.is_constant and target.is_constant):
            raise ConversionError("date-format conversion requires constant formats")
        source_format, target_format = source.constant, target.constant
        self._check(source_format)
        self._check(target_format)
        if source_format == target_format:
            return value

        def substr(start: int, length: int) -> Node:
            return FunctionCall("SUBSTR", (value, Literal(start), Literal(length)))

        if source_format == "iso" and target_format == "us":
            month, day, year = substr(6, 2), substr(9, 2), substr(1, 4)
            return BinaryOp("||", BinaryOp("||", BinaryOp("||", BinaryOp("||", month, Literal("/")), day), Literal("/")), year)
        year, month, day = substr(7, 4), substr(1, 2), substr(4, 2)
        return BinaryOp("||", BinaryOp("||", BinaryOp("||", BinaryOp("||", year, Literal("-")), month), Literal("-")), day)

    def _check(self, format_name: Any) -> None:
        if format_name not in self._KNOWN:
            raise ConversionError(f"unsupported date format {format_name!r}")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class ConversionRegistry:
    """Associates (semantic type, modifier) pairs with conversion functions."""

    #: Wildcard semantic type matching any type.
    ANY_TYPE = "*"

    def __init__(self, domain_model: Optional[DomainModel] = None):
        self._domain_model = domain_model
        self._functions: Dict[Tuple[str, str], ConversionFunction] = {}
        #: Bumped on every registration; part of the knowledge generation that
        #: keys the mediation and plan caches.
        self.generation = 0

    def register(self, semantic_type: str, modifier: str,
                 function: ConversionFunction) -> ConversionFunction:
        self._functions[(semantic_type, modifier)] = function
        self.generation += 1
        return function

    def lookup(self, semantic_type: str, modifier: str) -> ConversionFunction:
        """Find the conversion for a type/modifier, walking up the hierarchy."""
        candidates = [semantic_type]
        if self._domain_model is not None and self._domain_model.has(semantic_type):
            candidates = self._domain_model.ancestors(semantic_type)
        for candidate in candidates:
            function = self._functions.get((candidate, modifier))
            if function is not None:
                return function
        function = self._functions.get((self.ANY_TYPE, modifier))
        if function is not None:
            return function
        raise ConversionError(
            f"no conversion function registered for {semantic_type}.{modifier}"
        )

    def has(self, semantic_type: str, modifier: str) -> bool:
        try:
            self.lookup(semantic_type, modifier)
            return True
        except ConversionError:
            return False

    def __len__(self) -> int:
        return len(self._functions)


def build_financial_conversions(domain_model: DomainModel,
                                ancillary_relation: str = "r3",
                                from_column: str = "fromCur",
                                to_column: str = "toCur",
                                rate_column: str = "rate") -> ConversionRegistry:
    """The conversion registry used by the paper example and demo scenarios."""
    registry = ConversionRegistry(domain_model)
    registry.register("monetaryAmount", "scaleFactor", ScaleFactorConversion())
    registry.register(
        "monetaryAmount",
        "currency",
        CurrencyConversion(ancillary_relation, from_column, to_column, rate_column),
    )
    registry.register("dateType", "dateFormat", DateFormatConversion())
    return registry
