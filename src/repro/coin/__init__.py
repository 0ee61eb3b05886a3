"""The COIN knowledge model: domain model, contexts, elevation and conversions.

This package holds the representation half of the Context Interchange
strategy; the reasoning half (the abductive mediation procedure) lives in
:mod:`repro.mediation` and consumes a :class:`~repro.coin.system.CoinSystem`.
"""

from repro.coin.domain import (
    DomainModel,
    PRIMITIVE_TYPES,
    ROOT_TYPE,
    SemanticType,
    build_financial_domain_model,
)
from repro.coin.context import (
    AttributeValue,
    ConstantValue,
    Context,
    ContextRegistry,
    Guard,
    ModifierCase,
    ModifierDeclaration,
)
from repro.coin.elevation import ColumnElevation, ElevationAxiom, ElevationRegistry
from repro.coin.conversion import (
    ConversionBuilder,
    ConversionFunction,
    ConversionRegistry,
    CurrencyConversion,
    DateFormatConversion,
    FactorTableConversion,
    Operand,
    ScaleFactorConversion,
    build_financial_conversions,
)
from repro.coin.system import CoinSystem, SemanticColumn

__all__ = [
    "DomainModel",
    "PRIMITIVE_TYPES",
    "ROOT_TYPE",
    "SemanticType",
    "build_financial_domain_model",
    "AttributeValue",
    "ConstantValue",
    "Context",
    "ContextRegistry",
    "Guard",
    "ModifierCase",
    "ModifierDeclaration",
    "ColumnElevation",
    "ElevationAxiom",
    "ElevationRegistry",
    "ConversionBuilder",
    "ConversionFunction",
    "ConversionRegistry",
    "CurrencyConversion",
    "DateFormatConversion",
    "FactorTableConversion",
    "Operand",
    "ScaleFactorConversion",
    "build_financial_conversions",
    "CoinSystem",
    "SemanticColumn",
]
