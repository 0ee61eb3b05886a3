"""Contexts and context theories.

A *context theory* is "an explicit codification of the implicit semantics of
data in the corresponding context": for every semantic type and modifier it
states what value the modifier takes there.  The paper's example uses two
source contexts and a receiver context:

* context ``c1`` (Source 1): company financials are reported in the currency
  named by the tuple's ``currency`` column; the scale factor is 1000 when that
  currency is JPY and 1 otherwise;
* context ``c2`` (Source 2): company financials are in USD with scale factor 1;
* the receiver's context: USD, scale factor 1.

Three kinds of modifier value specification cover these (and the larger demo
scenarios):

* :class:`ConstantValue` — the modifier has a fixed value in this context;
* :class:`AttributeValue` — the modifier takes the value of a named column of
  the same source tuple (resolved through the elevation axioms);
* guarded **cases** — a :class:`ModifierDeclaration` holds an ordered list of
  :class:`ModifierCase`; each case has an optional guard (a conjunction of
  simple comparisons over columns of the same tuple) and a value spec.  The
  declaration must be exhaustive: either the last case is unguarded, or the
  guards cover all possibilities by construction (the mediator treats the
  cases as the "possible conflicts" to enumerate during abduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ContextError


# ---------------------------------------------------------------------------
# Value specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantValue:
    """The modifier has this constant value in the context."""

    value: Any

    def describe(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class AttributeValue:
    """The modifier takes the value of a column of the same source tuple."""

    column: str

    def describe(self) -> str:
        return f"value of column {self.column!r}"


ValueSpec = Union[ConstantValue, AttributeValue]


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Guard:
    """A simple comparison over a column of the source tuple.

    Only equality and inequality against literals are supported — exactly what
    is needed to express "the scale factor is 1000 when the currency column is
    'JPY'" and what the mediator's constraint store can reason about.
    """

    column: str
    op: str  # "=" or "<>"
    value: Any

    def __post_init__(self) -> None:
        if self.op not in ("=", "<>"):
            raise ContextError(f"unsupported guard operator {self.op!r}")

    def negated(self) -> "Guard":
        return Guard(self.column, "<>" if self.op == "=" else "=", self.value)

    def describe(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


@dataclass(frozen=True)
class ModifierCase:
    """One case of a modifier declaration: optional guards plus a value spec."""

    value: ValueSpec
    guards: Tuple[Guard, ...] = ()

    def describe(self) -> str:
        if not self.guards:
            return self.value.describe()
        guard_text = " and ".join(guard.describe() for guard in self.guards)
        return f"{self.value.describe()} when {guard_text}"


@dataclass
class ModifierDeclaration:
    """The value a (semantic type, modifier) pair takes in one context."""

    semantic_type: str
    modifier: str
    cases: Tuple[ModifierCase, ...]

    def __post_init__(self) -> None:
        if not self.cases:
            raise ContextError(
                f"declaration of {self.semantic_type}.{self.modifier} has no cases"
            )

    @property
    def is_static(self) -> bool:
        """True when the modifier value is a single unguarded constant."""
        return (
            len(self.cases) == 1
            and not self.cases[0].guards
            and isinstance(self.cases[0].value, ConstantValue)
        )

    @property
    def static_value(self) -> Any:
        if not self.is_static:
            raise ContextError(
                f"{self.semantic_type}.{self.modifier} does not have a static value"
            )
        return self.cases[0].value.value  # type: ignore[union-attr]

    def describe(self) -> str:
        cases = "; ".join(case.describe() for case in self.cases)
        return f"{self.semantic_type}.{self.modifier} = {cases}"


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------


class Context:
    """A named context theory: a set of modifier declarations."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._declarations: Dict[Tuple[str, str], ModifierDeclaration] = {}
        #: Bumped on every (re)declaration; rolled up into the knowledge
        #: generation that keys the mediation and plan caches.
        self.generation = 0

    # -- construction -----------------------------------------------------------

    def declare(self, declaration: ModifierDeclaration) -> "Context":
        key = (declaration.semantic_type, declaration.modifier)
        self._declarations[key] = declaration
        self.generation += 1
        return self

    def declare_constant(self, semantic_type: str, modifier: str, value: Any) -> "Context":
        """Shorthand: the modifier has a constant value in this context."""
        return self.declare(ModifierDeclaration(
            semantic_type, modifier, (ModifierCase(ConstantValue(value)),)
        ))

    def declare_attribute(self, semantic_type: str, modifier: str, column: str) -> "Context":
        """Shorthand: the modifier takes the value of a source column."""
        return self.declare(ModifierDeclaration(
            semantic_type, modifier, (ModifierCase(AttributeValue(column)),)
        ))

    def declare_cases(self, semantic_type: str, modifier: str,
                      cases: Sequence[ModifierCase]) -> "Context":
        return self.declare(ModifierDeclaration(semantic_type, modifier, tuple(cases)))

    # -- lookup -------------------------------------------------------------------

    def declaration(self, semantic_type: str, modifier: str,
                    ancestors: Optional[Sequence[str]] = None) -> ModifierDeclaration:
        """Find the declaration, optionally searching the type's ancestors."""
        key = (semantic_type, modifier)
        if key in self._declarations:
            return self._declarations[key]
        for ancestor in ancestors or ():
            key = (ancestor, modifier)
            if key in self._declarations:
                return self._declarations[key]
        raise ContextError(
            f"context {self.name!r} has no declaration for {semantic_type}.{modifier}"
        )

    @property
    def declarations(self) -> List[ModifierDeclaration]:
        return list(self._declarations.values())

    def axiom_count(self) -> int:
        """Number of modifier cases declared — the unit of "integration effort"
        counted by the scalability benchmark (E3)."""
        return sum(len(declaration.cases) for declaration in self._declarations.values())

    def describe(self) -> str:
        lines = [f"context {self.name}:"]
        for declaration in self._declarations.values():
            lines.append(f"  {declaration.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Context {self.name!r} ({len(self._declarations)} declarations)>"


class ContextRegistry:
    """All contexts known to a federation."""

    def __init__(self, contexts: Iterable[Context] = ()):
        self._contexts: Dict[str, Context] = {}
        self._registrations = 0
        for context in contexts:
            self.register(context)

    def register(self, context: Context) -> Context:
        replaced = self._contexts.get(context.name)
        if replaced is not None and replaced is not context:
            # Fold the replaced context's count into the base so the summed
            # generation stays monotonic (the newcomer restarts at 0).
            self._registrations += replaced.generation
        self._contexts[context.name] = context
        self._registrations += 1
        return context

    @property
    def generation(self) -> int:
        """Registrations plus every member context's own declaration count —
        changes (monotonically) whenever any knowledge a mediation could
        consult changes, including replacing a registered context."""
        return self._registrations + sum(
            context.generation for context in self._contexts.values()
        )

    def create(self, name: str, description: str = "") -> Context:
        if name in self._contexts:
            raise ContextError(f"context {name!r} already exists")
        return self.register(Context(name, description))

    def get(self, name: str) -> Context:
        try:
            return self._contexts[name]
        except KeyError as exc:
            raise ContextError(f"unknown context {name!r}") from exc

    def has(self, name: str) -> bool:
        return name in self._contexts

    @property
    def names(self) -> List[str]:
        return sorted(self._contexts)

    def __iter__(self):
        return iter(self._contexts.values())

    def __len__(self) -> int:
        return len(self._contexts)

    def total_axiom_count(self) -> int:
        return sum(context.axiom_count() for context in self._contexts.values())
