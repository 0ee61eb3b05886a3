"""Declarative integrity constraints over federated source relations.

The COIN prototype mediates *semantic* conflicts; this module supplies the
vocabulary for *instance-level* dirtiness — the constraints the sources are
supposed to satisfy but, being autonomous, routinely do not:

* :class:`PrimaryKey` — at most one tuple per key value;
* :class:`FunctionalDependency` — determinant columns fix dependent columns;
* :class:`InclusionDependency` — referential integrity across (possibly
  cross-source) relations;
* :class:`DenialConstraint` — an arbitrary forbidden pattern written as the
  body of a datalog rule over relation predicates, negated relation literals
  and the builtins of :data:`SQL_FORMS`, after Decker's rule-based
  integrity checking.

An inclusion dependency and a denial constraint are range-restricted
denials, that is, queries whose answers are their violations:
:meth:`~InclusionDependency.check_query` spells each one as a
:class:`CheckQuery`, which the scanner runs as an ordinary plan.  A denial's
positive relation literals are joined; a variable they share, or a constant
among their arguments, is an equality condition; each builtin is the SQL
expression :data:`SQL_FORMS` makes of it; each negated relation literal, and
an inclusion's referenced side, is a NOT EXISTS.

NULL follows SQL's three-valued logic.  A builtin comparing a NULL is
unknown, so it is no violation; a NULL in a shared variable, or compared
with a constant, joins with nothing, so a positive literal finds no partner
for it and a negated literal is satisfied; division by zero is NULL.  An
inclusion's reference with a NULL column is satisfied (SQL's MATCH SIMPLE).
Equality is SQL's — numbers compare by value, strings exactly — except
that a NOT EXISTS matches on hash buckets, where a boolean equals only a
boolean.

Constraints are *declared*, not enforced: sources stay autonomous.  They are
registered per relation in the engine's :class:`~repro.engine.catalog.Catalog`
(which versions them through its generation counter, so cached plans,
mediations and violation reports keyed on the generation can never consult a
stale constraint set), scanned by
:class:`~repro.consistency.violations.ViolationScanner`, and consumed by the
consistent-query-answering rewriter (:mod:`repro.consistency.cqa`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConstraintError
from repro.datalog.clause import Atom, Literal
from repro.datalog.terms import Constant, Term, Variable
from repro.relational.schema import Schema
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    FunctionCall,
    IsNull,
    Node,
    Select,
    SelectItem,
    TableRef,
    UnaryOp,
    conjoin,
)
from repro.sql.ast import Literal as Value

#: The SQL a denial body's builtins and the arithmetic in their arguments
#: become: (name, arity) -> the node built from the translated arguments.
#: ``eval(Expression, Result)`` defines an unbound ``Result``, as ``eq``
#: defines either unbound side; bound, both are equalities.
SQL_FORMS: Dict[Tuple[str, int], Callable[..., Node]] = {
    ("lt", 2): partial(BinaryOp, "<"),
    ("le", 2): partial(BinaryOp, "<="),
    ("gt", 2): partial(BinaryOp, ">"),
    ("ge", 2): partial(BinaryOp, ">="),
    ("eq", 2): partial(BinaryOp, "="),
    ("ne", 2): partial(BinaryOp, "<>"),
    ("eval", 2): lambda expression, result: BinaryOp("=", result, expression),
    ("+", 2): partial(BinaryOp, "+"),
    ("-", 2): partial(BinaryOp, "-"),
    ("*", 2): partial(BinaryOp, "*"),
    ("/", 2): partial(BinaryOp, "/"),
    ("neg", 1): partial(UnaryOp, "-"),
    ("abs", 1): lambda value: FunctionCall("ABS", (value,)),
    ("round", 2): lambda value, digits: FunctionCall("ROUND", (value, digits)),
}

#: The builtin predicates; a body literal naming anything else reads a relation.
BUILTINS = frozenset((name, 2) for name in ("lt", "le", "gt", "ge", "eq", "ne", "eval"))


def is_builtin(atom: Atom) -> bool:
    return atom.indicator in BUILTINS


@dataclass(frozen=True)
class CheckQuery:
    """A constraint as the query whose answers are its violations: the rows
    of ``selects[0]`` that no row of a later select matches, ``keys[i - 1]``
    pairing the columns select ``i`` must match
    (:class:`~repro.relational.algebra.Unmatched`).  A violation's first
    ``len(witness)`` columns are its witness, named by ``witness``."""

    selects: Tuple[Select, ...]
    keys: Tuple[Tuple[Tuple[Node, Node], ...], ...]
    witness: Tuple[str, ...]


def _key(position: int) -> ColumnRef:
    """The output column of key ``position``, on either side of a match."""
    return ColumnRef(name=f"k{position}")


@dataclass(frozen=True)
class Constraint:
    """Base class: a named integrity condition over catalogued relations."""

    name: str

    #: Short identifier of the constraint family (filled by subclasses).
    kind = "constraint"

    @property
    def relations(self) -> Tuple[str, ...]:
        """Every relation whose instance this constraint reads."""
        raise NotImplementedError

    def validate(self, schema_of) -> None:
        """Check the constraint against catalog schemas.

        ``schema_of`` maps a relation name to its :class:`Schema`; raises
        :class:`ConstraintError` on unknown relations/columns or structural
        problems (e.g. an empty key).
        """
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    @property
    def fingerprint(self) -> str:
        """A stable identity used in cache keys."""
        return f"{self.kind}:{self.name}:{self.describe()}"


def _require_columns(constraint: str, relation: str, schema: Schema,
                     columns: Sequence[str]) -> None:
    if not columns:
        raise ConstraintError(f"constraint {constraint!r} declares no columns")
    seen = set()
    for column in columns:
        if not schema.has(column):
            raise ConstraintError(
                f"constraint {constraint!r}: relation {relation!r} has no "
                f"column {column!r}"
            )
        lowered = column.lower()
        if lowered in seen:
            raise ConstraintError(
                f"constraint {constraint!r} lists column {column!r} twice"
            )
        seen.add(lowered)


@dataclass(frozen=True)
class PrimaryKey(Constraint):
    """``columns`` form a key of ``relation``: one tuple per key value."""

    relation: str = ""
    columns: Tuple[str, ...] = ()

    kind = "primary_key"

    @property
    def relations(self) -> Tuple[str, ...]:
        return (self.relation,)

    def validate(self, schema_of) -> None:
        _require_columns(self.name, self.relation, schema_of(self.relation), self.columns)

    def describe(self) -> str:
        return f"KEY {self.relation}({', '.join(self.columns)})"


@dataclass(frozen=True)
class FunctionalDependency(Constraint):
    """``determinants -> dependents`` must hold on ``relation``."""

    relation: str = ""
    determinants: Tuple[str, ...] = ()
    dependents: Tuple[str, ...] = ()

    kind = "functional_dependency"

    @property
    def relations(self) -> Tuple[str, ...]:
        return (self.relation,)

    def validate(self, schema_of) -> None:
        schema = schema_of(self.relation)
        _require_columns(self.name, self.relation, schema, self.determinants)
        _require_columns(self.name, self.relation, schema, self.dependents)
        overlap = {c.lower() for c in self.determinants} & {c.lower() for c in self.dependents}
        if overlap:
            raise ConstraintError(
                f"constraint {self.name!r}: columns {sorted(overlap)} appear on "
                "both sides of the dependency"
            )

    def describe(self) -> str:
        return (f"FD {self.relation}: {', '.join(self.determinants)} -> "
                f"{', '.join(self.dependents)}")


@dataclass(frozen=True)
class InclusionDependency(Constraint):
    """``relation[columns] ⊆ referenced[referenced_columns]`` (referential)."""

    relation: str = ""
    columns: Tuple[str, ...] = ()
    referenced_relation: str = ""
    referenced_columns: Tuple[str, ...] = ()

    kind = "inclusion"

    @property
    def relations(self) -> Tuple[str, ...]:
        return (self.relation, self.referenced_relation)

    def validate(self, schema_of) -> None:
        _require_columns(self.name, self.relation, schema_of(self.relation), self.columns)
        _require_columns(self.name, self.referenced_relation,
                         schema_of(self.referenced_relation), self.referenced_columns)
        if len(self.columns) != len(self.referenced_columns):
            raise ConstraintError(
                f"constraint {self.name!r}: {len(self.columns)} referencing "
                f"column(s) vs {len(self.referenced_columns)} referenced"
            )

    def describe(self) -> str:
        return (f"{self.relation}({', '.join(self.columns)}) IN "
                f"{self.referenced_relation}({', '.join(self.referenced_columns)})")

    def check_query(self, schema_of) -> CheckQuery:
        """The referencing rows without a NULL column that match no
        referenced row; the witness is the referencing columns."""
        def keys(relation: str, columns: Sequence[str]) -> Tuple[SelectItem, ...]:
            return tuple(SelectItem(ColumnRef(name=column, table=relation), alias=_key(at).name)
                         for at, column in enumerate(columns))

        referencing = Select(
            items=keys(self.relation, self.columns),
            tables=(TableRef(name=self.relation),),
            where=conjoin([IsNull(ColumnRef(name=column, table=self.relation), negated=True)
                           for column in self.columns]),
        )
        referenced = Select(items=keys(self.referenced_relation, self.referenced_columns),
                            tables=(TableRef(name=self.referenced_relation),))
        pairs = tuple((_key(at), _key(at)) for at in range(len(self.columns)))
        return CheckQuery((referencing, referenced), (pairs,), tuple(self.columns))


@dataclass(frozen=True)
class DenialConstraint(Constraint):
    """A forbidden conjunctive pattern, written as a datalog rule body.

    Each literal over a predicate named like a catalogued relation ranges
    over that relation's tuples (arguments bind the columns in schema
    order), negated ones as NOT EXISTS; the builtins of :data:`BUILTINS` are
    SQL conditions.  The body must be range-restricted: every variable of a
    builtin or of the witness occurs in a positive relation literal, or is
    defined by an ``eq``/``eval`` over such variables.  An answer of the body
    *is* a violation; the variables listed in ``witness`` are reported per
    answer.
    """

    body: Tuple[Literal, ...] = ()
    witness: Tuple[Variable, ...] = ()

    kind = "denial"

    @property
    def relations(self) -> Tuple[str, ...]:
        names: List[str] = []
        for literal in self.body:
            atom = literal.atom
            if not is_builtin(atom) and atom.predicate not in names:
                names.append(atom.predicate)
        return tuple(names)

    def validate(self, schema_of) -> None:
        if not self.body:
            raise ConstraintError(f"constraint {self.name!r} has an empty body")
        positive_relational = False
        for literal in self.body:
            atom = literal.atom
            if is_builtin(atom):
                continue
            schema = schema_of(atom.predicate)
            if atom.arity != len(schema):
                raise ConstraintError(
                    f"constraint {self.name!r}: literal {atom.predicate}/{atom.arity} "
                    f"does not match relation arity {len(schema)}"
                )
            positive_relational = positive_relational or literal.positive
        if not positive_relational:
            raise ConstraintError(
                f"constraint {self.name!r} needs at least one positive relation "
                "literal (negation alone has no range)"
            )
        self.check_query(schema_of)

    def describe(self) -> str:
        return "DENY " + ", ".join(str(literal) for literal in self.body)

    def check_query(self, schema_of) -> CheckQuery:
        """The positive relation literals joined under the builtins, each
        negated relation literal a NOT EXISTS; the witness is the witness
        variables' values."""
        bound: Dict[Variable, Node] = {}
        tables: List[TableRef] = []
        conditions: List[Node] = []
        positives = [literal.atom for literal in self.body
                     if literal.positive and not is_builtin(literal.atom)]
        for index, atom in enumerate(positives, start=1):
            tables.append(TableRef(name=atom.predicate, alias=f"p{index}"))
            for column, term in zip(schema_of(atom.predicate).names, atom.args):
                self._equate(term, ColumnRef(name=column, table=f"p{index}"), bound, conditions)
        for literal in self.body:
            atom = literal.atom
            if not is_builtin(atom):
                continue
            left, right = atom.args
            # An unbound result of eval, or side of eq, is defined by the other.
            defines = literal.positive and atom.predicate in ("eq", "eval")
            if defines and isinstance(right, Variable) and right not in bound:
                bound[right] = self._sql(left, bound)
            elif (defines and atom.predicate == "eq"
                  and isinstance(left, Variable) and left not in bound):
                bound[left] = self._sql(right, bound)
            else:
                condition = SQL_FORMS[atom.indicator](self._sql(left, bound),
                                                      self._sql(right, bound))
                conditions.append(condition if literal.positive else UnaryOp("NOT", condition))

        unbound = [variable for variable in self.witness if variable not in bound]
        if unbound:
            raise ConstraintError(
                f"constraint {self.name!r}: witness variable(s) "
                f"{', '.join(str(v) for v in unbound)} never occur in a "
                "positive body literal, so no solution can ground them"
            )
        items = [SelectItem(bound[variable], alias=f"w{at}")
                 for at, variable in enumerate(self.witness)]
        selects: List[Select] = []
        keys: List[Tuple[Tuple[Node, Node], ...]] = []
        negated = [literal.atom for literal in self.body
                   if not literal.positive and not is_builtin(literal.atom)]
        for index, atom in enumerate(negated, start=1):
            alias = f"n{index}"
            columns = [ColumnRef(name=column, table=alias)
                       for column in schema_of(atom.predicate).names]
            matched: List[SelectItem] = []
            pairs: List[Tuple[Node, Node]] = []
            local: Dict[Variable, Node] = {}
            where: List[Node] = []
            for column, term in zip(columns, atom.args):
                if isinstance(term, Variable) and term in bound:
                    key = _key(len(items) - len(self.witness))
                    items.append(SelectItem(bound[term], alias=key.name))
                    matched.append(SelectItem(column, alias=key.name))
                    pairs.append((key, key))
                else:
                    self._equate(term, column, local, where)
            if not pairs:
                # Nothing shared: any row of the relation matches every row.
                matched.append(SelectItem(columns[0]))
                pairs.append((Value(1), Value(1)))
            selects.append(Select(items=tuple(matched),
                                  tables=(TableRef(name=atom.predicate, alias=alias),),
                                  where=conjoin(where)))
            keys.append(tuple(pairs))
        first = Select(items=tuple(items) or (SelectItem(Value(1)),), tables=tuple(tables),
                       where=conjoin(conditions))
        return CheckQuery((first, *selects), tuple(keys),
                          tuple(str(variable) for variable in self.witness))

    def _equate(self, term: Term, column: ColumnRef, bound: Dict[Variable, Node],
                conditions: List[Node]) -> None:
        """Bind a relation literal's argument ``term`` to ``column``: a new
        variable is defined by it, a bound one or a constant equals it."""
        if isinstance(term, Variable) and term not in bound:
            bound[term] = column
        elif isinstance(term, (Variable, Constant)):
            conditions.append(BinaryOp("=", column, self._sql(term, bound)))
        else:
            raise ConstraintError(
                f"constraint {self.name!r}: relation argument {term} is "
                "neither a variable nor a constant"
            )

    def _sql(self, term: Term, bound: Dict[Variable, Node]) -> Node:
        """``term`` as SQL over the bound variables."""
        if isinstance(term, Constant):
            return Value(term.value)
        if isinstance(term, Variable):
            if term not in bound:
                raise ConstraintError(
                    f"constraint {self.name!r} is not range-restricted: variable "
                    f"{term} occurs in no positive relation literal"
                )
            return bound[term]
        form = SQL_FORMS.get((term.functor, term.arity))
        if form is None or (term.functor, term.arity) in BUILTINS:
            raise ConstraintError(
                f"constraint {self.name!r}: unknown arithmetic {term.functor}/{term.arity}"
            )
        return form(*(self._sql(argument, bound) for argument in term.args))


@dataclass
class ConstraintSet:
    """The per-catalog registry of declared constraints.

    Lives inside the :class:`~repro.engine.catalog.Catalog`; registration is
    validated against the catalogued schemas and bumps the catalog generation
    (the caller's job), which transitively invalidates cached plans, prepared
    statements and memoized violation reports.
    """

    _by_name: Dict[str, Constraint] = field(default_factory=dict)
    _by_relation: Dict[str, List[Constraint]] = field(default_factory=dict)

    def register(self, constraint: Constraint, schema_of) -> Constraint:
        if not constraint.name:
            raise ConstraintError("constraints must be named")
        key = constraint.name.lower()
        if key in self._by_name:
            raise ConstraintError(f"constraint {constraint.name!r} is already registered")
        constraint.validate(schema_of)
        self._by_name[key] = constraint
        for relation in constraint.relations:
            self._by_relation.setdefault(relation.lower(), []).append(constraint)
        return constraint

    def get(self, name: str) -> Constraint:
        try:
            return self._by_name[name.lower()]
        except KeyError as exc:
            raise ConstraintError(f"unknown constraint {name!r}") from exc

    def for_relation(self, relation: str) -> List[Constraint]:
        return list(self._by_relation.get(relation.lower(), []))

    def key_of(self, relation: str) -> Optional[PrimaryKey]:
        """The relation's primary key constraint, when exactly one is declared."""
        keys = [c for c in self.for_relation(relation) if isinstance(c, PrimaryKey)]
        if not keys:
            return None
        if len(keys) > 1:
            raise ConstraintError(
                f"relation {relation!r} declares {len(keys)} primary keys"
            )
        return keys[0]

    @property
    def all(self) -> List[Constraint]:
        return [self._by_name[key] for key in sorted(self._by_name)]

    @property
    def fingerprint(self) -> str:
        return "|".join(constraint.fingerprint for constraint in self.all)

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self):
        return iter(self.all)
