"""Built-in predicates evaluated procedurally during resolution.

The context and conversion axioms need a handful of predicates that cannot be
(or should not be) defined by clauses: arithmetic evaluation, comparisons and
term (in)equality.  They mirror the classic Prolog built-ins the original
COIN prototype relied on:

* ``eval(Expr, Result)`` — arithmetic evaluation of a ground expression term
  built with the functors ``+ - * /`` (written as compounds, e.g.
  ``Compound('*', (x, y))``); the COIN conversion functions are expressed with
  it.
* ``lt/le/gt/ge/ne/eq`` — comparisons over ground scalars.
* ``unifiable(X, Y)`` / ``dif(X, Y)`` — used by the consistency checks of the
  abductive procedure.

Each builtin receives the argument terms *after* substitution and returns an
iterable of (possibly extended) substitutions.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Tuple

from repro.errors import ResolutionError
from repro.datalog.terms import Compound, Constant, Term, Variable
from repro.datalog.unify import Substitution, apply, unify

BuiltinHandler = Callable[[Tuple[Term, ...], Substitution], Iterable[Substitution]]


def evaluate_arithmetic(term: Term, substitution: Substitution):
    """Evaluate a ground arithmetic term to a Python number.

    Supported functors: ``+ - * /`` (binary), ``neg`` (unary), ``abs``,
    ``round`` (binary: value, digits).  Constants pass through.
    """
    term = apply(term, substitution)
    if isinstance(term, Constant):
        value = term.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ResolutionError(f"non-numeric value in arithmetic: {value!r}")
        return value
    if isinstance(term, Variable):
        raise ResolutionError(f"arithmetic on unbound variable {term}")
    if isinstance(term, Compound):
        args = [evaluate_arithmetic(arg, substitution) for arg in term.args]
        functor = term.functor
        if functor == "+" and len(args) == 2:
            return args[0] + args[1]
        if functor == "-" and len(args) == 2:
            return args[0] - args[1]
        if functor == "*" and len(args) == 2:
            return args[0] * args[1]
        if functor == "/" and len(args) == 2:
            if args[1] == 0:
                raise ResolutionError("division by zero in arithmetic evaluation")
            return args[0] / args[1]
        if functor == "neg" and len(args) == 1:
            return -args[0]
        if functor == "abs" and len(args) == 1:
            return abs(args[0])
        if functor == "round" and len(args) == 2:
            return round(args[0], int(args[1]))
        raise ResolutionError(f"unknown arithmetic functor {functor}/{len(args)}")
    raise ResolutionError(f"cannot evaluate {term!r}")  # pragma: no cover


def _builtin_eval(args: Tuple[Term, ...], substitution: Substitution) -> Iterator[Substitution]:
    expression, result = args
    value = evaluate_arithmetic(expression, substitution)
    extended = unify(result, Constant(value), substitution)
    if extended is not None:
        yield extended


def _comparison(op: str) -> BuiltinHandler:
    def handler(args: Tuple[Term, ...], substitution: Substitution) -> Iterator[Substitution]:
        left = apply(args[0], substitution)
        right = apply(args[1], substitution)
        if not isinstance(left, Constant) or not isinstance(right, Constant):
            raise ResolutionError(f"comparison {op} requires ground scalar arguments")
        lv, rv = left.value, right.value
        try:
            outcome = {
                "lt": lv < rv,
                "le": lv <= rv,
                "gt": lv > rv,
                "ge": lv >= rv,
            }[op]
        except TypeError as exc:
            raise ResolutionError(f"cannot compare {lv!r} and {rv!r}") from exc
        if outcome:
            yield substitution

    return handler


def _builtin_eq(args: Tuple[Term, ...], substitution: Substitution) -> Iterator[Substitution]:
    extended = unify(args[0], args[1], substitution)
    if extended is not None:
        yield extended


def _builtin_ne(args: Tuple[Term, ...], substitution: Substitution) -> Iterator[Substitution]:
    # dif/ne succeeds only when the terms are *not* unifiable: a safe
    # approximation of disequality for the ground terms the mediator uses.
    if unify(args[0], args[1], substitution) is None:
        yield substitution


def _builtin_ground(args: Tuple[Term, ...], substitution: Substitution) -> Iterator[Substitution]:
    from repro.datalog.terms import is_ground

    if is_ground(apply(args[0], substitution)):
        yield substitution


def _builtin_true(args: Tuple[Term, ...], substitution: Substitution) -> Iterator[Substitution]:
    yield substitution


def _builtin_fail(args: Tuple[Term, ...], substitution: Substitution) -> Iterator[Substitution]:
    return iter(())


#: Registry of builtin predicates, keyed by (name, arity).
BUILTINS: Dict[Tuple[str, int], BuiltinHandler] = {
    ("eval", 2): _builtin_eval,
    ("lt", 2): _comparison("lt"),
    ("le", 2): _comparison("le"),
    ("gt", 2): _comparison("gt"),
    ("ge", 2): _comparison("ge"),
    ("eq", 2): _builtin_eq,
    ("ne", 2): _builtin_ne,
    ("dif", 2): _builtin_ne,
    ("ground", 1): _builtin_ground,
    ("true", 0): _builtin_true,
    ("fail", 0): _builtin_fail,
}


def is_builtin(predicate: str, arity: int) -> bool:
    return (predicate, arity) in BUILTINS


def call_builtin(predicate: str, args: Tuple[Term, ...],
                 substitution: Substitution) -> Iterable[Substitution]:
    handler = BUILTINS.get((predicate, len(args)))
    if handler is None:
        raise ResolutionError(f"unknown builtin {predicate}/{len(args)}")
    return handler(args, substitution)
