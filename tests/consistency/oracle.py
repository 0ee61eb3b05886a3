"""A brute-force oracle for inclusion and denial constraints.

Nested loops over rows, under SQL's three-valued logic as
``repro.consistency.constraints`` states it: a comparison with a NULL is
unknown (no violation), a NULL matches nothing — not another NULL, not a
constant — so a negated literal over it is satisfied, and a division by zero
is NULL.  ``extents`` maps a relation name to its rows, in schema order.
"""

import itertools
import operator

from repro.consistency import DenialConstraint
from repro.datalog.terms import Constant, Variable

_COMPARE = {"lt": operator.lt, "le": operator.le, "gt": operator.gt, "ge": operator.ge,
            "eq": operator.eq, "ne": operator.ne, "eval": operator.eq}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": lambda left, right: None if right == 0 else left / right,
               "neg": operator.neg, "abs": abs,
               "round": lambda value, digits: round(value, int(digits))}


def _equal(left, right):
    return left is not None and right is not None and left == right


def _value(term, binding):
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, Variable):
        return binding[term]
    values = [_value(argument, binding) for argument in term.args]
    return None if None in values else _ARITHMETIC[term.functor](*values)


def _match(args, row, binding):
    """Extend ``binding`` so the literal's ``args`` read ``row``, or say no."""
    for term, value in zip(args, row):
        if isinstance(term, Variable) and term not in binding:
            binding[term] = value
        elif not _equal(_value(term, binding), value):
            return False
    return True


def _builtins_hold(literals, binding):
    for literal in literals:
        predicate, (left, right) = literal.atom.predicate, literal.atom.args
        if literal.positive and predicate in ("eq", "eval"):
            if isinstance(right, Variable) and right not in binding:
                binding[right] = _value(left, binding)
                continue
            if predicate == "eq" and isinstance(left, Variable) and left not in binding:
                binding[left] = _value(right, binding)
                continue
        values = (_value(left, binding), _value(right, binding))
        if None in values or _COMPARE[predicate](*values) is not literal.positive:
            return False
    return True


def denial_violations(constraint: DenialConstraint, extents):
    """One witness tuple per combination of rows the body accepts."""
    relational = [literal for literal in constraint.body
                  if literal.atom.predicate in extents]
    positives = [literal.atom for literal in relational if literal.positive]
    negated = [literal.atom for literal in relational if not literal.positive]
    builtins = [literal for literal in constraint.body
                if literal.atom.predicate not in extents]
    found = []
    for rows in itertools.product(*(extents[atom.predicate] for atom in positives)):
        binding = {}
        if not all(_match(atom.args, row, binding) for atom, row in zip(positives, rows)):
            continue
        if not _builtins_hold(builtins, binding):
            continue
        if any(_match(atom.args, row, dict(binding))
               for atom in negated for row in extents[atom.predicate]):
            continue
        found.append(tuple(binding[variable] for variable in constraint.witness))
    return found


def inclusion_violations(constraint, extents, names):
    """The referencing column values, NULL-free, that no referenced row holds;
    ``names`` maps a relation to its column names."""
    def positions(relation, columns):
        return [names[relation].index(column) for column in columns]

    referencing = positions(constraint.relation, constraint.columns)
    referenced = positions(constraint.referenced_relation, constraint.referenced_columns)
    found = []
    for row in extents[constraint.relation]:
        values = tuple(row[at] for at in referencing)
        if None in values:
            continue
        if not any(all(_equal(value, other[at]) for value, at in zip(values, referenced))
                   for other in extents[constraint.referenced_relation]):
            found.append(values)
    return found
