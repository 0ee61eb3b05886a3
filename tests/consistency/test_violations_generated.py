"""Generated instances × generated inclusions and denials against a
brute-force oracle.

Every example (one seed) plants small ``accounts``/``ratings`` relations
with NULLs and duplicate rows, draws inclusion dependencies and denial
constraints — shared and constant arguments, ``lt/le/gt/ge/eq/ne`` over
numbers, ``eq/ne`` over strings, ``eval`` defining or checking a variable,
negated builtins and negated relation literals — and asserts that each
finding's count is the oracle's (``oracle.py``: nested loops over rows) and
its witnesses, as a multiset, the oracle's whenever the witness cap is not
reached (a sub-multiset when it is).  A seeded ``random.Random`` draws
uniformly, so the rich cases are as likely as the trivial ones.
"""

import random
from collections import Counter
from itertools import count

import pytest

from repro.consistency import DenialConstraint, InclusionDependency
from repro.consistency.violations import MAX_WITNESSES
from repro.datalog.clause import atom, neg, pos
from repro.datalog.terms import Variable, compound

from fedbuild import build_consistency_federation
from oracle import denial_violations, inclusion_violations

#: Examples in tier-1.
EXAMPLES = 80

#: Each relation's columns and their kinds: "n" number, "s" string.
SCHEMAS = {
    "accounts": (("id", "n"), ("owner", "s"), ("balance", "n"), ("region", "s")),
    "ratings": (("id", "n"), ("score", "n")),
}
NAMES = {relation: [name for name, _kind in columns] for relation, columns in SCHEMAS.items()}
#: Few values, so rows meet; 1 and 1.0 are one number; NULL (first) is no constant.
VALUES = {"n": [None, 0, 1, 1.0, 2, -1.5], "s": [None, "a", "b"]}

#: Inclusions whose two sides hold values of one kind.
INCLUSIONS = [
    ("ratings", ("id",), "accounts", ("id",)),
    ("accounts", ("id",), "ratings", ("id",)),
    ("accounts", ("balance",), "ratings", ("score",)),
    ("accounts", ("owner",), "accounts", ("region",)),
    ("accounts", ("id", "balance"), "ratings", ("id", "score")),
]


def _rows(rng, relation):
    return [tuple(rng.choice(VALUES[kind]) for _name, kind in SCHEMAS[relation])
            for _ in range(rng.randint(0, 8))]


def _denial(rng, name):
    fresh = count()
    bound = {}  # variable -> kind

    def constant(kind):
        return rng.choice(VALUES[kind][1:])

    def argument(kind, prefix, sharing=0.3):
        """A relation literal's argument: a bound variable of ``kind`` (a
        join), a constant, or a new variable."""
        candidates = [variable for variable, of in bound.items() if of == kind]
        pick = rng.random()
        if candidates and pick < sharing:
            return rng.choice(candidates)
        if pick > 0.9:
            return constant(kind)
        variable = Variable(f"{prefix}{next(fresh)}")
        if prefix == "V":
            bound[variable] = kind
        return variable

    def operand(kind):
        """A builtin's operand: a bound variable of ``kind`` or a constant."""
        candidates = [variable for variable, of in bound.items() if of == kind]
        return rng.choice(candidates) if candidates and rng.random() < 0.75 else constant(kind)

    body = []
    for relation in rng.choices(sorted(SCHEMAS), k=rng.randint(1, 2)):
        body.append(pos(atom(relation, *(argument(kind, "V")
                                         for _column, kind in SCHEMAS[relation]))))
    for _ in range(rng.randint(0, 2)):
        shape = rng.choice(["compare", "strings", "eval", "negated"])
        if shape in ("compare", "negated"):
            literal = atom(rng.choice(["lt", "le", "gt", "ge", "eq", "ne"]),
                           operand("n"), operand("n"))
            body.append(pos(literal) if shape == "compare" else neg(literal))
        elif shape == "strings":
            body.append(pos(atom(rng.choice(["eq", "ne"]), operand("s"), operand("s"))))
        else:
            expression = compound(rng.choice(["+", "-", "*", "/"]), operand("n"), operand("n"))
            # Checks a bound variable or a constant, or defines a new variable.
            result = operand("n") if rng.random() < 0.3 else Variable(f"V{next(fresh)}")
            body.append(pos(atom("eval", expression, result)))
            if isinstance(result, Variable):
                bound.setdefault(result, "n")
    if rng.random() < 0.5:
        # A negated literal mostly matches on bound variables; one sharing
        # none is satisfied only by an empty (filtered) relation.
        relation, sharing = rng.choice(sorted(SCHEMAS)), rng.choice([0.0, 0.7, 0.7])
        body.append(neg(atom(relation, *(argument(kind, "L", sharing)
                                         for _column, kind in SCHEMAS[relation]))))
    witness = rng.sample(sorted(bound, key=str), min(len(bound), rng.randint(0, 3)))
    return DenialConstraint(name, body=tuple(body), witness=tuple(witness))


def _constraints(rng):
    constraints = [
        InclusionDependency(f"inclusion_{index}", relation=relation, columns=columns,
                            referenced_relation=referenced, referenced_columns=referenced_columns)
        for index, (relation, columns, referenced, referenced_columns)
        in enumerate(rng.sample(INCLUSIONS, rng.randint(0, 2)))
    ]
    constraints.extend(_denial(rng, f"denial_{index}") for index in range(rng.randint(1, 3)))
    return constraints


@pytest.mark.parametrize("seed", range(EXAMPLES))
def test_found_violations_are_the_oracles(seed):
    rng = random.Random(seed)
    extents = {relation: _rows(rng, relation) for relation in sorted(SCHEMAS)}
    constraints = _constraints(rng)
    federation = build_consistency_federation()
    catalog = federation.engine.catalog
    catalog.wrappers.get("ledger").source.database.table("accounts").rows = extents["accounts"]
    catalog.wrappers.get("reviews").source.database.table("ratings").rows = extents["ratings"]
    federation.invalidate_source_cache()
    for constraint in constraints:
        federation.register_constraint(constraint)

    report = federation.scan_violations()
    for constraint in constraints:
        finding = report.for_constraint(constraint.name)
        if isinstance(constraint, DenialConstraint):
            expected = denial_violations(constraint, extents)
        else:
            expected = inclusion_violations(constraint, extents, NAMES)
        context = (constraint.describe(), extents)
        assert finding.violations == len(expected), context
        found = Counter(tuple(witness.values()) for witness in finding.witnesses)
        if len(expected) <= MAX_WITNESSES:
            assert found == Counter(expected), context
        else:
            assert not found - Counter(expected), context
