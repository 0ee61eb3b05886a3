"""Constraint language: registration, validation, catalog versioning."""

import pytest

from repro.consistency import (
    DenialConstraint,
    FunctionalDependency,
    InclusionDependency,
    PrimaryKey,
)
from repro.datalog.clause import Literal, atom, neg, pos
from repro.datalog.terms import Variable
from repro.errors import CatalogError, ConstraintError


def _pk(name="accounts_pk", relation="accounts", columns=("id",)):
    return PrimaryKey(name, relation=relation, columns=tuple(columns))


class TestRegistration:
    def test_register_and_lookup(self, federation):
        constraint = federation.register_constraint(_pk())
        catalog = federation.engine.catalog
        assert catalog.constraints.for_relation("accounts") == [constraint]
        assert catalog.key_of("accounts") is constraint
        assert catalog.key_of("ratings") is None

    def test_registration_bumps_generation(self, federation):
        before = federation.engine.catalog.generation
        federation.register_constraint(_pk())
        assert federation.engine.catalog.generation == before + 1

    def test_registration_invalidates_cached_plans(self, federation):
        query = "SELECT accounts.owner FROM accounts"
        prepared = federation.prepare(query, mediate=False)
        first = prepared.execute()
        misses_before = federation.pipeline.statistics.snapshot()["plan_misses"]
        federation.register_constraint(_pk())
        second = prepared.execute()
        assert federation.pipeline.statistics.snapshot()["plan_misses"] == misses_before + 1
        assert sorted(first.relation.rows) == sorted(second.relation.rows)

    def test_duplicate_name_rejected(self, federation):
        federation.register_constraint(_pk())
        with pytest.raises(ConstraintError, match="already registered"):
            federation.register_constraint(_pk(columns=("owner",)))

    def test_unknown_relation_rejected(self, federation):
        with pytest.raises(CatalogError):
            federation.register_constraint(_pk(relation="nope"))

    def test_unknown_column_rejected(self, federation):
        with pytest.raises(ConstraintError, match="no\\s+column"):
            federation.register_constraint(_pk(columns=("missing",)))

    def test_empty_key_rejected(self, federation):
        with pytest.raises(ConstraintError, match="no columns"):
            federation.register_constraint(_pk(columns=()))

    def test_double_primary_key_reported(self, federation):
        federation.register_constraint(_pk())
        federation.register_constraint(_pk(name="second_pk", columns=("owner",)))
        with pytest.raises(ConstraintError, match="2 primary keys"):
            federation.engine.catalog.key_of("accounts")


class TestFamilies:
    def test_functional_dependency_validation(self, federation):
        good = FunctionalDependency(
            "owner_region", relation="accounts",
            determinants=("owner",), dependents=("region",),
        )
        federation.register_constraint(good)
        with pytest.raises(ConstraintError, match="both sides"):
            federation.register_constraint(FunctionalDependency(
                "overlap", relation="accounts",
                determinants=("owner",), dependents=("owner",),
            ))

    def test_inclusion_validation(self, federation):
        good = InclusionDependency(
            "rating_fk", relation="ratings", columns=("id",),
            referenced_relation="accounts", referenced_columns=("id",),
        )
        federation.register_constraint(good)
        with pytest.raises(ConstraintError, match="referencing"):
            federation.register_constraint(InclusionDependency(
                "bad_arity", relation="ratings", columns=("id",),
                referenced_relation="accounts", referenced_columns=("id", "owner"),
            ))

    def test_denial_validation(self, federation):
        x, o, b, r = (Variable(n) for n in "XOBR")
        good = DenialConstraint(
            "no_negative_balance",
            body=(pos(atom("accounts", x, o, b, r)), pos(atom("lt", b, 0))),
            witness=(x, b),
        )
        federation.register_constraint(good)
        assert "accounts" in good.relations

        with pytest.raises(ConstraintError, match="empty body"):
            federation.register_constraint(DenialConstraint("empty", body=()))
        with pytest.raises(ConstraintError, match="arity"):
            federation.register_constraint(DenialConstraint(
                "bad_arity", body=(pos(atom("accounts", x)),), witness=(x,),
            ))
        with pytest.raises(ConstraintError, match="positive"):
            federation.register_constraint(DenialConstraint(
                "only_negative",
                body=(neg(atom("accounts", x, o, b, r)),),
            ))
        stray = Variable("Stray")
        with pytest.raises(ConstraintError, match="witness"):
            federation.register_constraint(DenialConstraint(
                "unbound_witness",
                body=(pos(atom("accounts", x, o, b, r)), pos(atom("lt", b, 0))),
                witness=(stray,),
            ))
        with pytest.raises(ConstraintError, match="witness"):
            # A variable occurring only under negation is never bound either.
            federation.register_constraint(DenialConstraint(
                "negation_only_witness",
                body=(
                    pos(atom("accounts", x, o, b, r)),
                    neg(atom("ratings", stray, b)),
                ),
                witness=(stray,),
            ))

    def test_fingerprints_are_distinct(self, federation):
        one = _pk()
        other = _pk(name="other", columns=("owner",))
        assert one.fingerprint != other.fingerprint
