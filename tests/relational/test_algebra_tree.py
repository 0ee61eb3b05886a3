"""The planner's output is one well-formed tree per statement.

For every hand-written statement of ``test_cold_plan_identity.py`` (the
golden there pins *what* is planned; this pins the shape it is planned in)
under the five ``join_order`` modes: a branch's tree reads left-deep, brings
each request across exactly once, is equal and hashes equal to the tree of a
second planning, a one-branch statement runs with nothing above its
``Finish``, and a multi-branch statement with a finish runs it once, above
the ``Union``.
"""

import pytest

from repro.demo.scenarios import build_paper_federation
from repro.engine.planner import PlannerConfig, QueryPlanner
from repro.errors import ReproError
from repro.relational import algebra
from repro.relational.operators import UnionAll
from repro.sql.parser import finished_union, parse

from tests.engine.test_cold_plan_identity import (
    MEDIATED_STATEMENTS,
    MODES,
    PAPER_STATEMENTS,
)


@pytest.fixture(scope="module")
def federation():
    return build_paper_federation().federation


def _plans(federation, mode):
    """(label, plan twice over) of every statement the planner accepts."""
    planner = QueryPlanner(federation.engine.catalog, config=PlannerConfig(join_order=mode))
    planned = []
    for sql in PAPER_STATEMENTS:
        try:
            statement = parse(sql)
            planned.append((sql, planner.plan(statement), planner.plan(statement)))
        except ReproError:
            continue  # refused statements are the golden's business
    for sql in MEDIATED_STATEMENTS:
        mediation = federation.mediator.mediate(sql, "c_receiver")
        selects = [branch.select for branch in mediation.branches]
        planned.append((f"mediated|{sql}",
                        planner.plan_branches(selects, statement=mediation.mediated),
                        planner.plan_branches(selects, statement=mediation.mediated)))
    assert len(planned) > 30
    return planned


@pytest.mark.parametrize("mode", MODES)
def test_every_branch_tree_is_left_deep_and_complete(federation, mode):
    for label, plan, again in _plans(federation, mode):
        for branch in plan.branches:
            tree = branch.tree
            assert isinstance(tree, algebra.Finish), label
            assert tree.select is branch.select
            below = tree.target
            if isinstance(below, algebra.Selection):
                assert below.conditions, label
                below = below.target
            transfers, joins = algebra.left_deep(tree)
            # Each request crosses to the mediator exactly once, as the very
            # transfer it holds, over the scan its source is sent.
            assert (sorted(map(id, transfers))
                    == sorted(id(request.transfer) for request in branch.requests)), label
            assert len({transfer.binding for transfer in transfers}) == len(transfers), label
            for transfer in transfers:
                assert isinstance(transfer, algebra.Transfer), label
                assert isinstance(transfer.target, algebra.Scan), label
            # Left-deep: every join's right is a transfer, its left the join
            # before it (the first one's, the transfer the pipeline starts from).
            assert len(joins) == len(branch.requests) - 1, label
            assert below is (joins[-1] if joins else transfers[0]), label
            for position, join in enumerate(joins):
                assert join.right is transfers[position + 1], label
                assert join.left is (joins[position - 1] if position else transfers[0]), label
                if join.hash_join:
                    assert join.equi_keys, label
                    assert set(join.residual) <= set(join.conditions), label
                else:
                    assert join.equi_keys == () and join.residual == join.conditions, label


@pytest.mark.parametrize("mode", MODES)
def test_trees_are_structural_values(federation, mode):
    for label, plan, again in _plans(federation, mode):
        assert plan.root == again.root, label
        assert hash(plan.root) == hash(again.root), label
        if len(plan.branches) == 1:
            assert plan.root is plan.branches[0].tree, label
            continue
        union = plan.root
        if finished_union(plan.statement) is not None:
            # The statement's one finish, over the union of bare branches.
            assert plan.finish is plan.statement, label
            assert isinstance(union, algebra.Finish), label
            assert union.select is plan.statement, label
            union = union.target
        else:
            assert plan.finish is None, label
        assert isinstance(union, algebra.Union), label
        assert union.branches == tuple(b.tree for b in plan.branches), label
        assert union.all == plan.union_all, label


def test_estimates_are_annotations_not_structure(federation):
    plan = federation.engine.plan("SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname")
    [join] = algebra.left_deep(plan.branches[0].tree)[1]
    repriced = algebra.Join(join.left, join.right, join.conditions, join.hash_join,
                            join.equi_keys, join.residual,
                            estimated_rows=join.estimated_rows + 99,
                            feedback_key="other", estimate_source="feedback")
    assert repriced == join and hash(repriced) == hash(join)
    assert join.feedback_key and join.cost is not None


def test_only_a_union_runs_beneath_union_operators(federation, monkeypatch):
    built = []
    construct = UnionAll.__init__

    def counting(self, inputs):
        built.append(len(inputs))
        construct(self, inputs)

    monkeypatch.setattr(UnionAll, "__init__", counting)
    engine = federation.engine
    for sql in ("SELECT r1.cname FROM r1",
                "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname",
                "SELECT DISTINCT r1.currency FROM r1 LIMIT 2"):
        plan = engine.plan(sql)
        assert isinstance(plan.root, algebra.Finish)
        assert engine.execute(plan).relation.rows
    assert built == []
    union = engine.execute("SELECT r1.cname FROM r1 UNION SELECT r2.cname FROM r2")
    assert built == [2]
    assert len(union.relation.rows) == len(set(union.relation.rows)) > 0
