"""Batch-blindness of the physical operators.

Operators exchange row batches whose sizes follow ``operators.BATCH_RAMP``.
The contract pinned here: batch size is never observable.

* Rows and row order of any operator tree are the same at one-row batches
  (the historical row-at-a-time behaviour), at 2, at 7 and at the default
  ramp — and, unbudgeted, equal an independent evaluation of the same tree
  by the interpreted :class:`ExpressionEvaluator` and plain Python loops.
* Under a budget small enough to spill, pipelines of the shape the engine
  builds (at most one operator's reservation growing at a time) also keep
  ``MemoryBudget.snapshot()`` identical: the refused row, ``peak_bytes``,
  ``spill_count``, ``spilled_rows`` and ``spilled_bytes`` do not move, so
  the Grace join order (which depends on *whether* the build spilled) does
  not either.
* An operator tree is a *template*: executions bind copies of it
  (``rebind``/``over``) to their own inputs and budget.  A template hit —
  the second and third execution of one shared tree — is indistinguishable
  from a miss (a tree built for the occasion): rows, order, ``rows_out`` per
  operator and the budget's accounting, at every batch size.
"""

from contextlib import contextmanager
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.executor import _InstrumentedOperator
from repro.relational import operators
from repro.relational.budget import MemoryBudget
from reference_eval import ExpressionEvaluator, reference_aggregate, reference_groups
from repro.relational.operators import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    Project,
    Sort,
    TableScan,
    UnionAll,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import sort_key, sql_equal
from repro.sql.parser import parse_expression

RAMPS = ((1,), (2,), (7,), operators.BATCH_RAMP)


@contextmanager
def batch_ramp(ramp):
    saved = operators.BATCH_RAMP
    operators.BATCH_RAMP = ramp
    try:
        yield
    finally:
        operators.BATCH_RAMP = saved


def _relation(name, rows):
    schema = Schema.of("k:integer", "v:integer", "s:string", qualifier=name)
    relation = Relation(schema, name=name, validate=False)
    relation.rows = list(rows)
    return relation


# -- generated inputs --------------------------------------------------------------

# Keys mix int/float/Decimal/str and NULL; 1, 1.0 and Decimal("1") must meet
# in one hash bucket, and so must 0 and -0.0.  Decimals are binary-exact so
# bucket equality (float) and SQL equality (Decimal == float) agree.
KEYS = st.sampled_from(
    [None, 0, 1, 2, 3, -0.0, 1.0, 2.5, Decimal("1"), Decimal("2.5"), "a", "b", "1"]
)
ROWS = st.lists(
    st.tuples(KEYS, st.one_of(st.none(), st.integers(0, 5)), st.sampled_from("abc")),
    min_size=0, max_size=24,
)

#: Predicate texts per column kind; ``{c}`` is the column reference.
PREDICATES = {
    "key": ["{c} IS NULL", "{c} IS NOT NULL", "{c} = 1", "{c} = 'a'"],
    "num": ["{c} > 2", "{c} <= 3", "{c} + 1 > 3", "{c} IS NULL"],
    "str": ["{c} = 'a'", "{c} <> 'b'"],
}


#: Aggregate call texts per column kind.  Keys mix strings and numbers, which
#: only COUNT can take; ``COUNT(DISTINCT key)`` must count 1, 1.0 and
#: Decimal("1") once.
AGGREGATES = {
    "key": ["COUNT({c})", "COUNT(DISTINCT {c})"],
    "num": ["COUNT({c})", "SUM({c})", "SUM(DISTINCT {c})", "AVG({c})", "MIN({c})",
            "MAX({c} + 1)"],
    "str": ["COUNT(DISTINCT {c})", "MIN({c})", "MAX({c})"],
}


def _scan_columns(name):
    return [(f"{name}.k", "key"), (f"{name}.v", "num"), (f"{name}.s", "str")]


def _predicate(draw, columns):
    column, kind = draw(st.sampled_from(columns))
    return draw(st.sampled_from(PREDICATES[kind])).format(c=column)


def _source(draw, names):
    """A join input: a scan, possibly filtered."""
    name = names.pop()
    spec, columns = ("scan", name), _scan_columns(name)
    if draw(st.booleans()):
        spec = ("filter", spec, _predicate(draw, columns))
    return spec, columns


def _pipeline(draw, engine_shaped, counter):
    """One branch: joins over (filtered) scans, then unary stages.

    ``engine_shaped`` keeps a Distinct from sitting beneath anything that
    reserves memory or stops early (the engine finalizes Project -> Sort ->
    Distinct, and builds joins from staged scans), which is the shape whose
    budget accounting is exact at every batch size.
    """
    names = ["c", "b", "a"]
    spec, columns = _source(draw, names)
    for _ in range(draw(st.integers(0, 2))):
        right, right_columns = _source(draw, names)
        if not engine_shaped and draw(st.booleans()):
            right = ("distinct", right)
        kind = draw(st.sampled_from(["hash", "hash", "nlj"]))
        if kind == "hash":
            pairs = [
                (draw(st.sampled_from(columns))[0], draw(st.sampled_from(right_columns))[0])
                for _ in range(draw(st.integers(1, 2)))
            ]
            residual = (_predicate(draw, columns + right_columns)
                        if draw(st.booleans()) else None)
            spec = ("hash", spec, right, pairs, residual)
        else:
            left_column = draw(st.sampled_from(columns))[0]
            right_column = draw(st.sampled_from(right_columns))[0]
            condition = draw(st.sampled_from(
                [None, f"{left_column} = {right_column}",
                 _predicate(draw, columns + right_columns)]
            ))
            spec = ("nlj", spec, right, condition)
        columns = columns + right_columns

    stages = draw(st.lists(
        st.sampled_from(["filter", "project", "sort", "distinct", "limit", "aggregate"]),
        max_size=4,
    ))
    if engine_shaped and "distinct" in stages:
        # Nothing but filters and projections above a Distinct.
        at = stages.index("distinct")
        stages = [stage for stage in stages[:at] if stage != "distinct"] + ["distinct"] + [
            stage for stage in stages[at + 1:] if stage in ("filter", "project")
        ]
    for stage in stages:
        if stage == "filter":
            spec = ("filter", spec, _predicate(draw, columns))
        elif stage == "project":
            picked = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3))
            items, projected = [], []
            for column, kind in picked:
                counter[0] += 1
                name = f"c{counter[0]}"
                if kind == "num" and draw(st.booleans()):
                    items.append((f"{column} * 2", name))
                else:
                    items.append((column, name))
                projected.append((name, kind))
            spec, columns = ("project", spec, items), projected
        elif stage == "sort":
            keys = [
                (column, draw(st.booleans()))
                for column, _kind in draw(
                    st.lists(st.sampled_from(columns), min_size=1, max_size=2)
                )
            ]
            top_k = draw(st.one_of(st.none(), st.integers(0, 6)))
            spec = ("sort", spec, keys, top_k)
        elif stage == "distinct":
            spec = ("distinct", spec)
        elif stage == "aggregate":
            # The appended columns have no spelling: later stages see them in
            # the rows (a Distinct compares them) but name only ``columns``.
            group_by = [column for column, _kind in draw(
                st.lists(st.sampled_from(columns), max_size=2))]
            calls = ["COUNT(*)"] + [
                draw(st.sampled_from(AGGREGATES[kind])).format(c=column)
                for column, kind in draw(st.lists(st.sampled_from(columns), max_size=3))
            ]
            spec = ("aggregate", spec, group_by, calls)
        else:
            spec = ("limit", spec, draw(st.one_of(st.none(), st.integers(0, 6))),
                    draw(st.integers(0, 4)))
    return spec, columns


@st.composite
def cases(draw, engine_shaped=False):
    relations = {name: draw(ROWS) for name in "abc"}
    counter = [0]
    spec, columns = _pipeline(draw, engine_shaped, counter)
    if draw(st.booleans()):
        # UNION ALL of two branches projected to one arity.
        branches = []
        for branch, branch_columns in ((spec, columns),
                                       _pipeline(draw, engine_shaped, counter)):
            items = []
            for position in range(2):
                counter[0] += 1
                column = branch_columns[position % len(branch_columns)][0]
                items.append((column, f"c{counter[0]}"))
            branches.append(("project", branch, items))
        spec = ("union", branches)
    return relations, spec


def build(spec, relations, budget=None):
    """A fresh operator tree for ``spec`` drawing on ``budget``."""
    kind = spec[0]
    if kind == "scan":
        return TableScan(_relation(spec[1], relations[spec[1]]))
    if kind == "filter":
        return Filter(build(spec[1], relations, budget), parse_expression(spec[2]))
    if kind == "project":
        return Project(build(spec[1], relations, budget),
                       [parse_expression(text) for text, _name in spec[2]],
                       [name for _text, name in spec[2]])
    if kind == "hash":
        _kind, left, right, pairs, residual = spec
        return HashJoin(
            build(left, relations, budget), build(right, relations, budget),
            [parse_expression(pair[0]) for pair in pairs],
            [parse_expression(pair[1]) for pair in pairs],
            residual=parse_expression(residual) if residual else None,
            budget=budget,
        )
    if kind == "nlj":
        _kind, left, right, condition = spec
        return NestedLoopJoin(
            build(left, relations, budget), build(right, relations, budget),
            parse_expression(condition) if condition else None,
        )
    if kind == "sort":
        _kind, child, keys, top_k = spec
        return Sort(build(child, relations, budget),
                    [(parse_expression(column), ascending) for column, ascending in keys],
                    budget=budget, limit=top_k)
    if kind == "distinct":
        return Distinct(build(spec[1], relations, budget), budget=budget)
    if kind == "aggregate":
        return Aggregate(build(spec[1], relations, budget),
                         [parse_expression(text) for text in spec[2]],
                         [parse_expression(text) for text in spec[3]])
    if kind == "limit":
        return Limit(build(spec[1], relations, budget), spec[2], spec[3])
    assert kind == "union"
    return UnionAll([build(branch, relations, budget) for branch in spec[1]])


# -- the independent reference ---------------------------------------------------------

def _same(left, right):
    return (left is None and right is None) or sql_equal(left, right) is True


def reference(operator):
    """Rows of ``operator``'s tree by interpreted expressions and plain loops."""
    if isinstance(operator, TableScan):
        return list(operator.relation.rows)
    if isinstance(operator, Filter):
        keep = ExpressionEvaluator(operator.child.schema).predicate(operator.condition)
        return [row for row in reference(operator.child) if keep(row) is True]
    if isinstance(operator, Project):
        evaluator = ExpressionEvaluator(operator.child.schema)
        return [tuple(evaluator.evaluate(expr, row) for expr in operator.expressions)
                for row in reference(operator.child)]
    if isinstance(operator, NestedLoopJoin):
        keep = (ExpressionEvaluator(operator.schema).predicate(operator.condition)
                if operator.condition is not None else None)
        return [left + right
                for left in reference(operator.left) for right in reference(operator.right)
                if keep is None or keep(left + right) is True]
    if isinstance(operator, HashJoin):
        left_eval = ExpressionEvaluator(operator.left.schema)
        right_eval = ExpressionEvaluator(operator.right.schema)
        keep = (ExpressionEvaluator(operator.schema).predicate(operator.residual)
                if operator.residual is not None else None)
        right_rows = reference(operator.right)
        return [
            left + right
            for left in reference(operator.left) for right in right_rows
            if all(sql_equal(left_eval.evaluate(lk, left),
                             right_eval.evaluate(rk, right)) is True
                   for lk, rk in zip(operator.left_keys, operator.right_keys))
            and (keep is None or keep(left + right) is True)
        ]
    if isinstance(operator, Sort):
        evaluator = ExpressionEvaluator(operator.child.schema)
        rows = reference(operator.child)
        # A cascade of stable sorts, last key first (reverse=True keeps equal
        # rows in input order too).
        for expr, ascending in reversed(operator.keys):
            rows = sorted(rows, key=lambda row: sort_key(evaluator.evaluate(expr, row)),
                          reverse=not ascending)
        return rows if operator.limit is None else rows[:operator.limit]
    if isinstance(operator, Distinct):
        kept = []
        for row in reference(operator.child):
            if not any(all(_same(a, b) for a, b in zip(row, other)) for other in kept):
                kept.append(row)
        return kept
    if isinstance(operator, Aggregate):
        schema = operator.child.schema
        evaluator = ExpressionEvaluator(schema)
        return [
            (group[0] if group else (None,) * len(schema))
            + tuple(reference_aggregate(call, group, evaluator) for call in operator.calls)
            for group in reference_groups(reference(operator.child), schema, operator.group_by)
        ]
    if isinstance(operator, Limit):
        rows = reference(operator.child)[operator.offset:]
        return rows if operator.count is None else rows[:operator.count]
    assert isinstance(operator, UnionAll)
    return [row for child in operator.inputs for row in reference(child)]


def _reprs(rows):
    # repr distinguishes 1 from 1.0 from Decimal("1"), which == does not.
    return [repr(row) for row in rows]


# -- properties -------------------------------------------------------------------------

class TestBatchBlindRows:
    @settings(max_examples=150, deadline=None)
    @given(cases())
    def test_any_tree_any_batch_size_equals_the_interpreted_reference(self, case):
        relations, spec = case
        expected = _reprs(reference(build(spec, relations)))
        for ramp in RAMPS:
            with batch_ramp(ramp):
                assert _reprs(build(spec, relations)) == expected, ramp

    @settings(max_examples=150, deadline=None)
    @given(cases(engine_shaped=True), st.integers(100, 1200))
    def test_budgeted_rows_order_and_accounting_do_not_depend_on_batch_size(
            self, case, limit_bytes):
        relations, spec = case
        outcomes = []
        for ramp in RAMPS:
            budget = MemoryBudget(limit_bytes)
            with batch_ramp(ramp):
                rows = _reprs(build(spec, relations, budget))
            assert budget.used_bytes == 0
            outcomes.append((rows, budget.snapshot()))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])


def _wide_rows(count):
    return [((index * 37) % 211, (index * 13) % 29, f"s{index % 7}") for index in range(count)]


class TestExactSpillPoint:
    """Deterministic, multi-batch inputs (1500 rows cross the 64/256/1024
    steps): each budgeted operator spills at the same row whatever the batch
    size, so every accounting figure is identical."""

    RELATIONS = {"a": _wide_rows(1500), "b": _wide_rows(1100), "c": []}
    SPECS = {
        "hash_join": ("hash", ("scan", "a"), ("scan", "b"), [("a.k", "b.k")], None),
        "sort": ("sort", ("scan", "a"), [("a.v", False), ("a.k", True)], None),
        "distinct": ("distinct", ("project", ("scan", "a"), [("a.k", "k"), ("a.s", "s")])),
        "join_sort_distinct": (
            "distinct",
            ("sort",
             ("project",
              ("hash", ("scan", "a"), ("scan", "b"), [("a.k", "b.k")], "a.v <= b.v"),
              [("a.k", "k"), ("b.v", "v")]),
             [("v", True)], None),
        ),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_spill_accounting_is_identical_across_batch_sizes(self, name):
        spec = self.SPECS[name]
        outcomes = []
        for ramp in RAMPS:
            budget = MemoryBudget(16 * 1024)
            with batch_ramp(ramp):
                rows = list(build(spec, self.RELATIONS, budget))
            assert budget.used_bytes == 0
            outcomes.append((rows, budget.snapshot()))
        assert outcomes[0][1]["spill_count"] >= 1
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])


# -- templates: a hit is a miss ------------------------------------------------------

def execute(template, relations, budget):
    """Bind ``template`` the way the engine does — one copy per operator over
    fresh input relations, every copy instrumented — and drain it."""
    stats = []

    def bind(operator):
        if isinstance(operator, TableScan):
            name = operator.relation.name
            bound = operator.over(_relation(name, relations[name]))
        else:
            bound = operator.rebind([bind(child) for child in operator.children], budget)
        stats.append(_InstrumentedOperator(bound, 0))
        return stats[-1]

    rows = _reprs(bind(template))
    if budget is not None:
        assert budget.used_bytes == 0
    return (rows, [(entry.operator, entry.rows_out) for entry in stats],
            [_spill_flags(entry.child) for entry in stats],
            budget.snapshot() if budget is not None else None)


def _spill_flags(operator):
    return getattr(operator, "spilled", None), getattr(operator, "spill_runs", None)


def _tree(operator):
    yield operator
    for child in operator.children:
        yield from _tree(child)


def _budget(limit_bytes):
    return MemoryBudget(limit_bytes) if limit_bytes is not None else None


def assert_hit_equals_miss(spec, relations, limit_bytes):
    for ramp in RAMPS:
        with batch_ramp(ramp):
            shared = build(spec, relations)
            hits = [execute(shared, relations, _budget(limit_bytes)) for _ in range(2)]
            miss = execute(build(spec, relations), relations, _budget(limit_bytes))
        assert hits[0] == hits[1] == miss, ramp
        # The template itself never ran: what its copies did left no trace.
        assert all(flag in (None, False, 0)
                   for operator in _tree(shared) for flag in _spill_flags(operator))
    return miss


class TestTemplateHitEqualsMiss:
    @settings(max_examples=100, deadline=None)
    @given(cases(engine_shaped=True), st.one_of(st.none(), st.integers(100, 1200)))
    def test_generated_trees(self, case, limit_bytes):
        relations, spec = case
        assert_hit_equals_miss(spec, relations, limit_bytes)

    @pytest.mark.parametrize("limit_bytes", [None, 64 * 1024])
    @pytest.mark.parametrize("name", sorted(TestExactSpillPoint.SPECS))
    def test_spilling_trees(self, name, limit_bytes):
        _rows, _produced, spilled, accounting = assert_hit_equals_miss(
            TestExactSpillPoint.SPECS[name], TestExactSpillPoint.RELATIONS, limit_bytes)
        if limit_bytes:
            assert accounting["spill_count"] >= 1
            assert any(flag for flags in spilled for flag in flags)

    def test_a_template_serves_other_data_than_it_was_built_over(self):
        spec = TestExactSpillPoint.SPECS["join_sort_distinct"]
        template = build(spec, {"a": [], "b": [], "c": []})
        relations = TestExactSpillPoint.RELATIONS
        assert execute(template, relations, None)[0] == _reprs(build(spec, relations))


# -- kept builds: probing the last build is rebuilding it -----------------------------

def _bind_staged(operator, relations, budget, origins, stats, listed=True):
    # Not a closure inside ``execute_staged``: a recursive closure is a cycle
    # that would keep the bound operators (and so the origins) alive.
    if isinstance(operator, TableScan):
        name = operator.relation.name
        staged = _relation(name, relations[name])
        staged.origin = origins.get(name)
        bound = operator.over(staged)
    else:
        bound = operator.rebind(
            [_bind_staged(child, relations, budget, origins, stats, listed=not position)
             for position, child in enumerate(operator.children)], budget)
    if not listed:
        return bound
    stats.append(_InstrumentedOperator(bound, 0))
    return stats[-1]


def execute_staged(template, relations, budget, origins):
    """Bind ``template`` the way ``ResultStream._bind`` does — a join's first
    input is the listed pipeline, its build input an unlisted bare scan — over
    relations staged from ``origins`` (name -> the stored relation the rows
    came from, absent for a plain fetch), and drain it."""
    stats = []
    rows = _reprs(_bind_staged(template, relations, budget, origins, stats))
    assert budget.used_bytes == 0
    # A join beneath a LIMIT 0 or a top-0 sort is never asked for a batch: it
    # builds nothing, so there is nothing to keep (its clock never advanced).
    joins = [(entry.child, entry.elapsed_seconds > 0)
             for entry in stats if entry.operator == "HashJoin"]
    return ((rows, [(entry.operator, entry.rows_out) for entry in stats],
             [_spill_flags(entry.child) for entry in stats], budget.snapshot()),
            [join.build_shared for join, _ran in joins],
            [ran and join.right.__class__ is TableScan and not join.spilled
             for join, ran in joins])


def _origins(relations):
    return {name: _relation(name, rows) for name, rows in relations.items()}


def assert_kept_build_equals_rebuild(spec, relations, limit_bytes):
    for ramp in RAMPS:
        with batch_ramp(ramp):
            shared, origins = build(spec, relations), _origins(relations)
            runs = [execute_staged(shared, relations, MemoryBudget(limit_bytes), origins)
                    for _ in range(4)]
            rebuilt, probed, _ = execute_staged(
                build(spec, relations), relations, MemoryBudget(limit_bytes), origins)
        (_, probed_0, keepable), (_, probed_1, _), (_, probed_2, _), (_, probed_3, _) = runs
        # Rows, order, rows_out, spill flags and the whole budget snapshot
        # (peak_bytes, spill_count, spilled_rows, spilled_bytes).
        assert all(run[0] == rebuilt for run in runs), ramp
        # The first build over an origin names it, the second keeps it.
        assert not any(probed_0) and not any(probed_1) and not any(probed)
        # Every in-memory build over a bare scan was kept — and only those.
        assert probed_2 == probed_3 == keepable, ramp
    return rebuilt, keepable


class TestKeptBuildEqualsRebuild:
    @settings(max_examples=100, deadline=None)
    @given(cases(engine_shaped=True), st.one_of(st.none(), st.integers(100, 1200)))
    def test_generated_trees(self, case, limit_bytes):
        relations, spec = case
        assert_kept_build_equals_rebuild(spec, relations, limit_bytes)

    @pytest.mark.parametrize("limit_bytes", [None, 64 * 1024, 1024 * 1024])
    @pytest.mark.parametrize("name", ["hash_join", "join_sort_distinct"])
    def test_multi_batch_builds(self, name, limit_bytes):
        (_rows, _produced, _spilled, accounting), keepable = assert_kept_build_equals_rebuild(
            TestExactSpillPoint.SPECS[name], TestExactSpillPoint.RELATIONS, limit_bytes)
        # 1100 build rows are ~80 KB: kept unless the budget is 64 KiB, where
        # the build spills on every execution and nothing is ever kept.
        assert keepable == [limit_bytes != 64 * 1024]
        assert (accounting["spill_count"] >= 1) == (limit_bytes == 64 * 1024)

    def test_a_budget_that_refuses_the_kept_bytes_spills_like_a_first_build(self):
        spec, relations = TestExactSpillPoint.SPECS["hash_join"], TestExactSpillPoint.RELATIONS
        shared, origins = build(spec, relations), _origins(relations)
        kept, _, keepable = [execute_staged(shared, relations, MemoryBudget(None), origins)
                             for _ in range(2)][-1]
        assert keepable == [True] and shared._kept.build[3] > 16 * 1024
        for ramp in RAMPS:
            with batch_ramp(ramp):
                tight, probed, _ = execute_staged(
                    shared, relations, MemoryBudget(16 * 1024), origins)
                fresh, _, _ = execute_staged(
                    build(spec, relations), relations, MemoryBudget(16 * 1024), origins)
            # The refusal reserved nothing: same refused row, same Grace order.
            assert tight == fresh and probed == [False], ramp
            assert tight[3]["spill_count"] == 1 and tight[3]["spilled_bytes"] > 0
            assert tight[3]["peak_bytes"] <= 16 * 1024
        # The spilled execution left the kept build alone.
        again, probed, _ = execute_staged(shared, relations, MemoryBudget(None), origins)
        assert again == kept and probed == [True]

    def test_another_origin_rebuilds_and_a_dead_origin_frees_the_slot(self):
        spec = ("hash", ("scan", "a"), ("scan", "b"), [("a.k", "b.k")], None)
        old = {"a": [(1, 1, "x"), (2, 2, "y")], "b": [(1, 10, "p"), (1, 11, "q")], "c": []}
        new = {"a": old["a"], "b": [(2, 20, "r")], "c": []}
        shared, origins = build(spec, old), _origins(old)
        execute_staged(shared, old, MemoryBudget(None), origins)
        origin = shared._kept.build[0]
        assert origin() is origins["b"]

        # No origin (a plain fetch), then another one (the entry was re-put):
        # all build; only builds that name their origin count, and only the
        # second over the same origin is kept.
        plain = execute_staged(shared, new, MemoryBudget(None), {})
        assert plain[1] == [False] and shared._kept.build[0] is origin
        replaced = _origins(new)
        first, second, third = [execute_staged(shared, new, MemoryBudget(None), replaced)
                                for _ in range(3)]
        assert (first[1], second[1], third[1]) == ([False], [False], [True])
        assert plain[0] == first[0] == second[0] == third[0]
        assert first[0][0] == [repr((2, 2, "y", 2, 20, "r"))]

        # The slot holds its origin weakly and empties the moment it dies —
        # by reference count, no collector involved.
        assert shared._kept.build[0]() is replaced["b"]
        del replaced["b"]
        assert shared._kept.build is None
        del origins["b"]  # the first origin's callback finds nothing of its own
        assert origin() is None and shared._kept.build is None
