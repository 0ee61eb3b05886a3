"""Unit tests for the mediation guard normalizer."""

from repro.coin.context import Guard
from repro.mediation.constraints import normalize_guards


class TestConsistency:
    def test_equal_different_constants_inconsistent(self):
        assert normalize_guards([Guard("r1.currency", "=", "USD")])
        assert normalize_guards([Guard("r1.currency", "=", "USD"),
                                 Guard("r1.currency", "=", "JPY")]) is None

    def test_equal_and_not_equal_same_value_inconsistent(self):
        assert normalize_guards([Guard("c", "=", "USD"), Guard("c", "<>", "USD")]) is None

    def test_not_equal_then_equal_same_value_inconsistent(self):
        assert normalize_guards([Guard("c", "<>", "USD"), Guard("c", "=", "USD")]) is None

    def test_different_columns_never_interact(self):
        guards = [Guard("a", "=", 1), Guard("b", "=", 2), Guard("a", "<>", 2)]
        assert normalize_guards(guards) == (Guard("a", "=", 1), Guard("b", "=", 2))

    def test_numeric_coercion_in_values(self):
        assert normalize_guards([Guard("x", "=", 1), Guard("x", "<>", 1.0)]) is None

    def test_an_inconsistency_is_not_undone_by_later_guards(self):
        guards = [Guard("c", "=", "USD"), Guard("c", "=", "JPY"), Guard("other", "=", 1)]
        assert normalize_guards(guards) is None

    def test_no_guards_normalize_to_none_assumed(self):
        assert normalize_guards([]) == ()


class TestNormalization:
    def test_equality_absorbs_disequalities_to_other_values(self):
        """``c = 'USD'`` entails ``c <> 'JPY'``; only the equality remains."""
        assert normalize_guards([Guard("c", "=", "USD"), Guard("c", "<>", "JPY")]) == \
            (Guard("c", "=", "USD"),)
        assert normalize_guards([Guard("c", "<>", "JPY"), Guard("c", "=", "USD"),
                                 Guard("c", "=", "USD")]) == (Guard("c", "=", "USD"),)

    def test_normalized_drops_entailed_disequalities(self):
        """The paper's JPY branch carries only currency = 'JPY'."""
        assert normalize_guards([
            Guard("r1.currency", "<>", "USD"),
            Guard("r1.currency", "=", "JPY"),
        ]) == (Guard("r1.currency", "=", "JPY"),)

    def test_normalized_keeps_multiple_disequalities_sorted(self):
        normalized = normalize_guards([
            Guard("r1.currency", "<>", "USD"),
            Guard("r1.currency", "<>", "JPY"),
            Guard("r1.currency", "<>", "USD"),
        ])
        assert normalized == (Guard("r1.currency", "<>", "JPY"),
                              Guard("r1.currency", "<>", "USD"))

    def test_normalized_orders_by_column(self):
        normalized = normalize_guards([Guard("b", "=", 1), Guard("a", "=", 2)])
        assert [guard.column for guard in normalized] == ["a", "b"]

    def test_normalizing_twice_changes_nothing(self):
        once = normalize_guards([Guard("R1.Currency", "<>", "USD"), Guard("b", "<>", 2),
                                 Guard("b", "<>", 1)])
        assert normalize_guards(once) == once

    def test_case_insensitive_columns(self):
        assert normalize_guards([Guard("R1.Currency", "=", "USD"),
                                 Guard("r1.currency", "=", "JPY")]) is None
        assert normalize_guards([Guard("R1.Currency", "=", "USD")]) == \
            (Guard("r1.currency", "=", "USD"),)
