"""Saturating model families: golden tables, budgets, positivity boundary."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from quasibell import (
    assemble_behavior,
    chained_saturating_model,
    chained_score,
    chsh_saturating_model,
    correlation,
    lambda_local_score,
    local_expectation,
    validate_behavior,
    witness_chained,
    witness_chained_link,
)
from quasibell.constructions import (
    SymbolStrategy,
    model_from_strategies,
    saturating_strategies,
    saturating_weights,
)


def golden_two_setting_table(budget: Fraction) -> dict[tuple[int, int], tuple]:
    """The exact behavior of the four-strategy family, in twelfths."""
    n = Fraction(budget)

    def cell(k: Fraction) -> Fraction:
        return k / 12

    return {
        (0, 0): (cell(4 + n), cell(0), cell(4 - 2 * n), cell(4 + n)),
        (0, 1): (cell(0), cell(4 + n), cell(4 + n), cell(4 - 2 * n)),
        (1, 0): (cell(8 - n), cell(0), cell(0), cell(4 + n)),
        (1, 1): (cell(4 + n), cell(4 - 2 * n), cell(0), cell(4 + n)),
    }


class TestSymbolStrategy:
    def test_all_plus_strategy(self):
        strategy = SymbolStrategy(("+", "+"), ("+", "+"))
        model = model_from_strategies({"s": strategy}, {"s": 1.0})
        for x in range(2):
            assert local_expectation(model.response_A, x, "s") == 1.0
            assert local_expectation(model.response_B, x, "s") == 1.0
        assert lambda_local_score(model, "s", 2) == 2

    def test_negative_weight_strategy_scores_minus_two(self):
        strategy = SymbolStrategy(("+", "-"), ("-", "+"))
        model = model_from_strategies({"s": strategy}, {"s": 1.0})
        assert lambda_local_score(model, "s", 2) == -2

    def test_all_minus_strategy_correlates_positively(self):
        strategy = SymbolStrategy(("-", "-"), ("-", "-"))
        model = model_from_strategies({"s": strategy}, {"s": 1.0})
        behavior = assemble_behavior(model)
        for x_a in range(2):
            for x_b in range(2):
                assert correlation(behavior, x_a, x_b) == 1.0
        assert lambda_local_score(model, "s", 2) == 2

    def test_rejects_bad_symbols_and_lengths(self):
        with pytest.raises(ValueError):
            SymbolStrategy(("+", "x"), ("-", "+"))
        with pytest.raises(ValueError):
            SymbolStrategy(("+",), ("-", "+"))


class TestTwoSettingFamily:
    @pytest.mark.parametrize(
        "budget", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    )
    def test_golden_table_exact(self, budget):
        behavior = assemble_behavior(chsh_saturating_model(budget, exact=True))
        golden = golden_two_setting_table(budget)
        for pair, row in golden.items():
            assert behavior.table[pair] == row

    def test_weights_normalize_exactly_for_any_budget(self):
        for budget in (Fraction(0), Fraction(7, 5), Fraction(2), Fraction(17, 3)):
            weights = saturating_weights(budget, exact=True)
            assert sum(weights.values()) == 1
            assert 3 * (4 + budget) / 12 - budget / 4 == 1

    def test_unit_budget_row(self):
        behavior = assemble_behavior(chsh_saturating_model(Fraction(1), exact=True))
        assert behavior.table[(1, 0)] == (Fraction(7, 12), 0, 0, Fraction(5, 12))

    def test_zero_budget_is_classical(self):
        model = chsh_saturating_model(0)
        assert model.dist.is_all_positive()
        behavior = assemble_behavior(model)
        assert chained_score(behavior, 2) == pytest.approx(2.0)
        assert witness_chained_link(model, 1, behavior).selected == 0.0

    def test_tsirelson_budget(self):
        budget = 2 * (math.sqrt(2) - 1)
        behavior = assemble_behavior(chsh_saturating_model(budget))
        assert chained_score(behavior, 2) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_budget_out_of_range_raises(self):
        with pytest.raises(ValueError):
            chsh_saturating_model(2.1)
        with pytest.raises(ValueError):
            chsh_saturating_model(-0.1)

    def test_force_builds_invalid_model(self):
        model = chsh_saturating_model(2.5, force=True)
        assert not validate_behavior(assemble_behavior(model)).is_valid


class TestChainedFamily:
    def test_two_setting_instance_coincides(self):
        chained = assemble_behavior(chained_saturating_model(2, Fraction(1), exact=True))
        direct = assemble_behavior(chsh_saturating_model(Fraction(1), exact=True))
        assert chained.table == direct.table

    def test_three_settings_full_budget(self):
        behavior = assemble_behavior(chained_saturating_model(3, 2))
        assert chained_score(behavior, 3) == pytest.approx(6.0)
        assert validate_behavior(behavior).is_valid

    def test_five_settings_small_budget(self):
        behavior = assemble_behavior(chained_saturating_model(5, 0.5))
        assert chained_score(behavior, 5) == pytest.approx(8.5)
        for row in behavior.table.values():
            for value in row:
                assert -1e-12 <= value <= 1 + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_witness_matches_budget(self, n):
        model = chained_saturating_model(n, 1.25)
        assert witness_chained(model, n).total == pytest.approx(1.25)

    def test_strategy_shapes(self):
        strategies = saturating_strategies(4)
        assert strategies["1"].symbols_A == ("-", "-", "-", "-")
        assert strategies["1"].symbols_B == ("-", "-", "-", "+")
        assert strategies["2"].symbols_A == ("+", "-", "-", "-")
        assert strategies["2"].symbols_B == ("-", "-", "-", "-")
        assert strategies["3"].symbols_A == ("+", "+", "+", "+")
        assert strategies["4"].symbols_A == ("+", "-", "-", "-")
        assert strategies["4"].symbols_B == ("-", "-", "-", "+")


class TestPositivityBoundary:
    @staticmethod
    def first_invalid_budget(n: int) -> float:
        """Bisect for the smallest budget whose behavior goes invalid."""
        lo, hi = 0.0, 4.0
        assert validate_behavior(
            assemble_behavior(chained_saturating_model(n, lo, force=True)), tol=1e-12
        ).is_valid
        assert not validate_behavior(
            assemble_behavior(chained_saturating_model(n, hi, force=True)), tol=1e-12
        ).is_valid
        while hi - lo > 1e-7:
            mid = (lo + hi) / 2
            behavior = assemble_behavior(chained_saturating_model(n, mid, force=True))
            if validate_behavior(behavior, tol=1e-12).is_valid:
                lo = mid
            else:
                hi = mid
        return hi

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_boundary_sits_at_two(self, n):
        assert self.first_invalid_budget(n) == pytest.approx(2.0, abs=1e-6)

    def test_negative_cells_are_covered_below_boundary(self):
        # every cell the negative strategy populates is also populated by at
        # least one positive strategy, for every setting pair
        strategies = saturating_strategies(4)
        negative = strategies["4"]
        for x_a in range(4):
            for x_b in range(4):
                cell = (negative.signs_A()[x_a], negative.signs_B()[x_b])
                covered = any(
                    (strategies[lab].signs_A()[x_a], strategies[lab].signs_B()[x_b]) == cell
                    for lab in ("1", "2", "3")
                )
                assert covered
