"""Scores, per-hidden-value scores, and the witness-augmented bound check."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

from quasibell import (
    assemble_behavior,
    chained_saturating_model,
    chained_score,
    check_quasi_bell,
    chsh_saturating_model,
    correlation,
    enumerate_deterministic,
    lambda_local_score,
    mixture_score,
    quantum_behavior,
    singlet_state,
)
from quasibell.constructions import SymbolStrategy, model_from_strategies

from conftest import diagonal_models, random_model, random_valid_model


class TestChshScore:
    @pytest.mark.parametrize("budget", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_saturating_model_scores_two_plus_budget(self, budget):
        behavior = assemble_behavior(chsh_saturating_model(budget))
        assert chained_score(behavior, 2) == pytest.approx(2 + budget)

    def test_full_budget_reaches_no_signalling_ceiling(self):
        behavior = assemble_behavior(chsh_saturating_model(2))
        assert chained_score(behavior, 2) == pytest.approx(4.0)

    def test_singlet_at_optimal_angles(self):
        behavior = quantum_behavior(
            singlet_state(), [0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4]
        )
        assert chained_score(behavior, 2) == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_needs_two_settings(self):
        behavior = quantum_behavior(singlet_state(), [0.0], [0.0])
        with pytest.raises(ValueError):
            chained_score(behavior, 2)


class TestChainedScore:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("budget", [0.0, 1.0, 2.0])
    def test_family_scores(self, n, budget):
        behavior = assemble_behavior(chained_saturating_model(n, budget))
        assert chained_score(behavior, n) == pytest.approx(2 * n - 2 + budget)

    def test_deterministic_strategies_respect_classical_bound(self):
        n = 3
        symbol = {+1: "+", -1: "-"}
        for sa in enumerate_deterministic(n):
            for sb in enumerate_deterministic(n):
                strategy = SymbolStrategy(tuple(map(symbol.get, sa)), tuple(map(symbol.get, sb)))
                model = model_from_strategies({"1": strategy}, {"1": 1.0})
                behavior = assemble_behavior(model)
                assert chained_score(behavior, n) <= 2 * n - 2 + 1e-12

    def test_two_setting_chain_equals_chsh_combination(self, rng):
        def chsh(b):
            return abs(correlation(b, 0, 0) - correlation(b, 0, 1)
                       + correlation(b, 1, 0) + correlation(b, 1, 1))

        behavior = assemble_behavior(chsh_saturating_model(1))
        assert chained_score(behavior, 2).hex() == chsh(behavior).hex()
        for _ in range(50):
            b = assemble_behavior(random_model(rng, n_settings=2))
            assert chained_score(b, 2).hex() == chsh(b).hex()

    def test_rejects_short_chains_and_missing_settings(self):
        behavior = assemble_behavior(chsh_saturating_model(1))
        with pytest.raises(ValueError):
            chained_score(behavior, 1)
        with pytest.raises(ValueError):
            chained_score(behavior, 3)


class TestLambdaLocalScore:
    def test_two_setting_family_strategy_scores(self):
        model = chsh_saturating_model(1)
        for label in ("1", "2", "3"):
            assert lambda_local_score(model, label, 2) == 2
        assert lambda_local_score(model, "4", 2) == -2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_chained_family_strategy_scores(self, n):
        model = chained_saturating_model(n, 1)
        for label in ("1", "2", "3"):
            assert lambda_local_score(model, label, n) == 2 * n - 2
        assert lambda_local_score(model, "4", n) == 2 * n - 6

    def test_uniform_noise_scores_zero(self):
        from quasibell import LocalResponse, Model, QuasiDist

        table = {(x, "1"): (0.5, 0.5) for x in range(2)}
        model = Model(
            LocalResponse("A", 2, ("1",), table),
            LocalResponse("B", 2, ("1",), dict(table)),
            QuasiDist.diagonal({"1": 1.0}),
        )
        assert lambda_local_score(model, "1", 2) == 0.0

    def test_joint_point_lookup_and_errors(self):
        model = chsh_saturating_model(1)
        assert lambda_local_score(model, ("4", "4"), 2) == -2
        with pytest.raises(KeyError):
            lambda_local_score(model, "9", 2)

    @given(model=diagonal_models(n_settings=3, signed=True))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_classical_extremes(self, model):
        for point in model.dist.support:
            assert abs(lambda_local_score(model, point, 3)) <= 4 + 1e-12


class TestBoundCheck:
    def test_half_budget_saturates(self):
        report = check_quasi_bell(chsh_saturating_model(0.5), 2)
        assert report.score == pytest.approx(2.5)
        assert report.bound == pytest.approx(2.5)
        assert report.holds
        assert report.margin == pytest.approx(0.0, abs=1e-9)

    def test_positive_model_reduces_to_classical_bound(self, rng):
        model = random_model(rng, force_negative=False)
        while not model.dist.is_all_positive():
            model = random_model(rng, force_negative=False)
        report = check_quasi_bell(model, 2)
        assert report.witness_total == 0.0
        assert report.bound == pytest.approx(2.0)
        assert report.holds

    def test_chained_family_at_four_settings(self):
        report = check_quasi_bell(chained_saturating_model(4, 1), 4)
        assert report.score == pytest.approx(7.0)
        assert report.bound == pytest.approx(7.0)
        assert report.holds

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_family_margin_vanishes_on_budget_grid(self, n):
        for step in range(9):
            budget = step * 0.25
            report = check_quasi_bell(chained_saturating_model(n, budget), n)
            assert report.margin == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_score_identity(self, rng):
        for _ in range(50):
            model = random_model(rng, n_settings=2)
            report = check_quasi_bell(model, 2)
            assert report.lambda_mixture_score == pytest.approx(report.score, abs=1e-9)
            assert mixture_score(model, 2) == pytest.approx(
                chained_score(assemble_behavior(model), 2), abs=1e-9
            )

    def test_validity_ceiling(self, rng):
        for _ in range(50):
            model, behavior = random_valid_model(rng, n_settings=3)
            assert chained_score(behavior, 2) <= 4 + 1e-9
            assert chained_score(behavior, 3) <= 6 + 1e-9

    @given(model=diagonal_models(n_settings=2, signed=True))
    @settings(max_examples=200, deadline=None)
    def test_bound_holds_for_signed_models_two_settings(self, model):
        assert check_quasi_bell(model, 2).holds

    @given(model=diagonal_models(n_settings=3, signed=True))
    @settings(max_examples=200, deadline=None)
    def test_bound_holds_for_signed_models_three_settings(self, model):
        assert check_quasi_bell(model, 3).holds
