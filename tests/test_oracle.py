"""Brute force, LPs, quantum reference behaviors, sign-weighted sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from quasibell import (
    OUTCOME_PAIRS,
    Behavior,
    LPStatus,
    assemble_behavior,
    behavior_from_strategy_weights,
    chained_saturating_model,
    chained_score,
    chsh_saturating_model,
    classical_bound_bruteforce,
    enumerate_deterministic,
    max_score_lp,
    min_negativity_lp,
    quantum_behavior,
    signed_sample,
    singlet_state,
    validate_behavior,
)
from quasibell import oracle
from quasibell.constructions import SymbolStrategy, model_from_strategies

from conftest import random_model


def strategy_score(strategy_a, strategy_b, n: int) -> int:
    """Chained-combination score of a joint deterministic strategy.

    The loop form of a @ C @ b with C = `oracle._chain_coefficients(n)`; the
    LP builds its whole score vector from C and is tested against this.
    """
    total = sum(strategy_a[i] * strategy_b[i] for i in range(n))
    total += sum(strategy_a[i] * strategy_b[i - 1] for i in range(1, n))
    total -= strategy_a[0] * strategy_b[n - 1]
    return total


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 4), (3, 8), (1, 2)])
    def test_counts(self, n, count):
        strategies = enumerate_deterministic(n)
        assert len(strategies) == count
        assert len(set(strategies)) == count

    def test_joint_chsh_maximum_is_classical(self):
        best = max(
            abs(strategy_score(sa, sb, 2))
            for sa in enumerate_deterministic(2)
            for sb in enumerate_deterministic(2)
        )
        assert best == 2

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            enumerate_deterministic(17)


class TestBruteForce:
    @pytest.mark.parametrize("n,expected", [(n, 2.0 * n - 2) for n in range(2, 13)])
    def test_classical_bound(self, n, expected):
        assert classical_bound_bruteforce(n) == expected

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            classical_bound_bruteforce(13)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_separable_maximum_equals_exhaustive(self, n):
        signs = np.array(enumerate_deterministic(n), dtype=np.float64)
        exhaustive = np.abs(signs @ oracle._chain_coefficients(n) @ signs.T).max()
        assert classical_bound_bruteforce(n) == exhaustive


def _joint(n):
    strategies = enumerate_deterministic(n)
    return [(sa, sb) for sa in strategies for sb in strategies]


class TestStrategyGrid:
    """The array-built LP inputs equal their loop forms, bit for bit."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_behavior_matrix_matches_loops(self, n):
        joint = _joint(n)
        rows = []
        for x_a in range(n):
            for x_b in range(n):
                for (y_a, y_b) in OUTCOME_PAIRS:
                    rows.append(
                        [
                            1.0 if (sa[x_a] == y_a and sb[x_b] == y_b) else 0.0
                            for sa, sb in joint
                        ]
                    )
        assert np.array_equal(oracle._behavior_matrix(n), np.array(rows))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_lp_scores_match_strategy_score(self, n, monkeypatch):
        costs = []

        def capture(cost, **kwargs):
            costs.append(cost)
            return linprog(cost, **kwargs)

        linprog = oracle.linprog
        monkeypatch.setattr(oracle, "linprog", capture)
        max_score_lp(n, 1.0)
        expected = [strategy_score(sa, sb, n) for sa, sb in _joint(n)]
        # cost = (-scores, scores): the LP maximizes scores @ (u - v)
        assert costs[0].tolist() == [-s for s in expected] + expected


class TestMaxScoreLP:
    def test_unbounded_budget_reaches_four(self):
        result = max_score_lp(2, math.inf)
        assert result.status is LPStatus.OPTIMAL
        assert result.optimal_score == pytest.approx(4.0, abs=1e-7)

    def test_zero_budget_is_classical(self):
        result = max_score_lp(2, 0.0)
        assert result.optimal_score == pytest.approx(2.0, abs=1e-7)
        assert result.negative_mass == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("budget", [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0])
    def test_budget_curve(self, budget):
        # the saturating family shows min(4, 2 + budget/2) is feasible, and
        # each bracket is at most 4, so it is also the LP maximum
        result = max_score_lp(2, budget)
        assert result.optimal_score == pytest.approx(min(4.0, 2.0 + budget / 2), abs=1e-7)

    def test_tsirelson_budget_cross_check(self):
        witness_value = 2 * (math.sqrt(2) - 1)
        result = max_score_lp(2, 2 * witness_value)
        assert result.optimal_score >= 2 * math.sqrt(2) - 1e-7
        construction = assemble_behavior(chsh_saturating_model(witness_value))
        assert result.optimal_score == pytest.approx(chained_score(construction, 2), abs=1e-7)

    def test_monotone_in_budget(self):
        scores = [max_score_lp(3, b).optimal_score for b in (0.0, 0.5, 1.0, 2.0, math.inf)]
        assert all(a <= b + 1e-9 for a, b in zip(scores, scores[1:]))
        assert scores[-1] <= 2 * 3 + 1e-7

    @pytest.mark.parametrize("budget", [0.0, 1.0, 2.0, 4.0])
    def test_three_setting_curve_dominates_family(self, budget):
        # the four-strategy family realizes 2n-2 + budget/2, so the LP can
        # never fall below it; for n > 2 the LP does overshoot it at
        # intermediate budgets (cheaper routes to the ceiling exist), so only
        # the lower bound is asserted
        result = max_score_lp(3, budget)
        assert result.optimal_score >= min(6.0, 4.0 + budget / 2) - 1e-7

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_budget_agrees_with_brute_force(self, n):
        assert max_score_lp(n, 0.0).optimal_score == pytest.approx(
            classical_bound_bruteforce(n), abs=1e-7
        )

    def test_solution_weights_induce_valid_behavior(self):
        result = max_score_lp(2, 1.0)
        assert sum(result.weights.values()) == pytest.approx(1.0, abs=1e-7)
        behavior = behavior_from_strategy_weights(2, result.weights, tolerance=1e-6)
        report = validate_behavior(behavior, tol=1e-6)
        assert report.is_valid
        assert chained_score(behavior, 2) == pytest.approx(result.optimal_score, abs=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            max_score_lp(1, 0.0)
        with pytest.raises(ValueError):
            max_score_lp(2, -1.0)
        with pytest.raises(ValueError):
            max_score_lp(6, 0.0)

    def test_rejects_nan_budget(self):
        with pytest.raises(ValueError, match="negativity budget"):
            max_score_lp(2, math.nan)


class TestMinNegativityLP:
    def test_classical_mixture_needs_none(self, rng):
        model = random_model(rng, force_negative=False)
        while not model.dist.is_all_positive():
            model = random_model(rng, force_negative=False)
        result = min_negativity_lp(assemble_behavior(model))
        assert result.status is LPStatus.OPTIMAL
        assert result.negative_mass == pytest.approx(0.0, abs=1e-8)

    def test_pr_box_needs_at_most_the_construction_mass(self):
        target = assemble_behavior(chsh_saturating_model(2))
        result = min_negativity_lp(target)
        assert result.status is LPStatus.OPTIMAL
        assert result.negative_mass <= 0.5 + 1e-8
        assert result.optimal_score == pytest.approx(4.0, abs=1e-9)
        reproduced = behavior_from_strategy_weights(2, result.weights, tolerance=1e-6)
        for pair in target.setting_pairs():
            assert reproduced.table[pair] == pytest.approx(target.table[pair], abs=1e-7)

    @pytest.mark.parametrize("budget", [0.5, 1.0, 1.5, 2.0])
    def test_family_mass_is_never_beaten_upward(self, budget):
        target = assemble_behavior(chsh_saturating_model(budget))
        result = min_negativity_lp(target)
        assert result.negative_mass <= budget / 4 + 1e-8

    def test_tsirelson_behavior(self):
        target = quantum_behavior(
            singlet_state(), [0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4]
        )
        result = min_negativity_lp(target)
        assert result.status is LPStatus.OPTIMAL
        assert result.negative_mass >= 0.0
        assert result.optimal_score == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_signalling_target_is_infeasible(self):
        # Bob's marginal flips with Alice's setting: not reproducible by any
        # signed local mixture
        table = {
            (0, 0): (1.0, 0.0, 0.0, 0.0),
            (0, 1): (1.0, 0.0, 0.0, 0.0),
            (1, 0): (0.0, 1.0, 0.0, 0.0),
            (1, 1): (0.0, 1.0, 0.0, 0.0),
        }
        target = Behavior(2, 2, table)
        result = min_negativity_lp(target)
        assert result.status is LPStatus.INFEASIBLE
        # The solver's account survives a non-optimal status.
        assert isinstance(result.iterations, int) and result.iterations >= 0
        assert "infeasible" in result.solver_message.lower()
        payload = result.to_json_dict()
        assert payload["iterations"] == result.iterations
        assert payload["solver_message"] == result.solver_message


class TestSolverReport:
    def test_optimal_lp_reports_iterations_and_message(self):
        result = max_score_lp(3, 1.0)
        assert result.status is LPStatus.OPTIMAL
        assert isinstance(result.iterations, int) and result.iterations > 0
        assert "optimal" in result.solver_message.lower()
        payload = result.to_json_dict()
        assert payload["iterations"] == result.iterations
        assert payload["solver_message"] == result.solver_message

    def test_min_negativity_lp_reports_iterations(self):
        result = min_negativity_lp(assemble_behavior(chsh_saturating_model(1)))
        assert result.status is LPStatus.OPTIMAL
        assert isinstance(result.iterations, int) and result.iterations > 0
        assert result.solver_message

    @staticmethod
    def _assert_reproduces(result, target, n):
        assert result.status is LPStatus.OPTIMAL
        assert 0.0 <= result.primal_residual <= 1e-9
        assert result.to_json_dict()["primal_residual"] == result.primal_residual
        # The residual bounds the gap between the target and the behavior the
        # reported weights induce (weights below 1e-12 are dropped).
        reproduced = behavior_from_strategy_weights(n, result.weights, tolerance=1e-6)
        gap = max(abs(got - float(want))
                  for pair in target.setting_pairs()
                  for got, want in zip(reproduced.table[pair], target.table[pair]))
        assert gap <= result.primal_residual + 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("budget", [0.0, 1.0, 2.0])
    def test_primal_residual_on_family_targets(self, n, budget):
        target = assemble_behavior(chained_saturating_model(n, budget))
        self._assert_reproduces(min_negativity_lp(target), target, n)

    def test_primal_residual_on_singlet_target(self):
        target = quantum_behavior(
            singlet_state(), [0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4]
        )
        self._assert_reproduces(min_negativity_lp(target), target, 2)

    def test_primal_residual_of_score_lp(self):
        for n, budget in [(2, 1.0), (3, math.inf), (4, 0.0)]:
            result = max_score_lp(n, budget)
            assert result.status is LPStatus.OPTIMAL
            assert 0.0 <= result.primal_residual <= 1e-9

    def test_no_primal_residual_without_a_solution(self):
        table = {(0, 0): (1.0, 0.0, 0.0, 0.0), (0, 1): (1.0, 0.0, 0.0, 0.0),
                 (1, 0): (0.0, 1.0, 0.0, 0.0), (1, 1): (0.0, 1.0, 0.0, 0.0)}
        result = min_negativity_lp(Behavior(2, 2, table))
        assert result.status is LPStatus.INFEASIBLE
        assert result.primal_residual is None
        assert result.to_json_dict()["primal_residual"] is None


def _singlet_at_chained_angles(n: int) -> Behavior:
    """The singlet at Alice's angles i*pi/n and Bob's (j + 1/2)*pi/n."""
    return quantum_behavior(
        singlet_state(),
        [i * math.pi / n for i in range(n)],
        [(j + 0.5) * math.pi / n for j in range(n)],
    )


def _signalling_target() -> Behavior:
    table = {(0, 0): (1.0, 0.0, 0.0, 0.0), (0, 1): (1.0, 0.0, 0.0, 0.0),
             (1, 0): (0.0, 1.0, 0.0, 0.0), (1, 1): (0.0, 1.0, 0.0, 0.0)}
    return Behavior(2, 2, table)


_SOLVER_CASES = [
    *(pytest.param(lambda n=n, b=b: max_score_lp(n, b), id=f"score-n{n}-budget{b}")
      for n in range(2, 5) for b in (0.0, 0.5, 1.0, 2.0, math.inf)),
    *(pytest.param(
        lambda n=n, b=b: min_negativity_lp(assemble_behavior(chained_saturating_model(n, b))),
        id=f"family-n{n}-budget{b}")
      for n in range(2, 5) for b in (0.5, 1.0, 2.0)),
    *(pytest.param(lambda n=n: min_negativity_lp(_singlet_at_chained_angles(n)),
                   id=f"singlet-n{n}")
      for n in range(2, 5)),
    pytest.param(lambda: min_negativity_lp(_signalling_target()), id="signalling"),
]


class TestSolverSetting:
    """HiGHS runs without presolve: the setting changes speed, not answers."""

    @pytest.mark.parametrize("solve", _SOLVER_CASES)
    def test_presolve_off_matches_presolve_on(self, solve, monkeypatch):
        calls = []

        def record(cost, **kwargs):
            res = linprog(cost, **kwargs)
            calls.append((cost, kwargs, res))
            return res

        linprog = oracle.linprog
        monkeypatch.setattr(oracle, "linprog", record)
        result = solve()
        assert len(calls) == 1
        cost, kwargs, res = calls[0]
        assert kwargs["method"] == "highs"
        assert kwargs["options"] == {"presolve": False}
        reference = linprog(cost, **{**kwargs, "options": {"presolve": True}})
        assert res.status == reference.status
        if reference.status == 0:
            assert res.fun == pytest.approx(reference.fun, abs=1e-9)
            assert result.status is LPStatus.OPTIMAL
            assert result.primal_residual <= 1e-9
        else:
            assert result.status is LPStatus.INFEASIBLE


def _no_signalling_max_score(n: int) -> float:
    """Largest chained score over all no-signalling behaviors, by a direct LP.

    Variables are the 4n^2 entries p(a, b | x, y) (index 0 for outcome -1),
    constrained to be non-negative, normalized per setting pair and
    no-signalling; the objective is the chained correlator sum.
    """
    def var(x, y, a, b):
        return ((x * n + y) * 2 + a) * 2 + b

    size = 4 * n * n
    objective = np.zeros(size)

    def add_correlator(x, y, sign):
        for a in (0, 1):
            for b in (0, 1):
                objective[var(x, y, a, b)] += sign * (2 * a - 1) * (2 * b - 1)

    for i in range(n):
        add_correlator(i, i, +1)
    for i in range(1, n):
        add_correlator(i, i - 1, +1)
    add_correlator(0, n - 1, -1)
    rows = []
    for x in range(n):
        for y in range(n):
            row = np.zeros(size)
            for a in (0, 1):
                for b in (0, 1):
                    row[var(x, y, a, b)] = 1.0
            rows.append((row, 1.0))
    for x in range(n):
        for a in (0, 1):
            for y in range(1, n):
                row = np.zeros(size)
                for b in (0, 1):
                    row[var(x, y, a, b)] += 1.0
                    row[var(x, 0, a, b)] -= 1.0
                rows.append((row, 0.0))
    for y in range(n):
        for b in (0, 1):
            for x in range(1, n):
                row = np.zeros(size)
                for a in (0, 1):
                    row[var(x, y, a, b)] += 1.0
                    row[var(0, y, a, b)] -= 1.0
                rows.append((row, 0.0))
    res = linprog(
        -objective,
        A_eq=np.array([row for row, _ in rows]),
        b_eq=np.array([rhs for _, rhs in rows]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return float(-res.fun)


class TestNoSignallingCeiling:
    """Signed mixtures reach the whole no-signalling polytope (Al-Safi and
    Short, PRL 110, 170403, 2013), so the unbounded-budget LP over strategy
    mixtures must match a direct LP over no-signalling behaviors."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unbounded_budget_equals_direct_polytope_lp(self, n):
        direct = _no_signalling_max_score(n)
        mixture = max_score_lp(n, math.inf)
        assert mixture.status is LPStatus.OPTIMAL
        assert direct == pytest.approx(2 * n, abs=1e-7)
        assert mixture.optimal_score == pytest.approx(direct, abs=1e-7)


class TestQuantumBehavior:
    def test_product_state_respects_classical_bound(self, rng):
        for _ in range(20):
            angles_a = rng.uniform(0, 2 * math.pi, 2)
            angles_b = rng.uniform(0, 2 * math.pi, 2)
            phi_a = rng.uniform(0, math.pi)
            phi_b = rng.uniform(0, math.pi)
            ket_a = np.array([math.cos(phi_a), math.sin(phi_a)])
            ket_b = np.array([math.cos(phi_b), math.sin(phi_b)])
            rho = np.kron(np.outer(ket_a, ket_a), np.outer(ket_b, ket_b))
            behavior = quantum_behavior(rho, angles_a, angles_b)
            assert chained_score(behavior, 2) <= 2 + 1e-9

    def test_singlet_tsirelson_point(self):
        behavior = quantum_behavior(
            singlet_state(), [0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4]
        )
        assert chained_score(behavior, 2) == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_maximally_mixed_state_is_uniform(self):
        behavior = quantum_behavior(np.eye(4) / 4, [0.3, 1.2], [0.7, 2.1])
        for row in behavior.table.values():
            assert row == pytest.approx((0.25, 0.25, 0.25, 0.25))

    def test_always_valid_and_non_signalling(self, rng):
        for _ in range(20):
            kets = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
            probs = rng.random(3)
            probs /= probs.sum()
            rho = sum(
                p * np.outer(k, k.conj()) / np.vdot(k, k) for p, k in zip(probs, kets)
            )
            behavior = quantum_behavior(rho, rng.uniform(0, 7, 3), rng.uniform(0, 7, 3))
            report = validate_behavior(behavior, tol=1e-9)
            assert report.is_valid
            assert report.no_signalling_violation <= 1e-9

    def test_rejects_non_physical_states(self):
        with pytest.raises(ValueError):
            quantum_behavior(np.eye(4), [0.0], [0.0])  # trace 4
        bad = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            quantum_behavior(bad, [0.0], [0.0])
        with pytest.raises(ValueError):
            quantum_behavior(np.eye(2) / 2, [0.0], [0.0])  # single qubit


class TestSignedSampling:
    def test_positive_model_is_plain_sampling(self):
        estimate = signed_sample(chsh_saturating_model(0), shots=2000, seed=11)
        assert estimate.total_variation_weight == pytest.approx(1.0)
        for row in estimate.empirical_behavior.table.values():
            assert sum(row) == pytest.approx(1.0)
            for value in row:
                assert value >= 0

    def test_effective_shots_of_a_positive_model(self):
        strategies = {
            "1": SymbolStrategy(("+", "-"), ("-", "+")),
            "2": SymbolStrategy(("+", "+"), ("+", "+")),
            "3": SymbolStrategy(("-", "-"), ("+", "-")),
        }
        model = model_from_strategies(strategies, {"1": 0.5, "2": 0.25, "3": 0.25})
        estimate = signed_sample(model, shots=3000, seed=1)
        assert estimate.total_variation_weight == 1.0
        assert estimate.effective_shots == 3000
        assert estimate.to_json_dict()["effective_shots"] == 3000

    def test_effective_shots_shrink_with_negativity(self):
        # N = 1: S = 3 * 5/12 + 1/4 = 3/2, so S**2 = 2.25.
        estimate = signed_sample(chsh_saturating_model(1), shots=4500, seed=1)
        assert estimate.total_variation_weight == pytest.approx(1.5)
        assert estimate.effective_shots == pytest.approx(4500 / 2.25)
        assert estimate.to_json_dict()["effective_shots"] == estimate.effective_shots

    def test_estimates_track_the_exact_table(self):
        model = chsh_saturating_model(1)
        exact = assemble_behavior(model)
        estimate = signed_sample(model, shots=200_000, seed=5)
        for pair in exact.setting_pairs():
            for k in range(4):
                diff = abs(estimate.empirical_behavior.table[pair][k] - float(exact.table[pair][k]))
                error = estimate.standard_errors[(pair[0], pair[1], k)]
                assert diff <= 5 * error + 1e-12

    def test_standard_error_bound(self):
        model = chsh_saturating_model(1)
        shots = 50_000
        estimate = signed_sample(model, shots=shots, seed=5)
        cap = estimate.total_variation_weight / math.sqrt(shots)
        assert all(se <= cap + 1e-12 for se in estimate.standard_errors.values())

    def test_single_shot_is_a_signed_indicator(self):
        estimate = signed_sample(chsh_saturating_model(1), shots=1, seed=3)
        weight = estimate.total_variation_weight
        for row in estimate.empirical_behavior.table.values():
            nonzero = [v for v in row if v != 0.0]
            assert len(nonzero) == 1
            assert abs(nonzero[0]) == pytest.approx(weight)

    def test_same_seed_reproduces(self):
        a = signed_sample(chsh_saturating_model(1), shots=500, seed=9)
        b = signed_sample(chsh_saturating_model(1), shots=500, seed=9)
        assert a.empirical_behavior.table == b.empirical_behavior.table
        assert a.standard_errors == b.standard_errors

    def test_invalid_model_is_refused(self):
        with pytest.raises(ValueError):
            signed_sample(chsh_saturating_model(2.4, force=True), shots=10, seed=0)

    def test_matches_masked_reduce(self):
        # Reference: the per-cell masked reduce, replayed on the same seeded draws.
        model = chsh_saturating_model(1)
        shots, seed = 5000, 17
        estimate = signed_sample(model, shots=shots, seed=seed)
        points = list(model.dist.support)
        weights = np.array([float(model.dist.weights[p]) for p in points])
        total_variation = float(np.sum(np.abs(weights)))
        signs = np.sign(weights)
        signs[signs == 0] = 1.0
        rng = np.random.default_rng(seed)
        for x_a in range(2):
            for x_b in range(2):
                plus_a = np.array([float(model.response_A.table[(x_a, la)][1]) for la, _ in points])
                plus_b = np.array([float(model.response_B.table[(x_b, lb)][1]) for _, lb in points])
                lam_idx = rng.choice(len(points), size=shots, p=np.abs(weights) / total_variation)
                draw_signs = signs[lam_idx]
                y_a_plus = rng.random(shots) < plus_a[lam_idx]
                y_b_plus = rng.random(shots) < plus_b[lam_idx]
                cell_idx = 2 * y_a_plus.astype(np.int64) + y_b_plus.astype(np.int64)
                for k in range(4):
                    mask = cell_idx == k
                    mean = total_variation * float(draw_signs[mask].sum()) / shots
                    abs_fraction = float(mask.sum()) / shots
                    variance = max(total_variation**2 * abs_fraction - mean**2, 0.0)
                    assert estimate.empirical_behavior.table[(x_a, x_b)][k] == mean
                    assert estimate.standard_errors[(x_a, x_b, k)] == math.sqrt(variance / shots)

    def test_rejects_non_positive_shots(self):
        with pytest.raises(ValueError):
            signed_sample(chsh_saturating_model(1), shots=0, seed=0)
