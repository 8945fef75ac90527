"""Brute force, LPs, quantum reference behaviors, sign-weighted sampling."""

from __future__ import annotations

import itertools
import json
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from quasibell import (
    OUTCOME_PAIRS,
    Behavior,
    LPStatus,
    LocalResponse,
    Model,
    QuasiDist,
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

from conftest import random_model, stochastic_responses


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
        orbit_of = oracle._score_program(n).orbit_of.tolist()
        scores = [strategy_score(sa, sb, n) for sa, sb in _joint(n)]
        # The orbits partition all 4^n joint strategies ...
        assert len(orbit_of) == 4**n
        orbits = sorted(set(orbit_of))
        assert orbits == list(range(len(orbits)))
        # ... the score is constant on each ...
        for orbit in orbits:
            assert len({s for s, o in zip(scores, orbit_of) if o == orbit}) == 1
        # ... and cost = (-t, t), t being each orbit's summed score: the LP
        # maximizes t @ (u - v).
        totals = [sum(s for s, o in zip(scores, orbit_of) if o == orbit) for orbit in orbits]
        assert costs[0].tolist() == [-t for t in totals] + totals


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


class TestFaithfulClosedForm:
    """`max_score_lp(n, F)` is min(2n, (2n-2)(1 + F/4)).

    Every joint strategy scores at most 2n-2 in absolute value, and weights
    with negative mass F/8 have |w| summing to 1 + F/4, which bounds the
    score; validity caps it at 2n.  The mixture of the strategies S+ of score
    2n-2 and S- of score -(2n-2) attains it.
    """

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("budget", [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    def test_optimum_is_the_closed_form(self, n, budget):
        result = max_score_lp(n, budget)
        assert result.status is LPStatus.OPTIMAL
        bound = min(2 * n, (2 * n - 2) * (1 + budget / 4))
        assert result.optimal_score == pytest.approx(bound, abs=1e-8)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_extreme_strategies_are_one_orbit_each(self, n):
        scores = np.array([strategy_score(sa, sb, n) for sa, sb in _joint(n)])
        group = oracle._chain_group(n)
        for sign in (1, -1):
            members = np.flatnonzero(scores == sign * (2 * n - 2))
            assert len(members) == 4 * n
            assert set(group.strategies[:, members[0]].tolist()) == set(members.tolist())


_ORBIT_BUDGETS = [0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, math.inf]


def _full_score_lp(n: int, budget: float) -> float:
    """The score LP over all 2 * 4^n columns, built from the loop-form scores."""
    m = 4**n
    scores = np.array([strategy_score(sa, sb, n) for sa, sb in _joint(n)], dtype=np.float64)
    behavior_matrix = oracle._behavior_matrix(n)
    a_ub = np.concatenate([-behavior_matrix, behavior_matrix], axis=1)
    b_ub = np.zeros(len(a_ub))
    if math.isfinite(budget):
        a_ub = np.vstack([a_ub, np.concatenate([np.zeros(m), 8.0 * np.ones(m)])])
        b_ub = np.append(b_ub, budget)
    res = linprog(
        np.concatenate([-scores, scores]),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=np.concatenate([np.ones(m), -np.ones(m)])[None, :],
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return float(-res.fun)


def _half_step(sa, sb):
    """h: (a, b) -> (b, (a_1, ..., a_{n-1}, -a_0)), in loop form."""
    return sb, sa[1:] + (-sa[0],)


def _reflection(sa, sb):
    """r: (a, b) -> (reversed b, reversed a), in loop form."""
    return sb[::-1], sa[::-1]


class TestScoreOrbits:
    """`max_score_lp` solves over orbits of the chained score's symmetry group."""

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("budget", _ORBIT_BUDGETS)
    def test_same_optimum_as_full_program(self, n, budget):
        result = max_score_lp(n, budget)
        assert result.status is LPStatus.OPTIMAL
        assert result.optimal_score == pytest.approx(_full_score_lp(n, budget), abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("budget", _ORBIT_BUDGETS)
    def test_expanded_weights_hold_up(self, n, budget):
        result = max_score_lp(n, budget)
        assert sum(result.weights.values()) == pytest.approx(1.0, abs=1e-9)
        behavior = behavior_from_strategy_weights(n, result.weights)
        assert validate_behavior(behavior).is_valid
        assert chained_score(behavior, n) == pytest.approx(result.optimal_score, abs=1e-9)
        assert result.primal_residual <= 1e-9
        if math.isfinite(budget):
            assert 8 * result.negative_mass <= budget + 1e-9
        else:
            assert math.isnan(result.negative_mass)
        # The weights are symmetric: each relabelling maps them to themselves.
        for (sa, sb), weight in result.weights.items():
            for image in (_half_step(sa, sb), _reflection(sa, sb)):
                assert result.weights[image] == weight

    @pytest.mark.parametrize("n,orbits", [(2, 2), (3, 5), (4, 12), (5, 34)])
    def test_group_order_and_orbit_count(self, n, orbits):
        program = oracle._score_program(n)
        assert program.group_order == 8 * n
        assert len(set(program.orbit_of.tolist())) == orbits
        assert len(program.cost) == 2 * orbits

    @pytest.mark.parametrize("n", range(2, 6))
    def test_generators_match_their_loop_form(self, n):
        joint = _joint(n)
        index = {pair: j for j, pair in enumerate(joint)}
        half_step, reflection = oracle._chain_generators(n)
        assert half_step.tolist() == [index[_half_step(sa, sb)] for sa, sb in joint]
        assert reflection.tolist() == [index[_reflection(sa, sb)] for sa, sb in joint]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_orbits_are_closed_under_the_generators(self, n):
        joint = _joint(n)
        index = {pair: j for j, pair in enumerate(joint)}
        orbit_of = oracle._score_program(n).orbit_of
        for j, (sa, sb) in enumerate(joint):
            for image in (_half_step(sa, sb), _reflection(sa, sb)):
                assert orbit_of[index[image]] == orbit_of[j]

    def test_cached_program_is_read_only(self):
        program = oracle._score_program(3)
        assert oracle._score_program(3) is program
        for array in (program.orbit_of, program.cost, program.a_eq, program.a_ub,
                      oracle._behavior_matrix(3)):
            with pytest.raises(ValueError):
                array[0] = 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_guard_refuses_a_shift_without_the_sign_flip(self, n, monkeypatch):
        # (a, b) -> (b, (a_1, ..., a_{n-1}, a_0)) relabels settings, so it
        # permutes the behavior rows, but it moves the wrap term's minus sign.
        joint = _joint(n)
        index = {pair: j for j, pair in enumerate(joint)}
        shift = np.array([index[(sb, sa[1:] + sa[:1])] for sa, sb in joint])
        monkeypatch.setattr(oracle, "_chain_generators", lambda n: [shift])
        with pytest.raises(RuntimeError, match="chained score"):
            oracle._score_program.__wrapped__(n)

    def test_guard_refuses_a_swap_of_two_equal_scores(self, monkeypatch):
        # Swapping two joint strategies of equal score fixes the score vector,
        # but no relabelling of settings and outcomes does it.
        n = 3
        joint = _joint(n)
        scores = [strategy_score(sa, sb, n) for sa, sb in joint]
        partner = scores.index(scores[0], 1)
        swap = np.arange(4**n)
        swap[[0, partner]] = swap[[partner, 0]]
        monkeypatch.setattr(oracle, "_chain_generators", lambda n: [swap])
        with pytest.raises(RuntimeError, match="behavior rows"):
            oracle._chain_group.__wrapped__(n)

    def test_unbounded_budget_mass_is_undetermined(self):
        result = max_score_lp(3, math.inf)
        assert result.status is LPStatus.OPTIMAL
        assert math.isnan(result.negative_mass)
        payload = result.to_json_dict()
        assert payload["negative_mass"] is None
        json.dumps(payload, allow_nan=False)

    @pytest.mark.parametrize("budget", [0.0, 1.0, math.inf])
    def test_score_lp_columns(self, budget, monkeypatch):
        calls = []

        def capture(cost, **kwargs):
            calls.append((cost, kwargs))
            return linprog(cost, **kwargs)

        linprog = oracle.linprog
        monkeypatch.setattr(oracle, "linprog", capture)
        result = max_score_lp(5, budget)
        (cost, program), = calls
        assert result.columns == len(cost) == 68
        assert result.to_json_dict()["columns"] == 68
        rows = len(program["A_eq"]) + len(program["A_ub"])
        assert result.rows == rows
        assert result.to_json_dict()["rows"] == rows

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_min_negativity_lp_columns(self, n):
        # Two orbit columns (u_O, v_O) per orbit of the group that the
        # target's stabilizer and its exact setting swaps generate: 2
        # relabellings fix the N = 1 family, 4 the N = 2 family, and Alice's
        # settings 1..n-1 and Bob's 0..n-2 are interchangeable in both.
        columns = {2: (20, 4), 3: (42, 24), 4: (72, 40), 5: (110, 60)}[n]
        for budget, want in zip((1.0, 2.0), columns):
            result = min_negativity_lp(assemble_behavior(chained_saturating_model(n, budget)))
            assert result.columns == result.to_json_dict()["columns"] == want
        target = assemble_behavior(chained_saturating_model(n, 1.0))
        result = min_negativity_lp(target)
        # HiGHS gets the (n+1)^2 basis rows, and all 4n^2 for a signalling target.
        assert result.rows == (n + 1) ** 2
        assert result.to_json_dict()["rows"] == (n + 1) ** 2
        signalling = min_negativity_lp(_signalling_target())
        # Bob's two settings are interchangeable there: 12 orbits of 16.
        assert signalling.columns == 2 * 12
        assert signalling.rows == signalling.to_json_dict()["rows"] == 4 * 2 * 2
        assert min_negativity_lp(_signalling_perturbation(n, 1e-3)).rows == 4 * n * n


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


def _signalling_perturbation(n: int, size: float) -> Behavior:
    """The chained singlet with `size` moved from cell (1, 0, +, -) to (1, 0, +, +).

    Row sums stay 1, but Bob's marginal at x_b = 0 now depends on x_a by `size`.
    """
    behavior = _singlet_at_chained_angles(n)
    table = dict(behavior.table)
    p_mm, p_mp, p_pm, p_pp = table[(1, 0)]
    table[(1, 0)] = (p_mm, p_mp, p_pm - size, p_pp + size)
    return Behavior(n, n, table, tolerance=behavior.tolerance)


def _full_min_negativity_lp(target: Behavior):
    """`min_negativity_lp`'s program on all 4n^2 rows of the behavior matrix."""
    n = target.n_settings_A
    m = 4**n
    behavior_matrix = oracle._behavior_matrix(n)
    entries = [float(v) for pair in target.setting_pairs() for v in target.table[pair]]
    return linprog(
        np.concatenate([np.zeros(m), np.ones(m)]),
        A_eq=np.concatenate([behavior_matrix, -behavior_matrix], axis=1),
        b_eq=entries,
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )


_BASIS_TARGETS = [
    *(pytest.param(lambda n=n, b=b: assemble_behavior(chained_saturating_model(n, b)),
                   id=f"family-n{n}-budget{b}")
      for n in range(2, 6) for b in (0.5, 1.0, 2.0)),
    *(pytest.param(lambda n=n: _singlet_at_chained_angles(n), id=f"singlet-n{n}")
      for n in range(2, 6)),
    *(pytest.param(lambda n=n, v=v: _singlet_at_chained_angles(n, v), id=f"werner-n{n}-v{v}")
      for n in range(2, 6) for v in (0.5, 0.8)),
    *(pytest.param(lambda n=n, size=size: _signalling_perturbation(n, size),
                   id=f"signalling-n{n}-{size:g}")
      for n in range(2, 6) for size in (1e-12, 1e-9, 1e-7, 1e-3)),
]


class TestBehaviorBasis:
    """`min_negativity_lp` solves on (n+1)^2 rows that span the behavior matrix."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_basis_spans_the_behavior_rows(self, n):
        basis = oracle._behavior_basis(n)
        behavior_matrix = oracle._behavior_matrix(n)
        assert len(basis.rows) == (n + 1) ** 2
        assert np.array_equal(basis.expand @ behavior_matrix[basis.rows], behavior_matrix)
        assert np.linalg.matrix_rank(behavior_matrix[basis.rows]) == (n + 1) ** 2

    def test_cached_basis_is_read_only(self):
        basis = oracle._behavior_basis(3)
        assert oracle._behavior_basis(3) is basis
        for array in basis:
            with pytest.raises(ValueError):
                array[0] = 1

    def test_guard_refuses_rows_that_do_not_span(self, monkeypatch):
        # Cell (1, 1, -, -), not a basis row, made to mark one joint strategy
        # only: no combination of the basis rows gives that.
        broken = oracle._behavior_matrix(2).copy()
        broken[12] = np.eye(16)[0]
        monkeypatch.setattr(oracle, "_behavior_matrix", lambda n: broken)
        with pytest.raises(RuntimeError, match="row basis"):
            oracle._behavior_basis.__wrapped__(2)

    @pytest.mark.parametrize("make_target", _BASIS_TARGETS)
    def test_same_answer_as_full_program(self, make_target):
        target = make_target()
        result = min_negativity_lp(target)
        reference = _full_min_negativity_lp(target)
        assert result.status is oracle._LINPROG_STATUS[reference.status]
        if reference.status == 0:
            assert result.negative_mass == pytest.approx(reference.fun, abs=1e-9)
            # A signalling target can be met only up to its signalling.
            signalling = validate_behavior(target).no_signalling_violation
            assert result.primal_residual <= signalling + 1e-9


def _entries(target: Behavior) -> np.ndarray:
    """The target's 4n^2 entries in behavior-matrix row order."""
    return np.array([float(v) for pair in target.setting_pairs() for v in target.table[pair]])


class TestChainGroup:
    """`_chain_group(n)`: the 8n relabellings, on strategies and on behavior rows."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_order_and_row_permutations(self, n):
        group = oracle._chain_group(n)
        behavior_matrix = oracle._behavior_matrix(n)
        assert group.strategies.shape == (8 * n, 4**n)
        assert group.rows.shape == (8 * n, 4 * n * n)
        assert group.strategies[0].tolist() == list(range(4**n))
        assert len({perm.tobytes() for perm in group.strategies}) == 8 * n
        cell_of = {key: c for c, key in enumerate(oracle._distinct_rows(behavior_matrix))}
        for strategies, rows in zip(group.strategies, group.rows):
            assert sorted(strategies.tolist()) == list(range(4**n))
            assert rows.tolist() == [cell_of[row.tobytes()]
                                     for row in behavior_matrix[:, strategies]]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_closed_under_the_generators(self, n):
        joint = _joint(n)
        index = {pair: j for j, pair in enumerate(joint)}
        group = oracle._chain_group(n)
        elements = {perm.tobytes() for perm in group.strategies}
        for step in (_half_step, _reflection):
            perm = np.array([index[step(sa, sb)] for sa, sb in joint])
            assert all(element[perm].tobytes() in elements for element in group.strategies)

    def test_cached_group_is_read_only(self):
        group = oracle._chain_group(3)
        assert oracle._chain_group(3) is group
        for array in group:
            with pytest.raises(ValueError):
                array[0] = 1


def _build_every_program(monkeypatch) -> None:
    """Make `min_negativity_lp` build its program on every call, for this test only.

    A spy on the build then sees every call, none served from the program
    cache, and what the spied build returns never enters that cache.
    """
    monkeypatch.setattr(oracle, "_negativity_program", oracle._negativity_program.__wrapped__)


def _record_orbit_groups(monkeypatch) -> list:
    """Record the relabellings each `_orbit_sums` call takes orbits under."""
    groups = []
    orbit_sums = oracle._orbit_sums

    def record(perms, matrix):
        groups.append(perms)
        return orbit_sums(perms, matrix)

    _build_every_program(monkeypatch)
    monkeypatch.setattr(oracle, "_orbit_sums", record)
    return groups


class TestStabilizerOrbits:
    """`min_negativity_lp` solves over orbits of the relabellings fixing its target."""

    @pytest.mark.parametrize("visibility", [1.0, 0.8, 0.5])
    def test_chained_singlet_and_werner_use_all_relabellings(self, visibility):
        target = _singlet_at_chained_angles(5, visibility)
        result = min_negativity_lp(target)
        assert result.status is LPStatus.OPTIMAL
        assert result.columns == result.to_json_dict()["columns"] == 68
        assert result.primal_residual <= 1e-9
        # The weights are the symmetric optimum: each relabelling fixes them.
        for (sa, sb), weight in result.weights.items():
            for image in (_half_step(sa, sb), _reflection(sa, sb)):
                assert result.weights[image] == weight

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_trivial_stabilizer_is_the_full_program(self, n, monkeypatch):
        model = random_model(np.random.default_rng(n), n_settings=n, max_points=8,
                             force_negative=True)
        target = assemble_behavior(model)
        entries = _entries(target)
        group = oracle._chain_group(n)
        assert all(np.abs(entries[rows] - entries).max() > 1e-9 for rows in group.rows[1:])
        calls = []

        def capture(cost, **kwargs):
            calls.append((cost, kwargs))
            return linprog(cost, **kwargs)

        linprog = oracle.linprog
        monkeypatch.setattr(oracle, "linprog", capture)
        result = min_negativity_lp(target)
        assert result.columns == 2 * 4**n
        cost, kwargs = calls[0]
        basis = oracle._behavior_matrix(n)[oracle._behavior_basis(n).rows]
        assert np.array_equal(cost, np.concatenate([np.zeros(4**n), np.ones(4**n)]))
        assert np.array_equal(kwargs["A_eq"], np.concatenate([basis, -basis], axis=1))
        assert np.array_equal(kwargs["b_eq"], entries[oracle._behavior_basis(n).rows])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_changing_one_cell_drops_the_relabellings_that_move_it(self, n, monkeypatch):
        target = _singlet_at_chained_angles(n)
        group = oracle._chain_group(n)
        used = _record_orbit_groups(monkeypatch)
        min_negativity_lp(target)
        assert np.array_equal(used[-1], group.strategies)
        for cell in range(4 * n * n):
            table = dict(target.table)
            pair = divmod(cell // 4, n)
            row = list(table[pair])
            row[cell % 4] += 1e-6
            table[pair] = tuple(row)
            min_negativity_lp(Behavior(n, n, table, tolerance=1e-5))
            keep = group.rows[:, cell] == cell
            assert 1 < keep.sum() < 8 * n
            assert np.array_equal(used[-1], group.strategies[keep])

    def test_relabellings_that_are_not_a_group_are_not_used(self):
        # Moving 1e-9 between two cells leaves some relabellings just inside
        # the slack and others just outside it.  Those inside are not closed
        # under composition, so HiGHS gets one column pair per strategy.
        n = 5
        target = _signalling_perturbation(n, 1e-9)
        entries = _entries(target)
        rows = oracle._chain_group(n).rows
        within = rows[np.abs(entries[rows] - entries).max(axis=1) <= oracle._BASIS_SLACK]
        assert len(within) > 1
        products = within[:, within].reshape(-1, 4 * n * n)
        assert np.abs(entries[products] - entries).max() > oracle._BASIS_SLACK
        assert min_negativity_lp(target).columns == 2 * 4**n


def _swap_in_loop_form(party: int, x: int, x_prime: int):
    """Exchange settings x and x' of Alice (party 0) or Bob (party 1), in loop form."""
    def swap(strategy):
        swapped = list(strategy)
        swapped[x], swapped[x_prime] = strategy[x_prime], strategy[x]
        return tuple(swapped)

    return lambda sa, sb: (swap(sa), sb) if party == 0 else (sa, swap(sb))


def _move_within_row(target: Behavior, pair, source: int, sink: int, size: float) -> Behavior:
    """`target` with `size` moved from cell `source` to cell `sink` of row `pair`."""
    table = dict(target.table)
    row = list(table[pair])
    row[source] -= size
    row[sink] += size
    table[pair] = tuple(row)
    return Behavior(target.n_settings_A, target.n_settings_B, table, tolerance=1e-9)


def _family_swaps(n: int) -> np.ndarray:
    """The setting swaps that fix the N = 1 family: Alice's among 1..n-1, Bob's among 0..n-2."""
    pairs = list(itertools.combinations(range(n), 2))
    return np.array([x > 0 for x, _ in pairs] + [x_prime < n - 1 for _, x_prime in pairs])


class TestSettingSwaps:
    """`min_negativity_lp` adds the swaps of settings whose target rows are equal."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_each_swap_permutes_the_behavior_rows(self, n):
        swaps = oracle._setting_transpositions(n)
        behavior_matrix = oracle._behavior_matrix(n)
        assert swaps.strategies.shape == (n * (n - 1), 4**n)
        assert swaps.rows.shape == (n * (n - 1), 4 * n * n)
        joint = _joint(n)
        index = {pair: j for j, pair in enumerate(joint)}
        steps = [_swap_in_loop_form(party, x, x_prime) for party in (0, 1)
                 for x, x_prime in itertools.combinations(range(n), 2)]
        for strategies, rows, step in zip(swaps.strategies, swaps.rows, steps):
            assert strategies.tolist() == [index[step(sa, sb)] for sa, sb in joint]
            assert sorted(rows.tolist()) == list(range(4 * n * n))
            assert np.array_equal(behavior_matrix[:, strategies], behavior_matrix[rows])

    def test_cached_swaps_are_read_only(self):
        swaps = oracle._setting_transpositions(3)
        assert oracle._setting_transpositions(3) is swaps
        for array in swaps:
            with pytest.raises(ValueError):
                array[0] = 1

    def test_guard_refuses_a_swap_that_does_not_permute_the_rows(self, monkeypatch):
        # Cell (1, 1, -, -) made to mark one joint strategy only: swapping
        # Alice's settings no longer carries it onto cell (0, 1, -, -).
        broken = oracle._behavior_matrix(2).copy()
        broken[12] = np.eye(16)[0]
        monkeypatch.setattr(oracle, "_behavior_matrix", lambda n: broken)
        with pytest.raises(RuntimeError, match="setting swap"):
            oracle._setting_transpositions.__wrapped__(2)

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("budget", [0, Fraction(1, 2), 1, 2])
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
    def test_same_optimum_as_the_identity_only_program(self, n, budget, exact, monkeypatch):
        target = assemble_behavior(chained_saturating_model(
            n, budget if exact else float(budget), exact=exact))
        result = min_negativity_lp(target)
        assert result.status is LPStatus.OPTIMAL
        assert result.primal_residual <= 1e-9
        costs = []

        def capture(cost, **kwargs):
            costs.append(cost)
            return linprog(cost, **kwargs)

        linprog = oracle.linprog
        orbit_sums = oracle._orbit_sums
        monkeypatch.setattr(oracle, "linprog", capture)
        _build_every_program(monkeypatch)
        monkeypatch.setattr(oracle, "_orbit_sums",
                            lambda perms, matrix: orbit_sums(perms[:1], matrix))
        reference = min_negativity_lp(target)
        assert reference.columns == len(costs[0]) == 2 * 4**n
        assert np.array_equal(costs[0], np.concatenate([np.zeros(4**n), np.ones(4**n)]))
        assert result.negative_mass == pytest.approx(reference.negative_mass, abs=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_a_changed_row_drops_the_swaps_that_move_it(self, n, monkeypatch):
        # Row (1, n-2)'s cells (-, -) and (+, +) are fixed by the family's
        # second relabelling, so 1e-12 moved between them keeps both
        # relabellings exact, but rows (1, .) and (., n-2) now differ from
        # their partners.
        family = assemble_behavior(chained_saturating_model(n, 1.0))
        target = _move_within_row(family, (1, n - 2), 0, 3, 1e-12)
        entries = _entries(target)
        group = oracle._chain_group(n)
        stabilizer = (entries[group.rows] == entries).all(axis=1)
        assert stabilizer.sum() == 2
        swaps = oracle._setting_transpositions(n)
        cells = 4 * (n + n - 2) + np.arange(4)
        keep = _family_swaps(n) & (swaps.rows[:, cells] == cells).all(axis=1)
        used = _record_orbit_groups(monkeypatch)
        result = min_negativity_lp(target)
        assert np.array_equal(used[-1], np.concatenate(
            [group.strategies[stabilizer], swaps.strategies[keep]]))
        pairs = list(itertools.combinations(range(n), 2))
        assert not keep[pairs.index((1, 2))]  # Alice's settings 1 and 2
        assert not keep[len(pairs) + pairs.index((n - 3, n - 2))]  # Bob's n-3 and n-2
        assert keep.sum() == 2 * math.comb(n - 2, 2)
        reference = _full_min_negativity_lp(target)
        assert result.negative_mass == pytest.approx(reference.fun, abs=1e-9)
        assert result.primal_residual <= 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_a_symmetry_within_the_slack_adds_no_swaps(self, n, monkeypatch):
        # The family's second relabelling exchanges the equal cells (-, +)
        # and (+, -) of row (0, n-1); 1e-12 moved between them leaves it
        # fixing the target within the 1e-9 slack only.  Every swap of
        # interchangeable settings still fixes the target exactly.
        family = assemble_behavior(chained_saturating_model(n, 1.0))
        target = _move_within_row(family, (0, n - 1), 1, 2, 1e-12)
        entries = _entries(target)
        group = oracle._chain_group(n)
        within = np.abs(entries[group.rows] - entries).max(axis=1) <= oracle._BASIS_SLACK
        assert within.sum() == 2
        assert not (entries[group.rows[within]] == entries).all()
        swaps = oracle._setting_transpositions(n)
        assert np.array_equal((entries[swaps.rows] == entries).all(axis=1), _family_swaps(n))
        used = _record_orbit_groups(monkeypatch)
        result = min_negativity_lp(target)
        assert np.array_equal(used[-1], group.strategies[within])
        assert result.columns == {3: 72, 4: 272, 5: 1056}[n]
        reference = _full_min_negativity_lp(target)
        assert result.negative_mass == pytest.approx(reference.fun, abs=1e-9)
        assert result.primal_residual <= 1e-9


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


class TestResidualOfAPerturbedSolution:
    """`primal_residual` against the violation recomputed from the reported weights.

    `oracle.linprog` is wrapped to add 1e-3 to one orbit column of HiGHS's
    optimum, so the weights violate the program and the residual is nonzero.
    """

    @staticmethod
    def _perturb(monkeypatch, column):
        linprog = oracle.linprog

        def perturbed(cost, **kwargs):
            res = linprog(cost, **kwargs)
            x = res.x.copy()
            x[column(x)] += 1e-3
            return res._replace(x=x)

        monkeypatch.setattr(oracle, "linprog", perturbed)

    @staticmethod
    def _entries(n, weights):
        """Each behavior entry (x_a, x_b, k) the weights induce, k = 2 [y_a = +] + [y_b = +]."""
        entries = {}
        for x_a in range(n):
            for x_b in range(n):
                for k in range(4):
                    entries[(x_a, x_b, k)] = sum(
                        w for (sa, sb), w in weights.items()
                        if 2 * (sa[x_a] == +1) + (sb[x_b] == +1) == k
                    )
        return entries

    def test_min_negativity_lp(self, monkeypatch):
        n = 3
        target = assemble_behavior(chained_saturating_model(n, 1.0))
        self._perturb(monkeypatch, lambda x: 0)  # u of the first orbit
        result = min_negativity_lp(target)
        assert result.status is LPStatus.OPTIMAL
        gap = max(abs(value - float(target.table[(x_a, x_b)][k]))
                  for (x_a, x_b, k), value in self._entries(n, result.weights).items())
        assert gap > 1e-4
        assert result.primal_residual == pytest.approx(gap, rel=1e-9, abs=1e-10)

    def test_max_score_lp_with_a_budget(self, monkeypatch):
        n, budget = 3, 1.0
        # v of the orbit with the most negative weight: at HiGHS's vertex its
        # u is 0, so the budget row's 8 sum(v) is 8 times the negative mass.
        self._perturb(monkeypatch, lambda x: len(x) // 2 + int(np.argmax(x[len(x) // 2:])))
        result = max_score_lp(n, budget)
        assert result.status is LPStatus.OPTIMAL
        weights = result.weights.values()
        normalization = abs(sum(weights) - 1.0)
        negative_entry = max(-value for value in self._entries(n, result.weights).values())
        overrun = 8 * sum(-w for w in weights if w < 0) - budget
        assert overrun > max(normalization, negative_entry, 1e-4)
        violation = max(normalization, negative_entry, overrun)
        assert result.primal_residual == pytest.approx(violation, rel=1e-9, abs=1e-10)


def _singlet_at_chained_angles(n: int, visibility: float = 1.0) -> Behavior:
    """The singlet at Alice's angles i*pi/n and Bob's (j + 1/2)*pi/n.

    Below visibility 1 the state is the Werner state v * singlet + (1 - v) * I/4.
    """
    return quantum_behavior(
        visibility * singlet_state() + (1 - visibility) * np.eye(4) / 4,
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
            res = solve_directly(cost, **kwargs)
            calls.append((cost, kwargs, res))
            return res

        solve_directly = oracle.linprog
        monkeypatch.setattr(oracle, "linprog", record)
        result = solve()
        assert len(calls) == 1
        cost, kwargs, res = calls[0]
        assert kwargs["method"] == "highs"
        assert kwargs["options"] == {"presolve": False}
        # The reference is scipy's public `linprog`, not the one under test.
        reference = linprog(cost, **{**kwargs, "options": {"presolve": True}})
        assert res.status == reference.status
        if reference.status == 0:
            assert res.fun == pytest.approx(reference.fun, abs=1e-9)
            assert result.status is LPStatus.OPTIMAL
            assert result.primal_residual <= 1e-9
        else:
            assert result.status is LPStatus.INFEASIBLE


_DIRECT_CASES = [
    *(pytest.param(lambda n=n, b=b: max_score_lp(n, b), id=f"score-n{n}-budget{b}")
      for n in range(2, 6) for b in (0.0, 0.5, 1.0, 2.0, math.inf)),
    *(pytest.param(
        lambda n=n, b=b: min_negativity_lp(assemble_behavior(chained_saturating_model(n, b))),
        id=f"family-n{n}-budget{b}")
      for n in range(2, 6) for b in (0.5, 1.0, 2.0)),
    *(pytest.param(lambda n=n: min_negativity_lp(_singlet_at_chained_angles(n)),
                   id=f"singlet-n{n}")
      for n in range(2, 6)),
    pytest.param(lambda: min_negativity_lp(_signalling_target()), id="signalling"),
    *(pytest.param(lambda n=n, size=size: min_negativity_lp(_signalling_perturbation(n, size)),
                   id=f"signalling-n{n}-{size:g}")
      for n in range(2, 6) for size in (1e-7, 2e-7)),
]


class TestDirectHighs:
    """`oracle.linprog` calls HiGHS as `scipy.optimize.linprog` does, and answers alike."""

    @pytest.mark.parametrize("presolve", [False, True], ids=["presolve-off", "presolve-on"])
    @pytest.mark.parametrize("solve", _DIRECT_CASES)
    def test_matches_scipy_linprog(self, solve, presolve, monkeypatch):
        calls = []

        def record(cost, **kwargs):
            calls.append((cost, kwargs))
            return solve_directly(cost, **kwargs)

        solve_directly = oracle.linprog
        monkeypatch.setattr(oracle, "linprog", record)
        solve()
        assert len(calls) == 1
        cost, kwargs = calls[0]
        kwargs = {**kwargs, "options": {"presolve": presolve}}
        got = solve_directly(cost, **kwargs)
        want = linprog(cost, **kwargs)
        assert (got.status, got.nit, got.message) == (want.status, want.nit, want.message)
        assert got.fun == want.fun
        if want.x is None:
            assert got.x is None
        else:
            assert np.array_equal(got.x, want.x)

    @pytest.mark.parametrize("n, status", [
        (2, LPStatus.OPTIMAL),
        (3, LPStatus.OPTIMAL),
        (4, LPStatus.INFEASIBLE),
        (5, LPStatus.OPTIMAL),
    ])
    def test_near_signalling_status_is_highs_feasibility_tolerance(self, n, status):
        # A target that signals by about HiGHS's primal feasibility tolerance
        # (1e-7) is OPTIMAL or INFEASIBLE as HiGHS's pivots fall; pinned so
        # that a change of HiGHS's configuration shows.  Pinned on scipy
        # 1.17.1 with HiGHS 1.12.0: another HiGHS may pivot otherwise.
        assert min_negativity_lp(_signalling_perturbation(n, 1e-7)).status is status
        assert min_negativity_lp(_signalling_perturbation(n, 2e-7)).status is LPStatus.INFEASIBLE

    @pytest.mark.parametrize("extra", [
        {"method": "highs-ipm"},
        {"bounds": (None, None)},
        {"options": {"disp": True}},
        {"options": {"presolve": "off"}},
    ])
    def test_refuses_what_it_does_not_implement(self, extra):
        with pytest.raises(ValueError, match="^unsupported method"):
            oracle.linprog([1.0], A_eq=[[1.0]], b_eq=[1.0], **extra)

    @pytest.mark.parametrize("option", [("no_such_option", 1), ("simplex_strategy", 99)])
    def test_an_option_highs_refuses_raises(self, option):
        from scipy.optimize._highspy import _core as highs

        solver = highs._Highs()
        oracle._set_highs_options(solver, [("output_flag", False), *oracle._HIGHS_OPTIONS])
        with pytest.raises(RuntimeError, match=f"^HiGHS refused option {option[0]!r}"):
            oracle._set_highs_options(solver, [option])


def _direct_programs(monkeypatch) -> list:
    """The (cost, keywords) of every `_DIRECT_CASES` solve, as `_solve` hands them over."""
    programs = []

    def record(cost, **kwargs):
        programs.append((cost, kwargs))
        return solve_directly(cost, **kwargs)

    solve_directly = oracle.linprog
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "linprog", record)
        for case in _DIRECT_CASES:
            case.values[0]()
    return programs


def _answer(res) -> tuple:
    """What `linprog` reports, in a form that `==` compares exactly."""
    x = None if res.x is None else res.x.tolist()
    return res.status, x, res.fun, res.nit, res.message


class TestReusedHighs:
    """`oracle.linprog` reuses one HiGHS instance per thread and carries nothing between solves."""

    def test_no_state_leaks_between_solves(self, monkeypatch):
        # Forward, then reversed, presolve alternating, with the infeasible
        # signalling program between solves: each answer is what a fresh
        # HiGHS instance, the one scipy's `linprog` makes per call, gives.
        programs = _direct_programs(monkeypatch)
        signalling, signalling_kwargs = programs[[case.id for case in _DIRECT_CASES].index("signalling")]
        infeasible = _answer(linprog(signalling, **signalling_kwargs))
        assert infeasible[0] == 2
        for i, (cost, kwargs) in enumerate(programs + programs[::-1]):
            kwargs = {**kwargs, "options": {"presolve": i % 2 == 0}}
            assert _answer(oracle.linprog(cost, **kwargs)) == _answer(linprog(cost, **kwargs))
            assert _answer(oracle.linprog(signalling, **signalling_kwargs)) == infeasible

    def test_each_thread_has_its_own_solver(self, monkeypatch):
        programs = _direct_programs(monkeypatch)
        solvers, answers = {}, {}

        def solve_all(name):
            solvers[name] = oracle._highs_solver()
            answers[name] = [_answer(oracle.linprog(cost, **kwargs)) for cost, kwargs in programs]

        threads = [threading.Thread(target=solve_all, args=(name,)) for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert solvers["a"] is not solvers["b"]
        assert oracle._highs_solver() not in (solvers["a"], solvers["b"])
        assert answers["a"] == answers["b"]
        assert answers["a"] == [_answer(linprog(cost, **kwargs)) for cost, kwargs in programs]

    def test_a_refused_option_fails_every_solve(self, monkeypatch):
        # A thread whose solver is not yet made, as in a fresh process.
        monkeypatch.setattr(oracle, "_THREAD_HIGHS", threading.local())
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_HIGHS_OPTIONS", (*oracle._HIGHS_OPTIONS, ("simplex_strategy", 99)))
            for _ in range(3):
                with pytest.raises(RuntimeError, match="^HiGHS refused option 'simplex_strategy'"):
                    max_score_lp(2, 0.5)
            assert not hasattr(oracle._THREAD_HIGHS, "solver")
        assert max_score_lp(2, 0.5).status is LPStatus.OPTIMAL
        solver = oracle._THREAD_HIGHS.solver
        for name, value in oracle._HIGHS_OPTIONS:
            assert solver.getOptionValue(name)[1] == value


class TestNegativityProgramCache:
    """`min_negativity_lp` builds each orbit program once per symmetry of its target."""

    def test_cached_program_is_read_only(self):
        program = oracle._negativity_program(3, False, np.ones(24, dtype=bool).tobytes(), None)
        assert oracle._negativity_program(3, False, np.ones(24, dtype=bool).tobytes(), None) is program
        for array in program:
            with pytest.raises(ValueError):
                array[0] = 1

    @pytest.mark.parametrize("n", range(2, 6))
    def test_werner_targets_share_the_singlet_program(self, n, monkeypatch):
        programs = []

        def record(cost, **kwargs):
            programs.append(kwargs["A_eq"])
            return solve_directly(cost, **kwargs)

        solve_directly = oracle.linprog
        monkeypatch.setattr(oracle, "linprog", record)
        for visibility in (1.0, 0.8, 0.5):
            assert min_negativity_lp(_singlet_at_chained_angles(n, visibility)).status is LPStatus.OPTIMAL
        assert programs[0] is programs[1] is programs[2]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_the_key_separates_targets(self, n):
        # The N = 1 family's program is cached first; targets 1e-12 away
        # from it, with other symmetries, still get programs of their own.
        family = assemble_behavior(chained_saturating_model(n, 1.0))
        assert min_negativity_lp(family).columns == {3: 42, 4: 72, 5: 110}[n]
        moved = [(_move_within_row(family, (1, n - 2), 0, 3, 1e-12), {3: 72, 4: 156, 5: 272}),
                 (_move_within_row(family, (0, n - 1), 1, 2, 1e-12), {3: 72, 4: 272, 5: 1056})]
        for target, columns in moved:
            result = min_negativity_lp(target)
            assert result.columns == columns[n]
            reference = _full_min_negativity_lp(target)
            assert result.negative_mass == pytest.approx(reference.fun, abs=1e-9)
            assert result.primal_residual <= 1e-9


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


def _sampled_model(points: int, zero_weight: bool = False) -> Model:
    """A valid two-setting model on `points` hidden values with stochastic rows.

    Beyond one point, the first weight is -0.05; with `zero_weight` the second
    is 0.
    """
    rng = np.random.default_rng(points)
    labels = tuple(str(i) for i in range(points))
    response_a, response_b = stochastic_responses(rng, 2, labels)
    weights = np.ones(1)
    if points > 1:
        weights = rng.random(points) + 0.5
        weights[:1 + zero_weight] = 0.0
        weights = 1.05 * weights / weights.sum()
        weights[0] = -0.05
    dist = QuasiDist.diagonal({lam: float(w) for lam, w in zip(labels, weights)})
    return Model(response_a, response_b, dist)


def _mixed_model(fixed_a=(True, False, True), fixed_b=(False, True, False),
                 points: int = 5, seed: int = 0) -> Model:
    """A valid model whose settings are deterministic where `fixed_a`/`fixed_b` say.

    Deterministic settings give every point a 0/1 row.  Stochastic ones give
    points 2 and 3 the rows (0, 1) and (1, 0), which must not make them count
    as fixed.  Point 0 carries weight -0.05 and point 1's rows, so the
    behavior is valid.
    """
    rng = np.random.default_rng(seed)
    labels = tuple(str(i) for i in range(points))
    responses = stochastic_responses(rng, len(fixed_a), labels)
    edge_rows = {2: (0.0, 1.0), 3: (1.0, 0.0)}
    tables = []
    for response, fixed in zip(responses, (fixed_a, fixed_b)):
        table = dict(response.table)
        for x, deterministic in enumerate(fixed):
            for j, lam in enumerate(labels):
                if deterministic:
                    table[(x, lam)] = (1.0, 0.0) if rng.random() < 0.5 else (0.0, 1.0)
                elif j in edge_rows:
                    table[(x, lam)] = edge_rows[j]
            table[(x, labels[0])] = table[(x, labels[1])]
        tables.append(LocalResponse(response.party, len(fixed), labels, table))
    weights = rng.random(points) + 0.5
    weights[0] = 0.0
    weights = 1.05 * weights / weights.sum()
    weights[0] = -0.05
    dist = QuasiDist.diagonal({lam: float(w) for lam, w in zip(labels, weights)})
    return Model(tables[0], tables[1], dist)


# Supports on both sides of `oracle._COUNTED_SUPPORT` points; settings whose
# outcomes the hidden value fixes, ones it does not, and both in one model.
_SAMPLED_MODELS = [
    pytest.param(lambda: chsh_saturating_model(1), 5000, id="chsh-4-points"),
    *(pytest.param(lambda k=k: _sampled_model(k), 5000, id=f"stochastic-{k}-points")
      for k in (1, 3, 32, 33, 70)),
    pytest.param(lambda: _sampled_model(33, zero_weight=True), 5000, id="zero-weight-33-points"),
    pytest.param(lambda: _sampled_model(6, zero_weight=True), 5000, id="zero-weight-6-points"),
    pytest.param(lambda: chained_saturating_model(3, 1), 100_000, id="chained-3-budget-1"),
    pytest.param(lambda: chained_saturating_model(2, Fraction(1), exact=True), 5000,
                 id="chained-2-exact"),
    pytest.param(_mixed_model, 5000, id="mixed-3-settings"),
]


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

    @pytest.mark.parametrize("shots", [oracle._MAX_SHOTS + 1, 10**12])
    def test_too_many_shots_are_refused_before_any_draw(self, shots):
        with pytest.raises(ValueError, match=f"shots <= {oracle._MAX_SHOTS}$"):
            signed_sample(chsh_saturating_model(1), shots=shots, seed=0)

    @pytest.mark.parametrize("make_model, shots", _SAMPLED_MODELS)
    def test_matches_masked_reduce(self, make_model, shots):
        # Reference: the per-cell masked reduce, replayed on the same seeded
        # draws, every outcome drawn whether or not the hidden value fixes it.
        model = make_model()
        seed = 17
        estimate = signed_sample(model, shots=shots, seed=seed)
        points = list(model.dist.support)
        weights = np.array([float(model.dist.weights[p]) for p in points])
        total_variation = float(np.sum(np.abs(weights)))
        signs = np.sign(weights)
        signs[signs == 0] = 1.0
        rng = np.random.default_rng(seed)
        for x_a in range(model.response_A.n_settings):
            for x_b in range(model.response_B.n_settings):
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

    def test_outcome_fixed_at_the_edges(self):
        # The largest uniform is 1 - 2**-53, which is not below 1 - 2**-53:
        # only rows of 0s and 1s give one outcome for every uniform.
        rows = np.array([[0.0, 1.0], [1.0, 1.0], [2.0**-53, 1.0], [0.0, 1 - 2.0**-53]])
        assert oracle._outcome_fixed(rows).tolist() == [True, True, False, False]
        exact = np.array([[Fraction(0), Fraction(1)], [Fraction(1, 2), Fraction(1)]])
        assert oracle._outcome_fixed(exact).tolist() == [True, False]

    def test_rejects_non_positive_shots(self):
        with pytest.raises(ValueError):
            signed_sample(chsh_saturating_model(1), shots=0, seed=0)
