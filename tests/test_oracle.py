"""Brute force, LPs, quantum reference behaviors, sign-weighted sampling."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import re
import runpy
import sys
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    witness_faithful,
)
from quasibell import oracle
from quasibell.constructions import SymbolStrategy, model_from_strategies

from conftest import random_joint_model, random_model, random_valid_model, stochastic_responses

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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

    def test_cached_coefficients_are_read_only(self):
        coefficients = oracle._chain_coefficients(5)
        assert oracle._chain_coefficients(5) is coefficients
        with pytest.raises(ValueError):
            coefficients[0, 0] = 2.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_separable_maximum_equals_exhaustive(self, n):
        signs = np.array(enumerate_deterministic(n), dtype=np.float64)
        exhaustive = np.abs(signs @ oracle._chain_coefficients(n) @ signs.T).max()
        assert classical_bound_bruteforce(n) == exhaustive


def _joint(n):
    strategies = enumerate_deterministic(n)
    return [(sa, sb) for sa in strategies for sb in strategies]


class _Solve(NamedTuple):
    """One call of `oracle.linprog`: what it got and what it returned."""

    model: oracle._HighsModel
    row_lower: np.ndarray
    row_upper: np.ndarray
    result: oracle._HighsResult


def _spy_linprog(monkeypatch, change=None) -> list:
    """Record every `oracle.linprog` call as a `_Solve`, passing `change(result)` on if given."""
    calls = []
    solve = oracle.linprog

    def record(model, row_lower, row_upper):
        res = solve(model, row_lower, row_upper)
        if change is not None:
            res = change(res)
        calls.append(_Solve(model, row_lower, row_upper, res))
        return res

    monkeypatch.setattr(oracle, "linprog", record)
    return calls


def _dense(model) -> np.ndarray:
    """The constraint rows of a prepared model, as a dense matrix."""
    shape = (model.rows, len(model.cost))
    return scipy.sparse.csc_array((model.value, model.index, model.start), shape=shape).toarray()


def _scipy_program(solve: _Solve, presolve: bool = False) -> tuple:
    """`scipy.optimize.linprog`'s (c, keywords) for the program of one `oracle.linprog` call.

    The rows with lower bound -inf are `A_ub x <= b_ub` and come first, the
    rest, whose bounds are equal, are `A_eq x == b_eq`: the dense program
    `_solve` handed to `linprog` before its models were prepared.  HiGHS
    presolves it if `presolve` is set; `oracle.linprog` never does.
    """
    matrix = _dense(solve.model)
    inequality = np.isneginf(solve.row_lower)
    assert not inequality[inequality.sum():].any()
    assert np.array_equal(solve.row_lower[~inequality], solve.row_upper[~inequality])
    keywords = {"A_eq": matrix[~inequality], "b_eq": solve.row_upper[~inequality]}
    if inequality.any():
        keywords.update(A_ub=matrix[inequality], b_ub=solve.row_upper[inequality])
    return solve.model.cost, {**keywords, "bounds": (0, None), "method": "highs",
                              "options": {"presolve": presolve}}


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
        calls = _spy_linprog(monkeypatch)
        max_score_lp(n, 1.0)
        orbit_of = oracle._score_programs(n)[1].orbit_of.tolist()
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
        assert calls[0].model.cost.tolist() == [-t for t in totals] + totals


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
        unbudgeted, budgeted = oracle._score_programs(n)
        assert len(oracle._chain_group(n).strategies) == 8 * n
        assert len(set(budgeted.orbit_of.tolist())) == orbits
        assert len(budgeted.model.cost) == len(unbudgeted.model.cost) == 2 * orbits

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
        orbit_of = oracle._score_programs(n)[1].orbit_of
        for j, (sa, sb) in enumerate(joint):
            for image in (_half_step(sa, sb), _reflection(sa, sb)):
                assert orbit_of[index[image]] == orbit_of[j]

    def test_cached_program_is_read_only(self):
        programs = oracle._score_programs(3)
        assert oracle._score_programs(3) is programs
        models = [a for program in programs for a in program.model
                  if isinstance(a, np.ndarray)]
        for array in (*(program.orbit_of for program in programs),
                      *(program.sizes for program in programs),
                      *(program.cells for program in programs),
                      *(program.rows for program in programs), *models,
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
            oracle._score_programs.__wrapped__(n)

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
        calls = _spy_linprog(monkeypatch)
        result = max_score_lp(5, budget)
        (solve,) = calls
        cost, program = _scipy_program(solve)
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
        # HiGHS gets each distinct orbit sum of the (n+1)^2 basis rows once.
        for budget, rows in ((0.5, 8), (1.0, 8), (2.0, 6 if n >= 3 else 2)):
            result = min_negativity_lp(assemble_behavior(chained_saturating_model(n, budget)))
            assert result.rows == result.to_json_dict()["rows"] == rows
        # The singlet's and the Werner target's copies differ by round-off
        # and merge all the same: n distinct orbit sums.
        for visibility in (1.0, 0.8):
            result = min_negativity_lp(_singlet_at_chained_angles(n, visibility))
            assert result.rows == result.to_json_dict()["rows"] == n
        # A signalling target gets no program at all.
        signalling = min_negativity_lp(_signalling_perturbation(n, 1e-3)).to_json_dict()
        assert (signalling["columns"], signalling["rows"]) == (0, 0)


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
        # The no-signalling test's account, in the solver's fields.
        assert isinstance(result.iterations, int) and result.iterations >= 0
        assert "infeasible" in result.solver_message.lower()
        payload = result.to_json_dict()
        assert payload["iterations"] == result.iterations
        assert payload["solver_message"] == result.solver_message


def _mixed(first: Model, second: Model, weight: float) -> Model:
    """(1 - weight) `first` + weight `second`, `second`'s labels prefixed with "r"."""
    def joined(mine: LocalResponse, theirs: LocalResponse) -> LocalResponse:
        table = dict(mine.table)
        table.update({(x, "r" + lam): row for (x, lam), row in theirs.table.items()})
        labels = mine.hidden_values + tuple("r" + lam for lam in theirs.hidden_values)
        return LocalResponse(mine.party, mine.n_settings, labels, table)

    weights = {point: (1 - weight) * w for point, w in first.dist.weights.items()}
    weights.update({("r" + a, "r" + b): weight * w for (a, b), w in second.dist.weights.items()})
    return Model(joined(first.response_A, second.response_A),
                 joined(first.response_B, second.response_B),
                 QuasiDist(support=tuple(weights), weights=weights))


class TestSignedModelsAgainstBothLPs:
    """Every valid signed model lies within both LPs' answers at its faithful witness F.

    Split: each support point's product of local responses is a convex
    mixture of deterministic joint strategies, so the behavior is b =
    sum_j c_j D_j with c_j = sum_lambda w_lambda p_lambda(j).  Merge: c
    has total weight sum w = 1, and since each p_lambda is a probability
    vector its negative part is at most sum max(-w, 0) = F/8.  So c
    reproduces b with negative mass at most F/8, the bound on
    `min_negativity_lp(b)`.  As b is valid, c also meets `max_score_lp`'s
    rows under the budget F with score +-`chained_score(b, n)`, and flipping
    Alice's outcomes negates the score and keeps both constraints, so the
    LP's optimum is at least the score.  The saturating families meet the
    score bound at n = 2 and at N = 2, so mixing a little of a random model
    into them gives inputs close to it.
    """

    @staticmethod
    def check(model: Model, n: int) -> None:
        behavior = assemble_behavior(model)
        faithful = float(witness_faithful(model.dist))
        score = max_score_lp(n, faithful)
        least = min_negativity_lp(behavior)
        assert score.status is LPStatus.OPTIMAL and least.status is LPStatus.OPTIMAL
        assert chained_score(behavior, n) <= score.optimal_score + 1e-9
        assert least.negative_mass <= faithful / 8 + 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_models(self, n):
        rng = np.random.default_rng(n)
        models = [random_valid_model(rng, n_settings=n)[0] for _ in range(20)]
        while len(models) < 40:
            model = random_joint_model(rng, n_settings=n)
            if validate_behavior(assemble_behavior(model)).is_valid:
                models.append(model)
        for model in models:
            self.check(model, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("budget", [0.5, 1.0, 2.0])
    def test_saturating_families_mixed_with_random_models(self, n, budget):
        rng = np.random.default_rng(n)
        for weight in (1e-3, 1e-2, 1e-1):
            other, _ = random_valid_model(rng, n_settings=n)
            self.check(_mixed(chained_saturating_model(n, budget), other, weight), n)


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
    """`min_negativity_lp`'s program on all 4n^2 rows of the behavior matrix.

    Solved at HiGHS's tightest primal feasibility tolerance, 1e-10, below
    `oracle._BASIS_SLACK`, so that a target signalling by 1e-9 or more is
    infeasible here too, not met within HiGHS's default tolerance of 1e-7.
    """
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
        options={"presolve": False, "primal_feasibility_tolerance": 1e-10},
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

    @pytest.mark.parametrize("n", range(1, 6))
    def test_expand_is_float64_with_integer_entries(self, n):
        # Built in the dtype of the targets it multiplies, so no call casts it.
        expand = oracle._behavior_basis(n).expand
        assert expand.dtype == np.float64
        assert np.array_equal(expand, np.trunc(expand))

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

    def test_guard_refuses_dependent_basis_rows(self, monkeypatch):
        # Basis cell (0, 0, -, -) made a copy of basis cell (0, 0, +, -): the
        # normal equations are singular, and that is refused as a basis that
        # does not span, not passed on as numpy's LinAlgError.
        broken = oracle._behavior_matrix(2).copy()
        broken[0] = broken[2]
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


def _signalled(result) -> float:
    """The signalling distance an INFEASIBLE `min_negativity_lp` answer states."""
    return float(re.fullmatch(r"infeasible: the target signals by (\S+) \(.*\)",
                              result.solver_message).group(1))


def _no_solve(monkeypatch) -> list:
    """Record `oracle.linprog` calls, and refuse any build of a min-negativity program."""
    def refuse(*key):
        raise AssertionError(f"a min-negativity program was built for key {key!r}")

    monkeypatch.setattr(oracle, "_negativity_program", refuse)
    return _spy_linprog(monkeypatch)


class TestNoSignallingCheck:
    """A target that signals by more than `oracle._BASIS_SLACK` is INFEASIBLE before HiGHS.

    Every no-signalling behavior is an affine mix of deterministic ones, so
    B w = t has a solution exactly when t = M t_R.  The answer states
    max|M t_R - t| and reaches no program: no columns, rows or iterations.
    """

    @pytest.mark.parametrize("n", range(2, 6))
    def test_near_signalling_target_is_infeasible_at_every_n(self, n, monkeypatch):
        # HiGHS alone, within its primal feasibility tolerance of 1e-7, calls
        # the 1e-9 moves, and the 1e-7 move at n = 2, 3 and 5, OPTIMAL on
        # all 4n^2 rows (`_full_rows_lp`).
        calls = _no_solve(monkeypatch)
        for size in (1e-9, 1e-7, 2e-7, 1e-3):
            result = min_negativity_lp(_signalling_perturbation(n, size))
            assert result.status is LPStatus.INFEASIBLE
            payload = json.loads(json.dumps(result.to_json_dict(), allow_nan=False))
            assert {key: payload[key] for key in ("optimal_score", "negative_mass", "support_size",
                                                  "iterations", "primal_residual", "columns",
                                                  "rows")} == {
                "optimal_score": None, "negative_mass": None, "support_size": 0,
                "iterations": 0, "primal_residual": None, "columns": 0, "rows": 0}
            assert oracle._BASIS_SLACK < _signalled(result) == pytest.approx(size, rel=1e-6)
        assert calls == []

    @pytest.mark.parametrize("rows, status, words", [
        # Every row no-signalling, but M t_R overflows to inf: no verdict.
        pytest.param(dict.fromkeys(itertools.product(range(2), repeat=2),
                                   (1.7e308, -1.7e308, 0.5, 0.5)),
                     LPStatus.FAILED, "the no-signalling check overflowed", id="overflowing-check"),
        # Rows (1, 0) and (1, 1) are huge and signal: max|M t_R - t| is
        # 9e307, while a relabelling moves one row onto the other by inf.
        pytest.param({(1, 0): (-9e307, 9e307, 0.5, 0.5), (1, 1): (9e307, -9e307, 0.5, 0.5)},
                     LPStatus.INFEASIBLE, "infeasible: the target signals by 9e+307",
                     id="overflowing-moves"),
    ])
    def test_overflow_is_refused_without_a_warning(self, rows, status, words, monkeypatch):
        table = {pair: (0.25,) * 4 for pair in itertools.product(range(2), repeat=2)}
        table.update(rows)
        calls = _no_solve(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = min_negativity_lp(Behavior(2, 2, table))
        assert result.status is status
        assert result.solver_message.startswith(words)
        assert (result.iterations, result.columns, result.rows) == (0, 0, 0)
        assert calls == []

    def test_every_program_solves_on_basis_rows(self, monkeypatch):
        # Every min-negativity program of `scripts/lp_grid_digest.py`'s grid
        # at n <= 5, each built afresh: its rows are Collins-Gisin basis rows.
        programs = []
        build = oracle._negativity_program.__wrapped__

        def record(n, *key):
            programs.append((n, build(n, *key)))
            return programs[-1][1]

        monkeypatch.setattr(oracle, "_negativity_program", record)
        grid = runpy.run_path(str(SCRIPTS / "lp_grid_digest.py"))["grid"](5)
        for name, call in grid:
            if not name.startswith("score "):
                call()
        # All 72 LPs but the 20 score LPs and the 17 signalling targets.
        assert len(programs) == 72 - 20 - 17
        for n, program in programs:
            assert np.isin(program.rows, oracle._behavior_basis(n).rows).all()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 5),
           angles=st.lists(st.floats(0.0, 2 * math.pi), min_size=10, max_size=10),
           pair=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           cells=st.permutations(range(4)),
           above=st.floats(1e-9 * (1 + 1e-6), 1e-3),
           below=st.floats(0.0, 2.5e-10))
    def test_a_move_within_a_row_is_decided_by_its_size(self, n, angles, pair, cells, above,
                                                         below):
        """A no-signalling target with d moved between two cells of one row signals by d or 2d.

        Above the slack, by more than round-off, it is INFEASIBLE with no
        solve; at d <= 2.5e-10 it signals by at most 5e-10 and is OPTIMAL.
        """
        target = quantum_behavior(singlet_state(), angles[:n], angles[5:5 + n])
        pair, (source, sink) = (pair[0] % n, pair[1] % n), cells[:2]
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _no_solve(monkeypatch)
            result = min_negativity_lp(_move_within_row(target, pair, source, sink, above))
            assert calls == []
        assert result.status is LPStatus.INFEASIBLE
        distance = _signalled(result)
        assert min(abs(distance - above), abs(distance - 2 * above)) <= 1e-6 * above
        assert min_negativity_lp(_move_within_row(target, pair, source, sink, below)).status is (
            LPStatus.OPTIMAL)


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
        cell_of = {key: c for c, key in enumerate({row.tobytes(): row for row in behavior_matrix})}
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
    """Make `min_negativity_lp` and `_full_rows_lp` build programs on every call, for this test only.

    A spy on the build then sees every call, none served from the program
    cache, and what the spied build returns never enters that cache.
    """
    monkeypatch.setattr(oracle, "_negativity_program", oracle._negativity_program.__wrapped__)
    monkeypatch.setitem(globals(), "_full_rows_program", _full_rows_program.__wrapped__)


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
        calls = _spy_linprog(monkeypatch)
        result = min_negativity_lp(target)
        assert result.columns == 2 * 4**n
        cost, kwargs = _scipy_program(calls[0])
        basis = oracle._behavior_matrix(n)[oracle._behavior_basis(n).rows]
        assert np.array_equal(cost, np.concatenate([np.zeros(4**n), np.ones(4**n)]))
        assert np.array_equal(kwargs["A_eq"], np.concatenate([basis, -basis], axis=1))
        assert np.array_equal(kwargs["b_eq"], entries[oracle._behavior_basis(n).rows])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_changing_one_cell_drops_the_relabellings_that_move_it(self, n, monkeypatch):
        # The cell and its twin with both outcomes flipped gain 1e-6, the
        # row's other two cells lose it: no marginal moves, so the target
        # stays no-signalling, and the relabellings that fix it are those
        # that map the cell onto itself or onto its twin.
        target = _singlet_at_chained_angles(n)
        group = oracle._chain_group(n)
        used = _record_orbit_groups(monkeypatch)
        min_negativity_lp(target)
        assert np.array_equal(used[-1], group.strategies)
        for cell in range(4 * n * n):
            pair, k = divmod(cell // 4, n), cell % 4
            source, other = (j for j in range(4) if j not in (k, 3 - k))
            moved = _correlator_move(target, pair, 1e-6, (source, k), (other, 3 - k))
            assert min_negativity_lp(moved).status is LPStatus.OPTIMAL
            raised = np.isin(np.arange(4 * n * n), (cell, cell - k + 3 - k))
            keep = (raised[group.rows] == raised).all(axis=1)
            assert 1 < keep.sum() < 8 * n
            assert np.array_equal(used[-1], group.strategies[keep])

    def test_relabellings_that_are_not_a_group_are_not_used(self):
        # Moving 1e-9 into the correlator of row (0, 0), no-signalling,
        # leaves some relabellings just inside the slack and others just
        # outside it.  Those inside are not closed under composition, so
        # HiGHS gets one column pair per strategy.
        n = 5
        target = _correlator_move(_singlet_at_chained_angles(n), (0, 0), 1e-9, (1, 0), (2, 3))
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


def _correlator_move(target: Behavior, pair, size: float, *moves) -> Behavior:
    """`target` with `size` moved within row `pair` along each (source, sink) of `moves`.

    Moving it from -+ to -- and from +- to ++, or back, changes the row's
    correlator and neither marginal, so a no-signalling target stays one.
    """
    for source, sink in moves:
        target = _move_within_row(target, pair, source, sink, size)
    return target


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
        with pytest.raises(RuntimeError,
                           match="^relabelling does not permute the behavior rows at n=2$"):
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
        orbit_sums = oracle._orbit_sums
        calls = _spy_linprog(monkeypatch)
        _build_every_program(monkeypatch)
        monkeypatch.setattr(oracle, "_orbit_sums",
                            lambda perms, matrix: orbit_sums(perms[:1], matrix))
        reference = min_negativity_lp(target)
        cost = calls[0].model.cost
        assert reference.columns == len(cost) == 2 * 4**n
        assert np.array_equal(cost, np.concatenate([np.zeros(4**n), np.ones(4**n)]))
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

    `oracle.linprog` is wrapped to add `size` (1e-3 unless given) to one
    orbit column of HiGHS's optimum, so the weights violate the program and
    the residual is nonzero.  Above `oracle._MAX_RESIDUAL` the answer is
    FAILED, with its weights and residual kept.
    """

    @staticmethod
    def _perturb(monkeypatch, column, size=1e-3):
        def perturbed(res):
            x = res.x.copy()
            x[column(x)] += size
            return res._replace(x=x)

        _spy_linprog(monkeypatch, perturbed)

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
        assert result.status is LPStatus.FAILED
        assert result.solver_message == "Optimal"
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
        assert result.status is LPStatus.FAILED
        assert result.to_json_dict()["optimal_score"] is None
        weights = result.weights.values()
        normalization = abs(sum(weights) - 1.0)
        negative_entry = max(-value for value in self._entries(n, result.weights).values())
        overrun = 8 * sum(-w for w in weights if w < 0) - budget
        assert overrun > max(normalization, negative_entry, 1e-4)
        violation = max(normalization, negative_entry, overrun)
        assert result.primal_residual == pytest.approx(violation, rel=1e-9, abs=1e-10)

    @pytest.mark.parametrize("size, status", [
        (0.5 * oracle._MAX_RESIDUAL, LPStatus.OPTIMAL),
        (2 * oracle._MAX_RESIDUAL, LPStatus.FAILED),
        (math.nan, LPStatus.FAILED),
    ])
    def test_the_residual_bound_decides_the_status(self, size, status, monkeypatch):
        target = assemble_behavior(chained_saturating_model(3, 1.0))
        self._perturb(monkeypatch, lambda x: 0, size)
        result = min_negativity_lp(target)
        assert result.status is status
        assert result.solver_message == "Optimal"
        if math.isnan(size):
            assert math.isnan(result.primal_residual)
            payload = json.loads(json.dumps(result.to_json_dict(), allow_nan=False))
            assert payload["primal_residual"] is None
        else:
            assert result.primal_residual == pytest.approx(size, rel=1e-6)


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


@functools.cache
def _full_rows_program(n: int) -> oracle._OrbitProgram:
    """A hand-made min-negativity program on all 4n^2 rows and 2 * 4^n columns, one per strategy."""
    cost = np.concatenate([np.zeros(4**n), np.ones(4**n)])
    behavior_matrix = oracle._behavior_matrix(n)
    model = oracle._highs_model(cost, oracle._split_form(behavior_matrix))
    return oracle._OrbitProgram(orbit_of=np.arange(4**n), sizes=np.ones(4**n),
                                cells=behavior_matrix, rows=np.arange(4 * n * n), model=model)


def _full_rows_lp(target: Behavior):
    """`target` solved by `oracle._solve` on `_full_rows_program`, signalling or not.

    `min_negativity_lp` answers a signalling target before HiGHS, so this is
    how HiGHS still gets infeasible programs, and programs whose target
    signals by about its primal feasibility tolerance of 1e-7.
    """
    n = target.n_settings_A
    entries = _entries(target)
    return oracle._solve(n, _full_rows_program(n), entries, entries, target=entries,
                         score=chained_score(target, n))


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
    pytest.param(lambda: _full_rows_lp(_signalling_target()), id="signalling"),
    *(pytest.param(lambda n=n, size=size: _full_rows_lp(_signalling_perturbation(n, size)),
                   id=f"signalling-n{n}-{size:g}")
      for n in range(2, 6) for size in (1e-7, 2e-7)),
]


#: The `_DIRECT_CASES` on which HiGHS with presolve on gives another answer:
#: the hand-made full-row programs (`_full_rows_lp`) of targets that signal
#: by about its feasibility tolerance of 1e-7.  At n = 2 the optimum moves,
#: at n = 3 OPTIMAL becomes INFEASIBLE and at n = 4 INFEASIBLE becomes
#: OPTIMAL.  `min_negativity_lp` hands HiGHS no such program, but
#: `oracle.linprog` solves whatever program it gets with presolve off.
_PRESOLVE_CHANGES_THE_ANSWER = ("signalling-n2-1e-07", "signalling-n3-1e-07", "signalling-n4-1e-07")


class TestSolverSetting:
    """HiGHS runs without presolve: away from its feasibility tolerance that changes speed only."""

    # A target that signals by 1e-7 is reproduced only within HiGHS's primal
    # feasibility tolerance, to a `primal_residual` of about 1e-7 (see
    # `min_negativity_lp`); every other optimum to 1e-9.
    @pytest.mark.parametrize("solve, residual", [
        pytest.param(case.values[0], 2e-7 if case.id.startswith("signalling-n") else 1e-9,
                     id=case.id)
        for case in _DIRECT_CASES if case.id not in _PRESOLVE_CHANGES_THE_ANSWER
    ])
    def test_presolve_off_matches_presolve_on(self, solve, residual, monkeypatch):
        calls = _spy_linprog(monkeypatch)
        result = solve()
        assert len(calls) == 1
        res = calls[0].result
        # The reference is scipy's public `linprog`, not the one under test.
        cost, kwargs = _scipy_program(calls[0], presolve=True)
        reference = linprog(cost, **kwargs)
        assert res.status == reference.status
        if reference.status == 0:
            assert res.fun == pytest.approx(reference.fun, abs=1e-9)
            assert result.status is LPStatus.OPTIMAL
            assert result.primal_residual <= residual
        else:
            assert result.status is LPStatus.INFEASIBLE


def _highs_message() -> str:
    """HiGHS's own account of this thread's last solve, read from its solver.

    The model status's name, and off OPTIMAL also the primal solution
    status's, worded as scipy's wrapper words them.
    """
    solver = oracle._highs_solver()
    status = solver.getModelStatus()
    name = solver.modelStatusToString(status)
    if status == oracle._highs_binding().HighsModelStatus.kOptimal:
        return name
    primal = solver.solutionStatusToString(solver.getInfo().primal_solution_status)
    return f"model_status is {name}; primal_status is {primal}"


def _quoted_highs_message(scipy_message: str) -> str:
    """The HiGHS string that a `scipy.optimize.linprog` message quotes, `(HiGHS Status k: ...)`."""
    return re.fullmatch(r".*\(HiGHS Status \d+: (.+)\)", scipy_message, re.DOTALL).group(1)


class TestDirectHighs:
    """`oracle.linprog` calls HiGHS as `scipy.optimize.linprog` does, and answers alike.

    Status, x, fun and nit are scipy's; the message is HiGHS's own string,
    the one scipy's message quotes.
    """

    @pytest.mark.parametrize("presolve", [False, True], ids=["presolve-off", "presolve-on"])
    @pytest.mark.parametrize("solve", _DIRECT_CASES)
    def test_matches_scipy_linprog(self, solve, presolve, monkeypatch):
        # `presolve` is that of scipy's run: with it off the answers are
        # identical; with it on only status and optimum can be compared, and
        # they differ exactly on `_PRESOLVE_CHANGES_THE_ANSWER`.
        solve_directly = oracle.linprog
        calls = _spy_linprog(monkeypatch)
        solve()
        assert len(calls) == 1
        call = calls[0]
        got = solve_directly(call.model, call.row_lower, call.row_upper)
        assert got.message == _highs_message()
        cost, kwargs = _scipy_program(call, presolve)
        want = linprog(cost, **kwargs)
        if presolve:
            agree = got.status == want.status and (
                want.status != 0 or got.fun == pytest.approx(want.fun, abs=1e-9))
            changed = [case.values[0] for case in _DIRECT_CASES
                       if case.id in _PRESOLVE_CHANGES_THE_ANSWER]
            assert agree is (solve not in changed)
            return
        assert (got.status, got.nit) == (want.status, want.nit)
        assert got.message == _quoted_highs_message(want.message)
        assert got.fun == want.fun
        if want.x is None:
            assert got.x is None
        else:
            assert np.array_equal(got.x, want.x)

    @pytest.mark.parametrize("lower, upper, message", [
        pytest.param([1.0], [1.0, 1.0], "^row bounds of 1 and 2 entries for a model of 2 rows$",
                     id="short-lower"),
        pytest.param([1.0, 1.0], [1.0], "^row bounds of 2 and 1 entries for a model of 2 rows$",
                     id="short-upper"),
        pytest.param([1.0] * 3, [1.0] * 3, "^row bounds of 3 and 3 entries for a model of 2 rows$",
                     id="long-both"),
    ])
    def test_refuses_row_bounds_that_do_not_fit_the_model(self, lower, upper, message):
        model = oracle._highs_model(np.ones(2), np.eye(2))
        with pytest.raises(ValueError, match=message):
            oracle.linprog(model, np.array(lower), np.array(upper))

    @pytest.mark.parametrize("option", [("no_such_option", 1), ("simplex_strategy", 99)])
    def test_an_option_highs_refuses_raises(self, option, monkeypatch):
        # A thread whose solver is not yet made, as in a fresh process.
        monkeypatch.setattr(oracle, "_THREAD_HIGHS", threading.local())
        monkeypatch.setattr(oracle, "_HIGHS_OPTIONS", (*oracle._HIGHS_OPTIONS, option))
        with pytest.raises(RuntimeError, match=f"^HiGHS refused option {option[0]!r}"):
            oracle._highs_solver()


def _direct_programs(monkeypatch) -> list:
    """The `_Solve` of every `_DIRECT_CASES` solve, as `_solve` hands it over."""
    with monkeypatch.context() as patch:
        calls = _spy_linprog(patch)
        for case in _DIRECT_CASES:
            case.values[0]()
    return calls


def _answer(res) -> tuple:
    """What `linprog` reports, in a form that `==` compares exactly."""
    x = None if res.x is None else res.x.tolist()
    return res.status, x, res.fun, res.nit, res.message


def _scipy_answer(call: _Solve) -> tuple:
    """`_answer` of `scipy.optimize.linprog` on the program of `call`, see `_scipy_program`.

    Its message is the HiGHS string that scipy's message quotes.
    """
    cost, kwargs = _scipy_program(call)
    res = linprog(cost, **kwargs)
    return (*_answer(res)[:-1], _quoted_highs_message(res.message))


def _lp_answer(result) -> tuple:
    """An `LPResult`'s JSON fields and its weights in order, in a form that `==` compares exactly."""
    return json.dumps(result.to_json_dict(), sort_keys=True), list(result.weights.items())


class TestReusedHighs:
    """`oracle.linprog` reuses one HiGHS instance per thread and carries nothing between solves."""

    def test_no_state_leaks_between_solves(self, monkeypatch):
        # Forward, then reversed, with the hand-made infeasible program of
        # the signalling target (`_full_rows_lp`) between solves: each answer
        # is what a fresh HiGHS instance, the one scipy's `linprog` makes per
        # call, gives.
        programs = _direct_programs(monkeypatch)
        signalling = programs[[case.id for case in _DIRECT_CASES].index("signalling")]
        infeasible = _scipy_answer(signalling)
        assert infeasible[0] == 2
        for call in programs + programs[::-1]:
            got = oracle.linprog(call.model, call.row_lower, call.row_upper)
            assert _answer(got) == _scipy_answer(call)
            got = oracle.linprog(signalling.model, signalling.row_lower, signalling.row_upper)
            assert _answer(got) == infeasible

    def test_each_thread_has_its_own_solver(self, monkeypatch):
        programs = _direct_programs(monkeypatch)
        solve_directly = oracle.linprog
        # Both LP kinds, on programs cached here first (at most 16 symmetry
        # keys, so none is evicted while the threads run).
        cases = [case.values[0] for case in _DIRECT_CASES if not case.id.startswith("signalling-")]
        calls = _spy_linprog(monkeypatch)
        expected = [_lp_answer(solve()) for solve in cases]
        cached = {id(call.model) for call in calls}
        solvers, answers, lp_answers = {}, {}, {}

        def solve_all(name):
            solvers[name] = oracle._highs_solver()
            answers[name] = [
                _answer(solve_directly(c.model, c.row_lower, c.row_upper))
                for c in programs
            ]
            lp_answers[name] = [_lp_answer(solve()) for solve in cases]

        names = "abcd"  # more threads than the 2 cores the tests are timed on
        threads = [threading.Thread(target=solve_all, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({id(solvers[name]) for name in names}) == len(names)
        assert oracle._highs_solver() not in solvers.values()
        want = [_scipy_answer(call) for call in programs]
        assert all(answers[name] == want for name in names)
        assert all(lp_answers[name] == expected for name in names)
        # The threads solved the very programs cached before they started.
        assert {id(call.model) for call in calls[len(cases):]} == cached

    def test_a_new_solver_has_presolve_off(self):
        # Read in a new thread, before its solver has solved anything.
        presolve = []
        thread = threading.Thread(
            target=lambda: presolve.append(oracle._highs_solver().getOptionValue("presolve")[1]))
        thread.start()
        thread.join(timeout=60)
        assert presolve == ["off"]

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


class _ReportsStatus:
    """This thread's HiGHS solver, but for the model status it reports after a solve."""

    def __init__(self, solver, status) -> None:
        self._solver, self._status = solver, status

    def getModelStatus(self):
        return self._status

    def __getattr__(self, name):
        return getattr(self._solver, name)


class _RunFails:
    """This thread's HiGHS solver, but for `run`, which reports an error without solving."""

    def __init__(self, solver) -> None:
        self._solver = solver

    def run(self):
        return oracle._highs_binding().HighsStatus.kError

    def __getattr__(self, name):
        return getattr(self._solver, name)


#: The `LPStatus` of each HiGHS model status that is not FAILED.
_NOT_FAILED = {"kOptimal": LPStatus.OPTIMAL, "kInfeasible": LPStatus.INFEASIBLE,
               "kUnbounded": LPStatus.UNBOUNDED}


def _model_error_target() -> Behavior:
    """A no-signalling 2-setting target whose every row is (1e300, -1e300, 1/2, 1/2).

    HiGHS refuses its row bounds as a model error, which scipy's `linprog`
    reports as infeasible (status 2), so it is kept out of `_DIRECT_CASES`.
    """
    row = (1e300, -1e300, 0.5, 0.5)
    return Behavior(2, 2, {pair: row for pair in itertools.product(range(2), repeat=2)})


class TestHighsStatus:
    """HiGHS's model status decides the `LPStatus`: only three are not FAILED."""

    @pytest.mark.parametrize("name", sorted(oracle._highs_binding().HighsModelStatus.__members__))
    def test_each_model_status_has_its_lp_status(self, name, monkeypatch):
        status = oracle._highs_binding().HighsModelStatus.__members__[name]
        solver = oracle._highs_solver()
        monkeypatch.setattr(oracle, "_THREAD_HIGHS", threading.local())
        oracle._THREAD_HIGHS.solver = _ReportsStatus(solver, status)
        calls = _spy_linprog(monkeypatch)
        result = min_negativity_lp(_singlet_at_chained_angles(2))
        want = _NOT_FAILED.get(name, LPStatus.FAILED)
        assert result.status is want
        assert calls[0].result.status == {LPStatus.OPTIMAL: 0, LPStatus.INFEASIBLE: 2,
                                          LPStatus.UNBOUNDED: 3, LPStatus.FAILED: 4}[want]
        assert (result.primal_residual is None) is (want is not LPStatus.OPTIMAL)
        name_string = solver.modelStatusToString(status)
        assert result.solver_message.startswith(
            name_string if want is LPStatus.OPTIMAL else f"model_status is {name_string}; ")

    def test_a_failed_run_is_failed(self, monkeypatch):
        solver = oracle._highs_solver()
        monkeypatch.setattr(oracle, "_THREAD_HIGHS", threading.local())
        oracle._THREAD_HIGHS.solver = _RunFails(solver)
        calls = _spy_linprog(monkeypatch)
        results = [max_score_lp(2, 0.5), min_negativity_lp(_singlet_at_chained_angles(2))]
        assert [result.status for result in results] == [LPStatus.FAILED] * 2
        message = solver.modelStatusToString(solver.getModelStatus())
        assert [call.result for call in calls] == [(4, None, None, 0, message)] * 2

    def test_a_model_error_is_failed_not_infeasible(self, monkeypatch):
        calls = _spy_linprog(monkeypatch)
        result = min_negativity_lp(_model_error_target())
        assert result.status is LPStatus.FAILED
        assert result.solver_message == "Model error"
        assert result.primal_residual is None
        assert calls[0].result.status == 4
        cost, kwargs = _scipy_program(calls[0])
        assert linprog(cost, **kwargs).status == 2


class TestPreparedModels:
    """Each cached program carries its `_HighsModel`, built once from its dense rows."""

    @staticmethod
    def _built(monkeypatch) -> list:
        """(cost, dense rows, model) of every model built for a program the `_DIRECT_CASES` reach."""
        built = []
        highs_model = oracle._highs_model

        def record(cost, matrix):
            model = highs_model(cost, matrix)
            built.append((cost, matrix, model))
            return model

        monkeypatch.setattr(oracle, "_highs_model", record)
        _build_every_program(monkeypatch)
        for n in range(2, 6):
            oracle._score_programs.__wrapped__(n)
        for case in _DIRECT_CASES:
            if not case.id.startswith("score-"):
                case.values[0]()
        return built

    def test_models_are_the_csc_form_of_the_dense_rows(self, monkeypatch):
        built = self._built(monkeypatch)
        # Two models per score program and one per min-negativity solve.
        min_negativity = sum(not case.id.startswith("score-") for case in _DIRECT_CASES)
        assert len(built) == 2 * 4 + min_negativity
        for cost, matrix, model in built:
            csc = scipy.sparse.csc_array(matrix)
            assert model.rows == len(matrix)
            assert np.array_equal(model.cost, cost) and model.cost.dtype == np.float64
            for got, want in ((model.start, csc.indptr), (model.index, csc.indices),
                              (model.value, csc.data)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            assert model.start.dtype == model.index.dtype == np.int32
            assert model.lower.tolist() == [0.0] * len(cost)
            assert model.upper.tolist() == [math.inf] * len(cost)
            assert model.integrality.tolist() == [0] * len(cost)
            assert model.integrality.dtype == np.int32
            for array in model:
                if isinstance(array, np.ndarray):
                    assert not array.flags.writeable

    @pytest.mark.parametrize("n", range(2, 6))
    def test_infinite_budget_model_drops_the_budget_row(self, n):
        infinite, finite = [program.model for program in oracle._score_programs(n)]
        # The budget row is the last row of `A_ub`; the normalization row follows it.
        rows = np.delete(_dense(finite), finite.rows - 2, axis=0)
        csc = scipy.sparse.csc_array(rows)
        assert infinite.rows == finite.rows - 1
        assert np.array_equal(infinite.cost, finite.cost)
        assert np.array_equal(infinite.start, csc.indptr)
        assert np.array_equal(infinite.index, csc.indices)
        assert np.array_equal(infinite.value, csc.data)
        assert _dense(finite)[finite.rows - 2].tolist() == [0.0] * (len(finite.cost) // 2) + [
            8.0 * size for size in np.bincount(oracle._score_programs(n)[1].orbit_of).tolist()]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_model_rows_map_to_the_kept_cells(self, n, monkeypatch):
        # Row i of each model, the entry rows first, is the orbit-summed row
        # of cell `rows[i]`, the first copy of each distinct one among all
        # cells for `max_score_lp`, as -E and followed by its budget and
        # normalization rows, and among the basis rows for
        # `min_negativity_lp`, as E.
        solves = _record_solves(monkeypatch)
        max_score_lp(n)
        max_score_lp(n, 1.0)
        min_negativity_lp(assemble_behavior(chained_saturating_model(n, 1.0)))
        every_cell, basis = np.arange(4 * n * n), oracle._behavior_basis(n).rows
        cases = [(-1.0, every_cell, 1), (-1.0, every_cell, 2), (1.0, basis, 0)]
        assert len(solves) == len(cases)
        for (_, program, _, _, _), (sign, candidates, more) in zip(solves, cases):
            kept = oracle._split_form(program.cells[program.rows])
            assert np.array_equal(_dense(program.model)[:len(program.rows)], sign * kept)
            assert program.model.rows == len(program.rows) + more
            _, first = np.unique(program.cells[candidates], axis=0, return_index=True)
            assert program.rows.tolist() == sorted(candidates[first].tolist())


def _record_solves(monkeypatch) -> list:
    """Record every `oracle._solve` call as (n, program, keywords, HiGHS's x, result)."""
    solves = []
    calls = _spy_linprog(monkeypatch)
    inner = oracle._solve

    def record(n, program, *args, **kwargs):
        result = inner(n, program, *args, **kwargs)
        solves.append((n, program, kwargs, calls[-1].result.x, result))
        return result

    monkeypatch.setattr(oracle, "_solve", record)
    return solves


def _hex_items(weights) -> list:
    """The (key, weight) pairs of a weights mapping in order, each weight as its exact bits."""
    return [(key, float(w).hex()) for key, w in weights.items()]


class TestReadout:
    """`_solve` reads its answer off HiGHS's x, weighted by the orbit sizes, as a plain recomputation does."""

    @pytest.mark.parametrize("solve", _DIRECT_CASES)
    def test_matches_a_plain_recomputation(self, solve, monkeypatch):
        solves = _record_solves(monkeypatch)
        solve()
        (n, program, kwargs, x, result), = solves
        if x is None:
            assert result.weights == {} and result.primal_residual is None
            assert math.isnan(result.negative_mass)
            return
        k = len(x) // 2
        w_orbits, v_orbits = x[:k] - x[k:], x[k:]
        u, v = x[:k][program.orbit_of], v_orbits[program.orbit_of]
        w = u - v
        joint = _joint(n)
        weights = {joint[j]: float(w[j]) for j in np.flatnonzero(np.abs(w) > 1e-12)}
        assert _hex_items(result.weights) == _hex_items(weights)
        # Mass, sum w and sum v are orbit-size dot products, within 1e-15 of
        # the dense sums over all 4^n strategies.
        sizes = program.sizes
        assert np.array_equal(sizes, np.bincount(program.orbit_of))
        mass = float(sizes @ np.maximum(-w_orbits, 0.0))
        total, negative = sizes @ w_orbits, sizes @ v_orbits
        assert abs(mass - sum(-weight for weight in w.tolist() if weight < 0)) <= 1e-15
        assert abs(total - w.sum()) <= 1e-15 and abs(negative - v.sum()) <= 1e-15
        # The behavior of the orbit solution, B w, through the orbit-summed rows.
        entries = program.cells @ w_orbits
        target, budget = kwargs.get("target"), kwargs.get("budget", math.inf)
        if target is not None:
            assert result.primal_residual == float(np.abs(entries - target).max())
        else:
            assert result.primal_residual == float(
                max(abs(total - 1.0), -entries.min(), 8.0 * negative - budget))
        if target is None and math.isinf(budget):
            assert math.isnan(result.negative_mass)
        else:
            assert result.negative_mass == mass

    def test_grid_programs_and_residuals(self, monkeypatch):
        # Every solve of `scripts/lp_grid_digest.py`'s 72-LP grid, programs
        # built afresh.  Each program's `cells` is B summed over its orbits,
        # exactly, and each residual is the dense max|B w - t| recomputation
        # on all 4^n strategies up to round-off.
        _build_every_program(monkeypatch)
        monkeypatch.setattr(oracle, "_score_programs",
                            functools.cache(oracle._score_programs.__wrapped__))
        solves = _record_solves(monkeypatch)
        for _, call in runpy.run_path(str(SCRIPTS / "lp_grid_digest.py"))["grid"](5):
            call()
        # All 72 LPs but the 17 signalling targets, which are answered unsolved.
        assert len(solves) == 72 - 17
        for n, program, kwargs, x, result in solves:
            behavior_matrix = oracle._behavior_matrix(n)
            orbits = np.arange(program.orbit_of.max() + 1)
            members = (program.orbit_of[:, None] == orbits).astype(np.float64)
            assert np.array_equal(program.cells, behavior_matrix @ members)
            assert program.cells.dtype == np.float64 and not program.cells.flags.writeable
            assert result.to_json_dict()["support_size"] == len(result.weights)
            if x is None:
                assert result.primal_residual is None
                continue
            k = len(x) // 2
            w, v = (x[:k] - x[k:])[program.orbit_of], x[k:][program.orbit_of]
            entries = behavior_matrix @ w
            target, budget = kwargs.get("target"), kwargs.get("budget", math.inf)
            if target is not None:
                dense = np.abs(entries - target).max()
            else:
                dense = max(abs(w.sum() - 1.0), -entries.min(), 8.0 * v.sum() - budget)
            assert abs(result.primal_residual - dense) <= 1e-15

    def test_a_solve_builds_no_weights_until_they_are_read(self, monkeypatch):
        joint = oracle._joint_strategies
        reads = []

        def record(n):
            reads.append(n)
            return joint(n)

        monkeypatch.setattr(oracle, "_joint_strategies", record)
        results = [max_score_lp(4, 1.0),
                   min_negativity_lp(assemble_behavior(chained_saturating_model(5, 1.0)))]
        for result in results:
            assert result.status is LPStatus.OPTIMAL
        assert reads == []
        assert len(results[1].weights) > 0
        assert reads == [5]
        # Built once: later reads reuse the same mapping.
        assert sorted(results[1].weights.items()) == sorted(results[1].weights.items())
        assert reads == [5]

    def test_both_lps_answer_without_expanding_the_weights(self, monkeypatch):
        # Status, score, mass and residual come off the orbit solution: a
        # result whose weights are never read expands nothing to 4^n.
        def fail(n):
            raise AssertionError("the weights were expanded")

        monkeypatch.setattr(oracle, "_joint_strategies", fail)
        score = max_score_lp(5, 0.5)
        family = min_negativity_lp(assemble_behavior(chained_saturating_model(5, 2.0)))
        for result, optimum, mass in ((score, 9.0, 0.0625), (family, 10.0, 0.5)):
            assert result.status is LPStatus.OPTIMAL
            assert result.optimal_score == pytest.approx(optimum, abs=1e-9)
            assert result.negative_mass == pytest.approx(mass, abs=1e-9)
            assert result.primal_residual <= 1e-9
            assert result.weights._w_orbits.shape == (result.columns // 2,)
            with pytest.raises(AssertionError, match="expanded"):
                len(result.weights)

    def test_weights_are_read_only_and_print_as_a_dict(self):
        result = max_score_lp(3, 1.0)
        weights = result.weights
        key = next(iter(weights))
        with pytest.raises(TypeError):
            weights[key] = 0.0
        with pytest.raises(TypeError):
            del weights[key]
        for name in ("pop", "clear", "update", "setdefault", "popitem"):
            assert not hasattr(weights, name)
        plain = dict(weights)
        assert weights == plain and plain == weights and weights != {}
        assert repr(weights) == repr(plain)
        assert repr(result).count(repr(plain)) == 1
        assert result == dataclasses.replace(result, weights=plain)
        assert len(weights) == result.to_json_dict()["support_size"] == len(plain)
        unsolved = min_negativity_lp(_signalling_target())
        assert unsolved.weights == {} and repr(unsolved.weights) == "{}"
        assert len(unsolved.weights) == unsolved.to_json_dict()["support_size"] == 0


class TestNegativityProgramCache:
    """`min_negativity_lp` builds each orbit program once per symmetry of its target."""

    def test_cached_program_is_read_only(self):
        key = (3, np.ones(24, dtype=bool).tobytes(), None)
        program = oracle._negativity_program(*key)
        assert oracle._negativity_program(*key) is program
        model = [a for a in program.model if isinstance(a, np.ndarray)]
        assert len(model) == 7
        for array in (program.rows, program.orbit_of, program.sizes, program.cells, *model):
            with pytest.raises(ValueError):
                array[0] = 1

    @pytest.mark.parametrize("n", range(2, 6))
    def test_werner_targets_share_the_singlet_program(self, n, monkeypatch):
        calls = _spy_linprog(monkeypatch)
        for visibility in (1.0, 0.8, 0.5):
            assert min_negativity_lp(_singlet_at_chained_angles(n, visibility)).status is LPStatus.OPTIMAL
        assert calls[0].model is calls[1].model is calls[2].model

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


def _full_rows_only(monkeypatch) -> None:
    """Make `min_negativity_lp` keep every orbit-summed row apart, for this test only.

    That is the full-row reference the merged programs answer as.
    `_score_programs` caches what it builds, so it is built first, with the
    real `_orbit_fields`.
    """
    for n in range(2, 6):
        oracle._score_programs(n)
    _build_every_program(monkeypatch)
    orbit_fields = oracle._orbit_fields
    monkeypatch.setattr(oracle, "_orbit_fields", lambda n, perms, candidates: (
        *orbit_fields(n, perms, candidates)[:3], candidates))


def _mixture(first: Behavior, second: Behavior, weight: float) -> Behavior:
    """The convex mixture weight * first + (1 - weight) * second, entry by entry."""
    table = {pair: tuple(weight * p + (1 - weight) * q
                         for p, q in zip(first.table[pair], second.table[pair]))
             for pair in first.setting_pairs()}
    return Behavior(first.n_settings_A, first.n_settings_B, table)


class TestDistinctRows:
    """A no-signalling target's copied orbit-summed rows merge, bounded by the first copy's entry."""

    def test_kept_rows_are_first_copies(self, monkeypatch):
        summed = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 2.0], [3.0, 0.0], [0.0, 1.0]])
        monkeypatch.setattr(oracle, "_orbit_sums", lambda perms, matrix: (np.arange(2), summed))
        rows = oracle._orbit_fields(2, None, np.arange(5))[3]
        assert rows.tolist() == [0, 1, 3]
        # Kept as cells of `candidates`, in their order.
        assert oracle._orbit_fields(2, None, np.array([1, 2, 3, 4]))[3].tolist() == [1, 2, 3]

    def test_grid_answers_as_on_the_full_rows(self, monkeypatch):
        # Every min-negativity LP of `scripts/lp_grid_digest.py`'s grid at n <= 5.
        grid = runpy.run_path(str(SCRIPTS / "lp_grid_digest.py"))["grid"](5)
        calls = [(name, call) for name, call in grid if not name.startswith("score ")]
        merged = [call() for _, call in calls]
        _full_rows_only(monkeypatch)
        fewer = 0
        for (name, call), got in zip(calls, merged):
            want = call()
            assert got.status is want.status, name
            assert got.rows <= want.rows, name
            fewer += got.rows < want.rows
            if want.status is LPStatus.OPTIMAL:
                assert got.optimal_score == pytest.approx(want.optimal_score, abs=1e-9), name
                assert got.negative_mass == pytest.approx(want.negative_mass, abs=1e-9), name
        # The 12 family targets, the 6 N = 1 family targets moved by 1e-12
        # within a row, the singlet moved by 0 or 1e-12 and the Werner target
        # at each n, the model-error target, and the singlet moved by 1e-9 in
        # its correlator at n = 2 and 4.  At n = 3 and 5 that singlet keeps
        # every row, since its relabellings within the slack are no group;
        # the signalling targets reach no program.
        assert fewer == 12 + 6 + 3 * 4 + 1 + 2

    @pytest.mark.parametrize("n, budget, moves, status, rows", [
        # 1e-12 moved within row (0, 0): the target's relabellings still fix
        # it within the slack, and rows that sum alike get bounds 1e-12 apart.
        *((n, budget, [((0, 0), 1e-12)], LPStatus.OPTIMAL, (n + 1) ** 2)
          for n in range(2, 6) for budget in (0.5, 1.0, 2.0)),
        # The PR box made to signal by 1e-3 in row (0, 0), and 1e-12 moved
        # within another row: no program, on either side.
        *((2, 2.0, [((0, 0), 1e-3), (pair, 1e-12)], LPStatus.INFEASIBLE, 0)
          for pair in ((0, 1), (1, 0), (1, 1))),
    ])
    def test_unequal_bounds_take_the_full_rows(self, n, budget, moves, status, rows, monkeypatch):
        """Copies with unequal bounds merge when the target does not signal.

        `rows` is the full-row reference's count, all (n+1)^2 basis rows, or
        0 for a signalling target, which is answered before any program.
        """
        target = assemble_behavior(chained_saturating_model(n, budget))
        for pair, size in moves:
            target = _move_within_row(target, pair, 0, 3, size)
        result = min_negativity_lp(target)
        _full_rows_only(monkeypatch)
        full = min_negativity_lp(target)
        assert (result.status, full.status, full.rows) == (status, status, rows)
        if status is LPStatus.OPTIMAL:
            # Merged, each row bounded by its first copy: the 1e-12 gap is
            # what `primal_residual`, over all 4n^2 rows, reports.
            assert result.rows < rows
            assert 1e-13 < result.primal_residual < 1e-11
            assert result.negative_mass == pytest.approx(full.negative_mass, abs=1e-9)
        else:
            assert (result.rows, result.iterations) == (rows, full.iterations)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 4), budget=st.sampled_from((0.5, 1.0, 2.0)),
           visibility=st.floats(0.0, 1.0), weight=st.floats(0.0, 1.0))
    # Near-degenerate mixtures: a part of weight about 1e-7 moves the optimum
    # by about HiGHS's 1e-7 tolerances, on either program.
    @example(n=3, budget=1.0, visibility=1.0, weight=1.192092896e-07)
    @example(n=3, budget=0.5, visibility=0.0, weight=1.192092896e-07)
    @example(n=4, budget=2.0, visibility=0.37073279482625254, weight=1.540857017490392e-05)
    @example(n=4, budget=2.0, visibility=0.5, weight=0.9999999)
    def test_werner_family_mixtures_answer_as_on_the_full_rows(self, n, budget, visibility,
                                                                weight):
        """The merged program has the full-row reference's status, and its mass within 1e-6.

        Both programs have the same feasible set, but HiGHS's primal and dual
        feasibility tolerances of 1e-7 let them stop at optima whose masses
        differ by up to about 3e-7, with `primal_residual` up to about 1e-7,
        on mixtures with a part of weight 1e-8 to 1e-5 (the examples above).
        """
        family = assemble_behavior(chained_saturating_model(n, budget))
        target = _mixture(_singlet_at_chained_angles(n, visibility), family, weight)
        result = min_negativity_lp(target)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _full_rows_only(monkeypatch)
            full = min_negativity_lp(target)
        assert result.status is full.status is LPStatus.OPTIMAL
        assert result.negative_mass == pytest.approx(full.negative_mass, abs=1e-6)


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
    points 2 and 3 the 0/1 rows (0, 1) and (1, 0) among stochastic rows.
    Point 0 carries weight -0.05 and point 1's rows, so the behavior is
    valid.
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


def _joint_sampled_model() -> Model:
    """A valid model on the product of two Alice and three Bob hidden values.

    Point (a1, b1) weighs -0.05 and the other five share 1.05, which keeps
    the behavior valid; the parties index their tables by different labels.
    """
    rng = np.random.default_rng(4)
    model = random_joint_model(rng)
    weights = rng.random(len(model.dist.support)) + 0.5
    weights = 1.05 * weights / weights[1:].sum()
    weights[0] = -0.05
    dist = QuasiDist(model.dist.support, {p: float(w) for p, w in zip(model.dist.support, weights)})
    return Model(model.response_A, model.response_B, dist)


# Small and large supports, a zero weight, a joint support; settings whose
# outcomes the hidden value fixes, ones it does not, and both in one model;
# float and `Fraction` weights.
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
    pytest.param(_joint_sampled_model, 5000, id="joint-2x3-points"),
]


def _plus(response: LocalResponse, x: int, lam) -> float:
    """The response's + probability at (x, lam), clipped to [0, 1]."""
    return min(max(float(response.table[(x, lam)][1]), 0.0), 1.0)


def _total_variation(model: Model) -> float:
    """S = sum |w|, summed in support order as `signed_sample` sums it."""
    return float(np.sum(np.abs([float(model.dist.weights[p]) for p in model.dist.support])))


def _draw_probabilities(model: Model, x_a: int, x_b: int) -> list[float]:
    """q for one setting pair, built with plain loops: entry 4 * s + k sums
    |w| / S * P_A * P_B over the points of sign s (1 for w < 0) whose
    outcome pair is OUTCOME_PAIRS[k]."""
    total_variation = _total_variation(model)
    q = [0.0] * 8
    for lam_a, lam_b in model.dist.support:
        w = float(model.dist.weights[(lam_a, lam_b)])
        share = abs(w) / total_variation
        p_a = _plus(model.response_A, x_a, lam_a)
        p_b = _plus(model.response_B, x_b, lam_b)
        for k, (y_a, y_b) in enumerate(OUTCOME_PAIRS):
            q[4 * (w < 0) + k] += (
                share * (p_a if y_a > 0 else 1.0 - p_a) * (p_b if y_b > 0 else 1.0 - p_b)
            )
    return q


def _setting_pairs(model: Model):
    return itertools.product(range(model.response_A.n_settings),
                             range(model.response_B.n_settings))


def _per_shot_means(model: Model, shots: int, seed: int) -> dict:
    """Each cell's estimate from the per-shot sampler, the reference for the
    multinomial draw's law: per setting pair, `shots` hidden values from
    |w| / S, then one uniform per shot and party, whose outcome is + when the
    uniform is below the row's + probability."""
    points = list(model.dist.support)
    weights = np.array([float(model.dist.weights[p]) for p in points])
    total_variation = _total_variation(model)
    signs = np.where(weights < 0, -1.0, 1.0)
    rng = np.random.default_rng(seed)
    means = {}
    for x_a, x_b in _setting_pairs(model):
        plus_a = np.array([float(model.response_A.table[(x_a, la)][1]) for la, _ in points])
        plus_b = np.array([float(model.response_B.table[(x_b, lb)][1]) for _, lb in points])
        lam = rng.choice(len(points), size=shots, p=np.abs(weights) / total_variation)
        cell = 2 * (rng.random(shots) < plus_a[lam]) + (rng.random(shots) < plus_b[lam])
        for k in range(4):
            means[(x_a, x_b, k)] = total_variation * float(signs[lam][cell == k].sum()) / shots
    return means


def _capture_draw_probabilities(monkeypatch) -> list:
    """Record the q of every `multinomial` call that `signed_sample` makes."""
    captured = []
    default_rng = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def multinomial(self, n, pvals):
            captured.append(np.array(pvals))
            return self._rng.multinomial(n, pvals)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    return captured


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
        # Reference: q built with plain loops, one multinomial per setting
        # pair, row-major, on the same seed, then the per-cell reduce of the
        # counts masked by sign.
        model = make_model()
        seed = 17
        estimate = signed_sample(model, shots=shots, seed=seed)
        total_variation = _total_variation(model)
        rng = np.random.default_rng(seed)
        for x_a, x_b in _setting_pairs(model):
            counts = rng.multinomial(shots, _draw_probabilities(model, x_a, x_b)).tolist()
            for k in range(4):
                plus, minus = counts[k], counts[4 + k]
                mean = total_variation * (plus - minus) / shots
                abs_fraction = (plus + minus) / shots
                variance = max(total_variation**2 * abs_fraction - mean * mean, 0.0)
                assert estimate.empirical_behavior.table[(x_a, x_b)][k] == mean
                assert estimate.standard_errors[(x_a, x_b, k)] == math.sqrt(variance / shots)

    @pytest.mark.parametrize("make_model, shots", _SAMPLED_MODELS)
    def test_draw_probabilities_are_the_per_shot_ones(self, make_model, shots, monkeypatch):
        # Exact law of one shot: point j with |w_j| / sum |w|, then each
        # outcome + with the row's + probability clipped to [0, 1].
        model = make_model()
        captured = _capture_draw_probabilities(monkeypatch)
        signed_sample(model, shots=shots, seed=3)
        (q,) = captured
        pairs = list(_setting_pairs(model))
        assert q.shape == (len(pairs), 8)
        weights = {p: Fraction(w) for p, w in model.dist.weights.items()}
        total_variation = sum(abs(w) for w in weights.values())
        for row, (x_a, x_b) in zip(q, pairs):
            exact = [Fraction(0)] * 8
            for (lam_a, lam_b), w in weights.items():
                p_a = Fraction(_plus(model.response_A, x_a, lam_a))
                p_b = Fraction(_plus(model.response_B, x_b, lam_b))
                for k, (y_a, y_b) in enumerate(OUTCOME_PAIRS):
                    exact[4 * (w < 0) + k] += (abs(w) / total_variation
                                               * (p_a if y_a > 0 else 1 - p_a)
                                               * (p_b if y_b > 0 else 1 - p_b))
            for got, want in zip(row.tolist(), exact):
                assert abs(Fraction(got) - want) <= Fraction(1, 10**15)

    @pytest.mark.parametrize("make_model, shots", _SAMPLED_MODELS)
    def test_cell_moments_match_the_per_shot_sampler(self, make_model, shots):
        # Over 200 seeds at 400 shots, each cell's mean and variance from the
        # multinomial draw and from the per-shot reference.  An estimate's
        # variance is sigma**2 = (S**2 P|cell| - P**2) / shots, so the two
        # means differ by at most 5 sqrt(2 / 200) sigma, five standard
        # deviations of their difference; each sample variance has a standard
        # deviation of about sqrt(2 / 199) sigma**2 for near-normal counts,
        # more for rare cells, so the two may differ by 0.75 sigma**2.
        model = make_model()
        seeds, shots = range(200), 400
        exact = assemble_behavior(model)
        total_variation = _total_variation(model)
        drawn = [signed_sample(model, shots, seed).empirical_behavior.table for seed in seeds]
        reference = [_per_shot_means(model, shots, 10**6 + seed) for seed in seeds]
        for x_a, x_b in _setting_pairs(model):
            q = _draw_probabilities(model, x_a, x_b)
            for k in range(4):
                entry = float(exact.table[(x_a, x_b)][k])
                variance = (total_variation**2 * (q[k] + q[4 + k]) - entry**2) / shots
                sigma2 = max(variance, 0.0)
                ours = np.array([table[(x_a, x_b)][k] for table in drawn])
                theirs = np.array([means[(x_a, x_b, k)] for means in reference])
                spread = 5 * math.sqrt(2 / len(seeds) * sigma2)
                assert abs(ours.mean() - theirs.mean()) <= spread + 1e-12
                assert abs(ours.var(ddof=1) - theirs.var(ddof=1)) <= 0.75 * sigma2 + 1e-12

    def test_outcome_fixed_at_the_edges(self):
        # A row up to the tolerance outside [0, 1] is clipped, so it samples
        # as the fixed outcome it is within round-off.
        model = chained_saturating_model(3, 1)
        edges = {(0.0, 1.0): (-1e-10, 1 + 1e-10), (1.0, 0.0): (1 + 1e-10, -1e-10)}

        def blurred(response: LocalResponse) -> LocalResponse:
            table = {key: edges[row] for key, row in response.table.items()}
            return LocalResponse(response.party, response.n_settings,
                                 response.hidden_values, table)

        edge_model = Model(blurred(model.response_A), blurred(model.response_B), model.dist)
        assert edge_model.response_A.table[(0, "1")] != model.response_A.table[(0, "1")]
        for seed in (0, 5):
            assert (signed_sample(edge_model, 10_000, seed).to_json_dict()
                    == signed_sample(model, 10_000, seed).to_json_dict())

    def test_shots_at_the_cap_are_drawn_within_a_second(self):
        model = chained_saturating_model(3, 1)
        exact = assemble_behavior(model)
        start = time.perf_counter()
        estimate = signed_sample(model, oracle._MAX_SHOTS, seed=29)
        assert time.perf_counter() - start < 1.0
        for x_a, x_b in exact.setting_pairs():
            for k in range(4):
                diff = abs(estimate.empirical_behavior.table[(x_a, x_b)][k]
                           - float(exact.table[(x_a, x_b)][k]))
                assert diff <= 5 * estimate.standard_errors[(x_a, x_b, k)] + 1e-12

    def test_outputs_are_pinned(self):
        # Any change to the draw contract, or a numpy whose
        # `Generator.multinomial` consumes the stream differently, moves this.
        models = [chsh_saturating_model(1), chained_saturating_model(3, 1),
                  _sampled_model(6, zero_weight=True), _mixed_model(), _joint_sampled_model()]
        estimates = [signed_sample(model, shots, seed).to_json_dict()
                     for model in models for seed in (0, 7, 2**70) for shots in (1, 1000, 10**6)]
        digest = hashlib.sha256(json.dumps(estimates, sort_keys=True).encode()).hexdigest()
        assert digest == "bc4bb40d60c3642f2650cc02256062e13735a58d80b9276db706548996c9087a"

    def test_rejects_non_positive_shots(self):
        with pytest.raises(ValueError):
            signed_sample(chsh_saturating_model(1), shots=0, seed=0)
