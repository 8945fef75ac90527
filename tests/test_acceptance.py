"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a PASS line once its assertions clear; run with
``pytest tests/test_acceptance.py -v -s`` to see them live.  Criteria with a
runtime budget assert it too.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from quasibell import (
    assemble_behavior,
    chained_saturating_model,
    chained_score,
    check_quasi_bell,
    chsh_saturating_model,
    classical_bound_bruteforce,
    max_score_lp,
    quantum_behavior,
    signed_sample,
    singlet_state,
    validate_behavior,
    witness_chained,
    witness_chained_link,
    witness_faithful,
)
from quasibell.constructions import SymbolStrategy, model_from_strategies
from test_constructions import golden_two_setting_table

from conftest import random_model, random_positive_dist, random_signed_dist, random_valid_model

TSIRELSON_BUDGET = 2 * (math.sqrt(2) - 1)
BUDGET_GRID = [0.0, 0.5, 1.0, TSIRELSON_BUDGET, 2.0]


def report(number: int, text: str) -> None:
    print(f"[criterion {number}] PASS: {text}")


def test_criterion_1_golden_table():
    start = time.perf_counter()
    for budget in BUDGET_GRID:
        exact_budget = Fraction(budget)
        exact = assemble_behavior(chsh_saturating_model(exact_budget, exact=True))
        golden = golden_two_setting_table(exact_budget)
        for pair, row in golden.items():
            assert exact.table[pair] == row  # exact rational equality
        floating = assemble_behavior(chsh_saturating_model(budget))
        for pair, row in golden.items():
            for got, want in zip(floating.table[pair], row):
                assert abs(got - float(want)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"golden table matches exactly (rational) and to 1e-12 (float) in {elapsed:.3f}s")


def test_criterion_2_two_setting_saturation():
    for budget in BUDGET_GRID:
        model = chsh_saturating_model(budget)
        behavior = assemble_behavior(model)
        assert chained_score(behavior, 2) == pytest.approx(2 + budget, abs=1e-9)
        assert witness_chained_link(model, 1, behavior).selected == pytest.approx(budget, abs=1e-9)
        assert check_quasi_bell(model, 2).margin == pytest.approx(0.0, abs=1e-9)
    report(2, "score 2+N, selected witness N, margin 0 across the budget grid")


def test_criterion_3_tsirelson_emulation():
    construction = assemble_behavior(chsh_saturating_model(TSIRELSON_BUDGET))
    construction_score = chained_score(construction, 2)
    assert construction_score == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    quantum = quantum_behavior(
        singlet_state(), [0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4]
    )
    assert chained_score(quantum, 2) == pytest.approx(construction_score, abs=1e-9)
    report(3, "budget 2(sqrt(2)-1) reproduces the singlet score 2*sqrt(2)")


def test_criterion_4_no_signalling_ceiling():
    result = max_score_lp(2, math.inf)
    assert result.optimal_score == pytest.approx(4.0, abs=1e-7)
    with pytest.raises(ValueError):
        chsh_saturating_model(2.0000001)
    lo, hi = 0.0, 4.0
    while hi - lo > 1e-7:
        mid = (lo + hi) / 2
        behavior = assemble_behavior(chsh_saturating_model(mid, force=True))
        if validate_behavior(behavior, tol=1e-12).is_valid:
            lo = mid
        else:
            hi = mid
    assert hi == pytest.approx(2.0, abs=1e-6)
    report(4, f"LP ceiling 4, budget>2 rejected, validity boundary {hi:.7f}")


def test_criterion_5_classical_bounds():
    start = time.perf_counter()
    for n in (2, 3, 4, 5):
        brute = classical_bound_bruteforce(n)
        assert brute == 2 * n - 2
        lp = max_score_lp(n, 0.0).optimal_score
        assert lp == pytest.approx(brute, abs=1e-7)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, f"brute force and zero-budget LP agree on 2n-2 for n=2..5 in {elapsed:.2f}s")


def test_criterion_6_random_model_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(60_2026)
    checked = 0
    with_negativity = 0
    worst = -math.inf
    for i in range(10_000):
        model, behavior = random_valid_model(rng, n_settings=3, max_points=6)
        if not model.dist.is_all_positive():
            with_negativity += 1
        for n in (2, 3):
            result = check_quasi_bell(model, n)
            worst = max(worst, result.score - result.bound)
            assert result.score <= result.bound + 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 10_000
    assert worst <= 1e-9
    assert elapsed < 60.0
    report(
        6,
        f"10^4 random valid models ({with_negativity} signed) hold for n=2,3; "
        f"worst slack {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_7_chained_saturation():
    for n in (2, 3, 4, 5):
        for budget in (0.0, 1.0, 2.0):
            model = chained_saturating_model(n, budget)
            behavior = assemble_behavior(model)
            assert chained_score(behavior, n) == pytest.approx(2 * n - 2 + budget, abs=1e-9)
            chain = witness_chained(model, n, behavior)
            assert chain.total == pytest.approx(budget, abs=1e-9)
            contributions = [term.selected for term in chain.terms]
            for early in contributions[:-1]:
                assert early == pytest.approx(0.0, abs=1e-9)
            assert contributions[-1] == pytest.approx(budget, abs=1e-9)
    report(7, "chained families score 2n-2+N with per-link witness (0,...,0,N)")


def test_criterion_8_witness_definitions():
    rng = np.random.default_rng(80_2026)
    for _ in range(1000):
        labels = tuple(str(i) for i in range(1, int(rng.integers(2, 7)) + 1))
        dist = random_positive_dist(rng, labels)
        assert witness_faithful(dist) <= 1e-12
        model = random_model(rng, n_settings=2, force_negative=False)
        while not model.dist.is_all_positive():
            model = random_model(rng, n_settings=2, force_negative=False)
        link = witness_chained_link(model, 1)
        assert link.n_plus <= 1e-12
        assert link.n_minus <= 1e-12
        assert link.selected <= 1e-12
    for _ in range(1000):
        labels = tuple(str(i) for i in range(1, int(rng.integers(2, 7)) + 1))
        dist = random_signed_dist(rng, labels, force_negative=True)
        assert dist.negative_mass() > 0
        assert witness_faithful(dist) > 0
    all_plus = SymbolStrategy(("+", "+"), ("+", "+"))
    blind = model_from_strategies({"1": all_plus, "2": all_plus}, {"1": 1.5, "2": -0.5})
    blind_report = witness_chained_link(blind, 1)
    assert blind.dist.negative_mass() > 0
    assert blind_report.selected == 0.0
    assert blind_report.faithful > 0
    report(8, "witnesses vanish on positive dists, faithful detects all negativity, "
              "and the case-selected witness is provably non-faithful")


def test_criterion_9_sampling():
    start = time.perf_counter()
    model = chsh_saturating_model(1)
    exact = assemble_behavior(model)
    estimate = signed_sample(model, shots=1_000_000, seed=92_026)
    for pair in exact.setting_pairs():
        for k in range(4):
            value = estimate.empirical_behavior.table[pair][k]
            target = float(exact.table[pair][k])
            error = estimate.standard_errors[(pair[0], pair[1], k)]
            assert abs(value - target) <= 5 * error + 1e-12

    def rms_error(est):
        diffs = [
            est.empirical_behavior.table[pair][k] - float(exact.table[pair][k])
            for pair in exact.setting_pairs()
            for k in range(4)
        ]
        return math.sqrt(sum(d * d for d in diffs) / len(diffs))

    small = rms_error(signed_sample(model, shots=1_000_000, seed=93_026))
    large = rms_error(signed_sample(model, shots=4_000_000, seed=93_026))
    ratio = small / large
    assert 2 / 1.5 <= ratio <= 2 * 1.5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        9,
        f"10^6-shot cells within 5 SE; quadrupling shots shrinks RMS error by "
        f"{ratio:.2f}x; {elapsed:.1f}s",
    )
