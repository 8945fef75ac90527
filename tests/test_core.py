"""Behavior assembly, local expectations, correlators, validity."""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasibell import (
    DEFAULT_TOLERANCE,
    Behavior,
    LocalResponse,
    Model,
    QuasiDist,
    StructureError,
    assemble_behavior,
    check_quasi_bell,
    chsh_saturating_model,
    correlation,
    local_expectation,
    quantum_behavior,
    singlet_state,
    validate_behavior,
)
from quasibell.constructions import SymbolStrategy, model_from_strategies

from conftest import diagonal_models, random_model


def two_point_response(party, p_plus_by_setting, label="1"):
    n = len(p_plus_by_setting)
    table = {(x, label): (1.0 - p, p) for x, p in enumerate(p_plus_by_setting)}
    return LocalResponse(party, n, (label,), table)


class TestLocalExpectation:
    def test_deterministic_plus_gives_one(self):
        resp = two_point_response("A", [1.0, 0.0])
        assert local_expectation(resp, 0, "1") == 1.0
        assert local_expectation(resp, 1, "1") == -1.0

    def test_uniform_gives_zero(self):
        resp = two_point_response("A", [0.5])
        assert local_expectation(resp, 0, "1") == 0.0

    def test_biased_row(self):
        # 0.75 on +1 and 0.25 on -1 averages to 0.5
        resp = two_point_response("B", [0.75])
        assert local_expectation(resp, 0, "1") == pytest.approx(0.5)
        assert resp.row(0, "1")[1] == 0.75
        assert resp.row(0, "1")[0] == 0.25

    def test_out_of_range_setting(self):
        resp = two_point_response("A", [0.5])
        with pytest.raises(IndexError):
            local_expectation(resp, 3, "1")

    def test_unknown_hidden_value(self):
        resp = two_point_response("A", [0.5])
        with pytest.raises(KeyError):
            local_expectation(resp, 0, "nope")


class TestStructure:
    def test_response_rejects_incomplete_table(self):
        with pytest.raises(StructureError):
            LocalResponse("A", 2, ("1",), {(0, "1"): (0.5, 0.5)})

    def test_response_rejects_unnormalized_row(self):
        with pytest.raises(StructureError):
            LocalResponse("A", 1, ("1",), {(0, "1"): (0.7, 0.7)})

    def test_response_rejects_negative_probability(self):
        with pytest.raises(StructureError):
            LocalResponse("A", 1, ("1",), {(0, "1"): (-0.2, 1.2)})

    def test_dist_rejects_bad_normalization(self):
        with pytest.raises(StructureError):
            QuasiDist.diagonal({"1": 0.7, "2": 0.7})

    def test_dist_allows_negative_weights(self):
        dist = QuasiDist.diagonal({"1": 1.5, "2": -0.5})
        assert dist.negative_mass() == pytest.approx(0.5)
        assert dist.total_variation() == pytest.approx(2.0)

    def test_dist_rejects_float_mixed_with_fraction(self):
        weights = {"1": Fraction(1, 2), "2": 0.25, "3": Fraction(1, 4), "4": Fraction(0)}
        with pytest.raises(StructureError, match="^weights mix float and Fraction arithmetic$"):
            QuasiDist.diagonal(weights)

    @pytest.mark.parametrize("weights", [
        {"1": 0.5, "2": 0.75, "3": -0.25},
        {"1": Fraction(1, 2), "2": Fraction(3, 4), "3": Fraction(-1, 4)},
        {"1": 1, "2": 0.25, "3": -0.25},
        {"1": 1, "2": Fraction(1, 4), "3": Fraction(-1, 4)},
    ], ids=["float", "fraction", "int-float", "int-fraction"])
    def test_dist_accepts_one_arithmetic(self, weights):
        assert dict(QuasiDist.diagonal(weights).weights) == {(k, k): w for k, w in weights.items()}

    def test_model_rejects_mismatched_support(self):
        resp = two_point_response("A", [0.5])
        other = two_point_response("B", [0.5])
        dist = QuasiDist.diagonal({"ghost": 1.0})
        with pytest.raises(StructureError):
            Model(resp, other, dist)

    def test_behavior_rejects_unnormalized_row(self):
        with pytest.raises(StructureError):
            Behavior(1, 1, {(0, 0): (0.5, 0.2, 0.2, 0.2)})


class TestNonFinite:
    """NaN and infinities are refused where they enter, not passed on to the checks."""

    def test_dist_rejects_nan_weight(self):
        with pytest.raises(StructureError):
            QuasiDist.diagonal({"1": math.nan, "2": 0.5})

    def test_dist_rejects_opposite_infinities(self):
        with pytest.raises(StructureError):
            QuasiDist.diagonal({"1": math.inf, "2": -math.inf})

    def test_response_rejects_nan_row(self):
        with pytest.raises(StructureError):
            LocalResponse("A", 1, ("1",), {(0, "1"): (math.nan, math.nan)})

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1e-9])
    def test_behavior_rejects_bad_tolerance(self, tolerance):
        # A NaN tolerance used to refuse every table; the exact-hit row check
        # would accept exactly normalized rows, so it is refused where it enters.
        row = (0.25, 0.25, 0.25, 0.25)
        with pytest.raises(ValueError, match="tolerance"):
            Behavior(1, 1, {(0, 0): row}, tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            assemble_behavior(chsh_saturating_model(1), tolerance=tolerance)

    def test_behavior_accepts_zero_tolerance_on_exact_rows(self):
        row = (Fraction(1, 4),) * 4
        assert Behavior(1, 1, {(0, 0): row}, tolerance=0).table[(0, 0)] == row
        with pytest.raises(StructureError):
            Behavior(1, 1, {(0, 0): (0.25, 0.25, 0.25, 0.2500001)}, tolerance=0)

    def test_behavior_rejects_nan_after_first_entry(self):
        # validate_behavior scanned past a NaN here and reported the table valid.
        row = (0.25, 0.25, 0.25, 0.25)
        with pytest.raises(StructureError):
            Behavior(1, 2, {(0, 0): row, (0, 1): (0.5, math.nan, 0.25, 0.25)})


class TestReadOnly:
    """Tables are read-only copies of the caller's, so a checked table stays checked."""

    def test_tables_cannot_be_written(self):
        model = chsh_saturating_model(1)
        behavior = assemble_behavior(model)
        cells = [
            (behavior.table, (0, 0), (math.nan, 0.5, 0.25, 0.25)),
            (behavior.table, (0, 0), (2.0, 0.0, 0.0, 0.0)),
            (model.response_A.table, (0, "1"), (math.nan, 1.0)),
            (model.dist.weights, ("1", "1"), math.nan),
        ]
        for table, key, value in cells:
            before = table[key]
            with pytest.raises(TypeError):
                table[key] = value
            with pytest.raises(TypeError):
                del table[key]
            assert table[key] is before
        assert validate_behavior(behavior).is_valid
        assert check_quasi_bell(model, 2).score == 3.0

    def test_later_writes_to_the_callers_dicts_change_no_answer(self):
        rows = {(x, lam): (1.0 - p, p) for x, p in enumerate((1.0, 0.0))
                for lam in ("1", "2")}
        weights = {"1": 0.75, "2": 0.25}
        behavior_rows = {(0, 0): (0.25, 0.25, 0.25, 0.25), (0, 1): (0.5, 0.0, 0.0, 0.5)}
        model = Model(LocalResponse("A", 2, ("1", "2"), rows),
                      LocalResponse("B", 2, ("1", "2"), rows),
                      QuasiDist.diagonal(weights))
        behavior = Behavior(1, 2, behavior_rows)
        report, table = check_quasi_bell(model, 2), dict(assemble_behavior(model).table)
        validity = validate_behavior(behavior)
        rows[(0, "1")] = (math.nan, 1.0)
        weights["1"] = math.nan
        behavior_rows[(0, 0)] = (2.0, 0.0, 0.0, 0.0)
        del behavior_rows[(0, 1)]
        assert model.response_A.table[(0, "1")] == (0.0, 1.0)
        assert model.dist.weights[("1", "1")] == 0.75
        assert behavior.table[(0, 0)] == (0.25, 0.25, 0.25, 0.25)
        assert len(behavior.table) == 2
        assert check_quasi_bell(model, 2) == report
        assert dict(assemble_behavior(model).table) == table
        assert validate_behavior(behavior) == validity

    def test_list_rows_are_refused(self):
        with pytest.raises(StructureError, match=r"^row \(0, 1\): expected a tuple"):
            Behavior(1, 2, {(0, 0): (0.25,) * 4, (0, 1): [0.25] * 4})
        table = {(0, "1"): (0.5, 0.5), (0, "2"): [0.5, 0.5]}
        refusal = r"^party B, \(x, lambda\)=\(0, '2'\): expected a tuple"
        with pytest.raises(StructureError, match=refusal):
            LocalResponse("B", 1, ("1", "2"), table)


class TestAssemble:
    def test_deterministic_positive_model_is_zero_one(self):
        strategy = SymbolStrategy(("+", "-"), ("-", "+"))
        model = model_from_strategies({"1": strategy}, {"1": 1.0})
        behavior = assemble_behavior(model)
        for row in behavior.table.values():
            assert sorted(row) == [0.0, 0.0, 0.0, 1.0]
        # setting pair (0, 0) lands in the (+, -) cell
        assert behavior.table[(0, 0)] == (0.0, 0.0, 1.0, 0.0)

    def test_saturating_table_at_full_budget(self):
        behavior = assemble_behavior(chsh_saturating_model(2))
        assert behavior.table[(0, 0)] == pytest.approx((0.5, 0.0, 0.0, 0.5))

    def test_saturating_table_at_unit_budget(self):
        behavior = assemble_behavior(chsh_saturating_model(1))
        mm, mp, pm, pp = behavior.table[(0, 0)]
        assert mm == pytest.approx(5 / 12)
        assert mp == pytest.approx(0.0)
        assert pm == pytest.approx(2 / 12)
        assert pp == pytest.approx(5 / 12)

    def test_exact_mode_gives_fractions(self):
        behavior = assemble_behavior(chsh_saturating_model(Fraction(1), exact=True))
        assert behavior.table[(1, 0)] == (
            Fraction(7, 12),
            Fraction(0),
            Fraction(0),
            Fraction(5, 12),
        )


class TestCorrelation:
    def test_perfectly_correlated_row(self):
        behavior = Behavior(1, 1, {(0, 0): (0.5, 0.0, 0.0, 0.5)})
        assert correlation(behavior, 0, 0) == 1.0

    def test_saturating_model_row_10(self):
        behavior = assemble_behavior(chsh_saturating_model(1))
        assert correlation(behavior, 1, 0) == pytest.approx(1.0)

    def test_singlet_at_relative_angle(self):
        behavior = quantum_behavior(singlet_state(), [0.0], [math.pi / 4])
        assert correlation(behavior, 0, 0) == pytest.approx(-math.cos(math.pi / 4), abs=1e-12)

    def test_out_of_range(self):
        behavior = Behavior(1, 1, {(0, 0): (0.25, 0.25, 0.25, 0.25)})
        with pytest.raises(IndexError):
            correlation(behavior, 1, 0)


class TestValidate:
    @pytest.mark.parametrize("budget", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_saturating_budget_range_is_valid(self, budget):
        report = validate_behavior(assemble_behavior(chsh_saturating_model(budget)))
        assert report.is_valid
        assert report.no_signalling_violation <= 1e-9

    def test_overdrawn_budget_is_invalid(self):
        behavior = assemble_behavior(chsh_saturating_model(2.4, force=True))
        report = validate_behavior(behavior)
        assert not report.is_valid
        # the overdrawn cells sit at (4 - 2N)/12
        assert report.worst_entry[2] == pytest.approx((4 - 2 * 2.4) / 12)

    def test_positive_mixture_is_valid(self, rng):
        model = random_model(rng, force_negative=False)
        while not model.dist.is_all_positive():
            model = random_model(rng, force_negative=False)
        report = validate_behavior(assemble_behavior(model))
        assert report.is_valid
        assert report.no_signalling_violation <= 1e-9

    def test_rejects_negative_tolerance(self):
        behavior = Behavior(1, 1, {(0, 0): (0.25, 0.25, 0.25, 0.25)})
        with pytest.raises(ValueError):
            validate_behavior(behavior, tol=-1.0)

    @pytest.mark.parametrize("pair", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("k", range(4))
    def test_nan_anywhere_is_invalid(self, pair, k):
        # A NaN is refused wherever it sits, at any finite tolerance, and
        # cannot be written into a checked table, so no report ever holds one.
        behavior = assemble_behavior(chsh_saturating_model(1))
        row = list(behavior.table[pair])
        row[k] = math.nan
        for tolerance in (DEFAULT_TOLERANCE, sys.float_info.max):
            with pytest.raises(StructureError, match=f"^{re.escape(f'row {pair} sums to nan')}"):
                Behavior(2, 2, {**behavior.table, pair: tuple(row)}, tolerance=tolerance)
        with pytest.raises(TypeError):
            behavior.table[pair] = tuple(row)
        assert validate_behavior(behavior).is_valid

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_entry_is_invalid(self, value):
        behavior = assemble_behavior(chsh_saturating_model(1))
        row = (0.25, value, 0.25, 0.25)
        for tolerance in (DEFAULT_TOLERANCE, sys.float_info.max):
            with pytest.raises(StructureError, match=f"^row \\(1, 0\\) sums to {value!r}, not 1$"):
                Behavior(2, 2, {**behavior.table, (1, 0): row}, tolerance=tolerance)
        with pytest.raises(TypeError):
            behavior.table[(1, 0)] = row
        assert validate_behavior(behavior).is_valid


class TestJointSupport:
    """Supports over genuinely distinct (lam_A, lam_B) pairs, not diagonals."""

    def test_rows_normalized_and_correlators_match(self, rng):
        from conftest import random_joint_model

        for _ in range(25):
            model = random_joint_model(rng, n_settings=2)
            assert not all(a == b for a, b in model.dist.support)
            behavior = assemble_behavior(model)
            for row in behavior.table.values():
                assert abs(sum(row) - 1) <= 1e-9
            for x_a in range(2):
                for x_b in range(2):
                    direct = sum(
                        local_expectation(model.response_A, x_a, la)
                        * local_expectation(model.response_B, x_b, lb)
                        * model.dist.weights[(la, lb)]
                        for (la, lb) in model.dist.support
                    )
                    assert correlation(behavior, x_a, x_b) == pytest.approx(direct, abs=1e-9)

    def test_no_signalling_holds_regardless_of_sign(self, rng):
        from conftest import random_joint_model

        for _ in range(25):
            model = random_joint_model(rng, n_settings=3)
            report = validate_behavior(assemble_behavior(model))
            assert report.no_signalling_violation <= 1e-9


def _valid_model_with_correlator_above_one() -> Model:
    """A valid model whose correlator E(0, 1) is 1 + 1.5e-9, found by hypothesis.

    Both parties answer -1 everywhere, except Bob at setting 1 under hidden
    value "1"; the small negative weight there pushes entry (-, +) of rows
    (x, 1) to -7.5e-10, inside the validity tolerance.
    """
    labels = ("1", "2", "3")
    always_minus = {(x, lam): (1.0, 0.0) for x in range(2) for lam in labels}
    return Model(
        LocalResponse("A", 2, labels, always_minus),
        LocalResponse("B", 2, labels, {**always_minus, (1, "1"): (0.25, 0.75)}),
        QuasiDist.diagonal({"1": -1.000000001e-9, "2": 0.0, "3": 1.000000001}),
    )


class TestProperties:
    @given(model=diagonal_models(n_settings=2, signed=True))
    @settings(max_examples=150, deadline=None)
    def test_rows_stay_normalized(self, model):
        behavior = assemble_behavior(model)
        for row in behavior.table.values():
            assert abs(sum(row) - 1) <= 1e-9

    @given(model=diagonal_models(n_settings=2, signed=False))
    @settings(max_examples=150, deadline=None)
    def test_positive_models_are_valid_and_non_signalling(self, model):
        report = validate_behavior(assemble_behavior(model))
        assert report.is_valid
        assert report.no_signalling_violation <= 1e-9

    @given(model=diagonal_models(n_settings=2, signed=True))
    @settings(max_examples=150, deadline=None)
    def test_correlator_equals_local_expectation_mixture(self, model):
        behavior = assemble_behavior(model)
        for x_a in range(2):
            for x_b in range(2):
                direct = sum(
                    local_expectation(model.response_A, x_a, la)
                    * local_expectation(model.response_B, x_b, lb)
                    * model.dist.weights[(la, lb)]
                    for (la, lb) in model.dist.support
                )
                assert correlation(behavior, x_a, x_b) == pytest.approx(direct, abs=1e-9)

    @given(
        model=diagonal_models(n_settings=3, signed=True),
        perm_a=st.permutations(range(3)),
        perm_b=st.permutations(range(3)),
        nan_at=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_validity_ignores_setting_labels(self, model, perm_a, perm_b, nan_at):
        behavior = assemble_behavior(model)
        relabelled = Behavior(
            3,
            3,
            {(perm_a[x_a], perm_b[x_b]): row for (x_a, x_b), row in behavior.table.items()},
            tolerance=behavior.tolerance,
        )
        if nan_at is not None:
            # A NaN is refused under either labelling, at the row it sits in.
            x_a, x_b, k = nan_at
            row = list(behavior.table[(x_a, x_b)])
            row[k] = math.nan
            for table, pair in ((behavior.table, (x_a, x_b)),
                                (relabelled.table, (perm_a[x_a], perm_b[x_b]))):
                with pytest.raises(StructureError, match=re.escape(f"row {pair} sums to nan")):
                    Behavior(3, 3, {**table, pair: tuple(row)}, tolerance=sys.float_info.max)
            return
        report = validate_behavior(behavior)
        permuted = validate_behavior(relabelled)
        assert permuted.is_valid == report.is_valid
        assert permuted.no_signalling_violation == report.no_signalling_violation
        excess = [max(-r.worst_entry[2], r.worst_entry[2] - 1) for r in (report, permuted)]
        assert excess[0] == excess[1]

    @given(model=diagonal_models(n_settings=2, signed=True))
    @example(model=_valid_model_with_correlator_above_one())
    @settings(max_examples=150, deadline=None)
    def test_valid_behaviors_have_bounded_correlators(self, model):
        behavior = assemble_behavior(model)
        if not validate_behavior(behavior).is_valid:
            return
        # Validity lets each entry sit down to -DEFAULT_TOLERANCE, and a row
        # may sum to S within behavior.tolerance of 1.  E = S - 2 (p_-+ + p_+-)
        # and -E = S - 2 (p_-- + p_++), so |E| <= 1 + behavior.tolerance
        # + 4 * DEFAULT_TOLERANCE, up to the rounding of S and of E's three
        # additions (a few ulps).
        bound = 1 + behavior.tolerance + 4 * DEFAULT_TOLERANCE + 8 * sys.float_info.epsilon
        for x_a in range(2):
            for x_b in range(2):
                assert abs(correlation(behavior, x_a, x_b)) <= bound
