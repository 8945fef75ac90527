"""Negativity witnesses: branch values, selection, faithfulness."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from quasibell import (
    Branch,
    LocalResponse,
    Model,
    QuasiDist,
    assemble_behavior,
    chained_saturating_model,
    chsh_saturating_model,
    validate_behavior,
    witness_chained,
    witness_chained_link,
    witness_faithful,
)
from quasibell.constructions import SymbolStrategy, model_from_strategies

from conftest import diagonal_models, random_model, random_positive_dist, random_signed_dist


def flip_bob_outcomes(model: Model) -> Model:
    """Relabel Bob's outcomes, negating every <B> and every correlator."""
    flipped = {key: (row[1], row[0]) for key, row in model.response_B.table.items()}
    response_b = LocalResponse(
        "B",
        model.response_B.n_settings,
        model.response_B.hidden_values,
        flipped,
    )
    return Model(model.response_A, response_b, model.dist)


def pr_box_mixture() -> Model:
    """Valid score-4 mixture whose link-1 bracket vanishes on the MINUS side.

    Used to pin down the branch-selection subtlety: selecting the branch by
    the correlators at Alice's setting 0 certifies nothing here, while
    selection at the link setting gives a holding bound.
    """
    strategies = {
        "1": SymbolStrategy(("-", "+"), ("+", "-")),
        "2": SymbolStrategy(("+", "-"), ("+", "+")),
        "3": SymbolStrategy(("+", "+"), ("-", "+")),
        "4": SymbolStrategy(("+", "+"), ("+", "+")),
    }
    weights = {"1": 0.5, "2": 0.5, "3": 0.5, "4": -0.5}
    return model_from_strategies(strategies, weights)


class TestFixedBranch:
    """Both branch values of the first chain link, before selection."""

    def test_all_positive_dist_gives_exact_zero(self, rng):
        for _ in range(50):
            model = random_model(rng, force_negative=False)
            while not model.dist.is_all_positive():
                model = random_model(rng, force_negative=False)
            link = witness_chained_link(model, 1)
            assert link.n_plus == 0.0
            assert link.n_minus == 0.0

    @pytest.mark.parametrize("budget", [0.25, 1.0, 2.0])
    def test_saturating_model_minus_branch(self, budget):
        link = witness_chained_link(chsh_saturating_model(budget), 1)
        assert link.n_minus == pytest.approx(budget)

    @pytest.mark.parametrize("budget", [0.25, 1.0, 2.0])
    def test_saturating_model_plus_branch(self, budget):
        # Direct evaluation over the four strategies: only the negatively
        # weighted one contributes, and its bracket is 2 for either sign
        # because <A>^1 (<B>^1 + <B>^0) = (-1)(+1 - 1) = 0.  Both branches
        # therefore give the budget itself.
        link = witness_chained_link(chsh_saturating_model(budget), 1)
        assert link.n_plus == pytest.approx(budget)

    def test_exact_mode(self):
        model = chsh_saturating_model(Fraction(3, 2), exact=True)
        assert witness_chained_link(model, 1).n_minus == Fraction(3, 2)

    def test_rejects_single_setting(self):
        table = {(0, "1"): (0.5, 0.5)}
        resp = LocalResponse("A", 1, ("1",), table)
        other = LocalResponse("B", 1, ("1",), dict(table))
        model = Model(resp, other, QuasiDist.diagonal({"1": 1.0}))
        with pytest.raises(ValueError):
            witness_chained_link(model, 1)


class TestCaseSelected:
    def test_saturating_model_at_unit_budget(self):
        report = witness_chained_link(chsh_saturating_model(1), 1)
        assert report.branch is Branch.MINUS
        # E(1,0) = 1 and E(1,1) = (1+N)/3, so the discriminant is 5/3 at N=1
        assert report.branch_discriminant == pytest.approx(5 / 3)
        assert report.selected == pytest.approx(1.0)
        assert report.n_plus == pytest.approx(1.0)
        assert report.n_minus == pytest.approx(1.0)
        assert report.faithful == pytest.approx(2.0)

    def test_per_lambda_breakdown_isolates_negative_point(self):
        report = witness_chained_link(chsh_saturating_model(1), 1)
        contributions = report.per_lambda_contributions
        assert contributions[("4", "4")] == pytest.approx(1.0)
        for label in ("1", "2", "3"):
            assert contributions[(label, label)] == 0.0

    def test_positive_classical_model_selects_zero(self, rng):
        model = random_model(rng, force_negative=False)
        while not model.dist.is_all_positive():
            model = random_model(rng, force_negative=False)
        report = witness_chained_link(model, 1)
        assert report.selected == 0.0
        assert report.faithful == 0.0

    def test_flipping_bob_switches_branch(self):
        original = chsh_saturating_model(1)
        flipped = flip_bob_outcomes(original)
        report = witness_chained_link(flipped, 1)
        assert report.branch is Branch.PLUS
        assert report.branch_discriminant == pytest.approx(-5 / 3)
        assert report.selected == pytest.approx(report.n_plus)
        assert report.selected == pytest.approx(witness_chained_link(original, 1).n_minus)

    def test_non_faithful_selection_with_negative_weight(self):
        # Both hidden values play all-plus, so the MINUS bracket vanishes
        # (<A>^1 <B>^1 = <A>^1 <B>^0 = +1) and the selected witness is blind
        # to the negative weight.  The faithful witness is not.
        all_plus = SymbolStrategy(("+", "+"), ("+", "+"))
        model = model_from_strategies(
            {"1": all_plus, "2": all_plus}, {"1": 1.5, "2": -0.5}
        )
        report = witness_chained_link(model, 1)
        assert report.branch is Branch.MINUS
        assert report.selected == 0.0
        assert model.dist.negative_mass() > 0
        assert report.faithful == pytest.approx(4.0)

    def test_json_field_names(self):
        payload = witness_chained_link(chsh_saturating_model(1), 1).to_json_dict()
        for field in ("n_plus", "n_minus", "selected", "branch", "discriminant", "faithful"):
            assert field in payload
        assert payload["branch"] == "MINUS"


class TestFaithful:
    def test_all_positive_is_zero(self):
        assert witness_faithful(QuasiDist.diagonal({"1": 0.3, "2": 0.7})) == 0.0

    @pytest.mark.parametrize("budget", [0.5, 1.0, 2.0])
    def test_saturating_weights_give_twice_budget(self, budget):
        model = chsh_saturating_model(budget)
        assert witness_faithful(model.dist) == pytest.approx(2 * budget)

    def test_half_negative_weight(self):
        assert witness_faithful(QuasiDist.diagonal({"1": 1.5, "2": -0.5})) == pytest.approx(4.0)

    def test_positive_on_every_negative_dist(self, rng):
        for _ in range(200):
            labels = tuple(str(i) for i in range(1, int(rng.integers(2, 7)) + 1))
            dist = random_signed_dist(rng, labels, force_negative=True)
            assert dist.negative_mass() > 0
            assert witness_faithful(dist) > 0

    def test_zero_on_every_positive_dist(self, rng):
        for _ in range(200):
            labels = tuple(str(i) for i in range(1, int(rng.integers(2, 7)) + 1))
            assert witness_faithful(random_positive_dist(rng, labels)) == 0.0


class TestChained:
    def test_two_setting_chain_matches_single_link(self, rng):
        for _ in range(25):
            model = random_model(rng, n_settings=2)
            report = witness_chained(model, 2)
            assert report.total == report.terms[0].selected
            link = witness_chained_link(model, 1)
            assert report.terms[0].selected == link.selected

    def test_two_setting_chain_on_saturating_model(self):
        report = witness_chained(chsh_saturating_model(1), 2)
        assert report.total == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("budget", [0.5, 1.0, 2.0])
    def test_family_concentrates_on_last_link(self, n, budget):
        model = chained_saturating_model(n, budget)
        report = witness_chained(model, n)
        contributions = [term.selected for term in report.terms]
        assert contributions[:-1] == [0.0] * (n - 2)
        assert contributions[-1] == pytest.approx(budget)
        assert report.total == pytest.approx(budget)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_both_discriminant_readings_agree_on_family(self, n):
        model = chained_saturating_model(n, 1.0)
        by_link = witness_chained(model, n, discriminant_alice_setting="link")
        by_zero = witness_chained(model, n, discriminant_alice_setting="zero")
        assert by_link.total == pytest.approx(by_zero.total)
        for a, b in zip(by_link.terms, by_zero.terms):
            assert a.branch is b.branch
            assert a.selected == pytest.approx(b.selected)

    def test_all_positive_chain_is_zero(self, rng):
        for _ in range(25):
            model = random_model(rng, n_settings=4, force_negative=False)
            while not model.dist.is_all_positive():
                model = random_model(rng, n_settings=4, force_negative=False)
            assert witness_chained(model, 4).total == 0.0

    def test_chain_longer_than_settings_rejected(self):
        with pytest.raises(ValueError):
            witness_chained(chsh_saturating_model(1), 3)

    def test_report_records_both_alice_settings(self):
        model = chained_saturating_model(3, 1.0)
        link = witness_chained_link(model, 2, discriminant_alice_setting="link")
        assert link.a_setting_bracket == 2
        assert link.a_setting_discriminant == 2
        zero = witness_chained_link(model, 2, discriminant_alice_setting="zero")
        assert zero.a_setting_bracket == 2
        assert zero.a_setting_discriminant == 0


class TestBranchSelectionRegression:
    """A valid score-4 mixture separates the two discriminant readings."""

    def test_link_selection_certifies_the_bound(self):
        model = pr_box_mixture()
        behavior = assemble_behavior(model)
        assert validate_behavior(behavior).is_valid
        link = witness_chained_link(model, 1, behavior, discriminant_alice_setting="link")
        assert link.branch is Branch.PLUS
        assert link.selected == pytest.approx(4.0)
        # score is 4, so 2 + witness holds with the link-setting selection
        assert 4.0 <= 2.0 + link.selected + 1e-9

    def test_zero_selection_underestimates(self):
        model = pr_box_mixture()
        behavior = assemble_behavior(model)
        zero = witness_chained_link(model, 1, behavior, discriminant_alice_setting="zero")
        assert zero.branch is Branch.MINUS
        assert zero.selected == 0.0
        # 4 > 2 + 0: selecting at Alice's setting 0 does not bound the score
        assert 4.0 > 2.0 + zero.selected + 1e-9

    def test_case_selected_two_setting_witness_still_holds(self):
        model = pr_box_mixture()
        report = witness_chained_link(model, 1)
        assert report.branch is Branch.PLUS
        assert report.selected == pytest.approx(4.0)


class TestJointSupportWitnesses:
    def test_bounds_hold_on_product_supports(self, rng):
        from quasibell import check_quasi_bell
        from conftest import random_joint_model

        for _ in range(100):
            model = random_joint_model(rng, n_settings=3)
            assert check_quasi_bell(model, 2).holds
            assert check_quasi_bell(model, 3).holds

    def test_breakdown_covers_every_point(self, rng):
        from conftest import random_joint_model

        model = random_joint_model(rng, n_settings=2, k_a=2, k_b=2)
        report = witness_chained_link(model, 1)
        assert set(report.per_lambda_contributions) == set(model.dist.support)
        assert report.selected == pytest.approx(
            sum(report.per_lambda_contributions.values())
        )


class TestWitnessProperties:
    @given(model=diagonal_models(n_settings=2, signed=True))
    @settings(max_examples=150, deadline=None)
    def test_branches_and_faithful_are_non_negative(self, model):
        link = witness_chained_link(model, 1)
        assert link.n_plus >= 0
        assert link.n_minus >= 0
        assert witness_faithful(model.dist) >= 0

    @given(model=diagonal_models(n_settings=2, signed=True))
    @settings(max_examples=150, deadline=None)
    def test_selected_never_exceeds_faithful(self, model):
        # every bracket is at most 4, the faithful witness's constant
        report = witness_chained_link(model, 1)
        assert report.selected <= report.faithful + 1e-12

    @given(model=diagonal_models(n_settings=3, signed=True))
    @settings(max_examples=100, deadline=None)
    def test_chained_terms_are_non_negative(self, model):
        report = witness_chained(model, 3)
        for term in report.terms:
            assert term.n_plus >= 0
            assert term.n_minus >= 0
            assert term.selected >= 0
