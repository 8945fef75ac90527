"""The mixing kernel, the entry scan and the witnesses against their loop forms.

Each `_ref_*` function below is the plain loop the library used before it
skipped zero factors, scanned entries by comparison, shared witness terms
and mixed each distinct setting column once.  Every table and report must
equal its loop form entry by entry, with the same type, and float entries
must have the same bits (`float.hex`).
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibell import (
    OUTCOME_PAIRS,
    Behavior,
    Branch,
    LocalResponse,
    Model,
    QuasiDist,
    ScoreReport,
    WitnessReport,
    assemble_behavior,
    chained_saturating_model,
    chained_score,
    check_quasi_bell,
    correlation,
    validate_behavior,
    witness_chained,
    witness_chained_link,
)
from quasibell.constructions import (
    model_from_strategies,
    saturating_strategies,
    saturating_weights,
)
from quasibell.core import StructureError, ValidityReport
from quasibell.witnesses import ChainedWitnessReport

from conftest import diagonal_models, random_joint_model

TWELFTHS = tuple(Fraction(k, 12) for k in range(25))


# -- the loop forms ----------------------------------------------------------

def _ref_assemble(model: Model) -> dict:
    resp_a, resp_b = model.response_A, model.response_B
    weights = model.dist.weights
    table = {}
    for x_a in range(resp_a.n_settings):
        for x_b in range(resp_b.n_settings):
            mm = mp = pm = pp = 0
            for (lam_a, lam_b) in model.dist.support:
                w = weights[(lam_a, lam_b)]
                a_minus, a_plus = resp_a.table[(x_a, lam_a)]
                b_minus, b_plus = resp_b.table[(x_b, lam_b)]
                mm += a_minus * b_minus * w
                mp += a_minus * b_plus * w
                pm += a_plus * b_minus * w
                pp += a_plus * b_plus * w
            table[(x_a, x_b)] = (mm, mp, pm, pp)
    return table


def _ref_validate(behavior: Behavior, tol: float = 1e-9) -> ValidityReport:
    worst_entry = None
    worst_excess = -math.inf
    for pair in behavior.setting_pairs():
        row = behavior.table[pair]
        for outcomes, value in zip(OUTCOME_PAIRS, row):
            excess = max(-value, value - 1)
            if not excess <= worst_excess and worst_excess == worst_excess:
                worst_excess = excess
                worst_entry = (pair, outcomes, value)
    is_valid = worst_excess <= tol
    if not worst_excess < math.inf:
        return ValidityReport(
            is_valid=False, worst_entry=worst_entry, no_signalling_violation=math.nan
        )
    violation = 0
    for x_a in range(behavior.n_settings_A):
        for y_index in (0, 1):
            marginals = []
            for x_b in range(behavior.n_settings_B):
                mm, mp, pm, pp = behavior.table[(x_a, x_b)]
                marginals.append((mm + mp) if y_index == 0 else (pm + pp))
            violation = max(violation, max(marginals) - min(marginals))
    for x_b in range(behavior.n_settings_B):
        for y_index in (0, 1):
            marginals = []
            for x_a in range(behavior.n_settings_A):
                mm, mp, pm, pp = behavior.table[(x_a, x_b)]
                marginals.append((mm + pm) if y_index == 0 else (mp + pp))
            violation = max(violation, max(marginals) - min(marginals))
    return ValidityReport(
        is_valid=is_valid, worst_entry=worst_entry, no_signalling_violation=violation
    )


def _ref_expectation(response: LocalResponse, x: int, lam):
    p_minus, p_plus = response.row(x, lam)
    return p_plus - p_minus


def _ref_brackets(model: Model, sign: int, a_setting: int, b_high: int, b_low: int):
    contributions = {}
    total = 0
    for point in model.dist.support:
        lam_a, lam_b = point
        w = model.dist.weights[point]
        excess = abs(w) - w
        if excess == 0:
            contributions[point] = 0
            continue
        exp_a = _ref_expectation(model.response_A, a_setting, lam_a)
        bracket = 2 + sign * exp_a * (
            _ref_expectation(model.response_B, b_high, lam_b)
            + _ref_expectation(model.response_B, b_low, lam_b)
        )
        term = bracket * excess
        contributions[point] = term
        total += term
    return total, contributions


def _ref_faithful(dist: QuasiDist):
    return sum(4 * (abs(w) - w) for w in dist.weights.values())


def _ref_link(model, behavior, a_bracket, a_disc, b_high, b_low, link):
    discriminant = correlation(behavior, a_disc, b_high) + correlation(behavior, a_disc, b_low)
    n_plus, contr_plus = _ref_brackets(model, +1, a_bracket, b_high, b_low)
    n_minus, contr_minus = _ref_brackets(model, -1, a_bracket, b_high, b_low)
    branch = Branch.PLUS if discriminant < 0 else Branch.MINUS
    selected, contributions = (
        (n_plus, contr_plus) if branch is Branch.PLUS else (n_minus, contr_minus)
    )
    return WitnessReport(
        n_plus=n_plus,
        n_minus=n_minus,
        selected=selected,
        branch=branch,
        branch_discriminant=discriminant,
        per_lambda_contributions=contributions,
        faithful=_ref_faithful(model.dist),
        a_setting_bracket=a_bracket,
        a_setting_discriminant=a_disc,
        link=link,
    )


def _ref_chsh_score(behavior):
    """The 2-setting score as the library wrote it before n=2 became a chain."""
    return abs(
        correlation(behavior, 0, 0)
        - correlation(behavior, 0, 1)
        + correlation(behavior, 1, 0)
        + correlation(behavior, 1, 1)
    )


def _ref_first_link(model, behavior):
    return _ref_link(model, behavior, 1, 1, 1, 0, link=1)


def _ref_witness_chained(model, n, behavior, discriminant_alice_setting="link"):
    terms = tuple(
        _ref_link(model, behavior, x, 0 if discriminant_alice_setting == "zero" else x,
                  x, x - 1, x)
        for x in range(1, n)
    )
    return ChainedWitnessReport(terms=terms, total=sum(term.selected for term in terms))


def _ref_lambda_local_score(model, point, n):
    lam_a, lam_b = point
    exp_a = [_ref_expectation(model.response_A, i, lam_a) for i in range(n)]
    exp_b = [_ref_expectation(model.response_B, i, lam_b) for i in range(n)]
    total = sum(exp_a[i] * exp_b[i] for i in range(n))
    total += sum(exp_a[i] * exp_b[i - 1] for i in range(1, n))
    total -= exp_a[0] * exp_b[n - 1]
    return total


def _ref_check(model, n, tol=1e-9):
    table = _ref_assemble(model)
    behavior = Behavior(model.response_A.n_settings, model.response_B.n_settings, table)
    if n == 2:
        score = _ref_chsh_score(behavior)
        witness_total = _ref_first_link(model, behavior).selected
    else:
        score = chained_score(behavior, n)
        witness_total = _ref_witness_chained(model, n, behavior).total
    bound = 2 * n - 2 + witness_total
    mixture = abs(sum(
        _ref_lambda_local_score(model, point, n) * model.dist.weights[point]
        for point in model.dist.support
    ))
    return ScoreReport(
        n=n,
        score=score,
        bound=bound,
        witness_total=witness_total,
        classical_part=2 * n - 2,
        holds=score <= bound + tol,
        margin=bound - score,
        lambda_mixture_score=mixture,
    )


# -- identity ----------------------------------------------------------------

def assert_identical(got, want, where="$"):
    """Equal value and type at every level; floats bit for bit, NaN matches NaN."""
    assert type(got) is type(want), f"{where}: {type(got).__name__} vs {type(want).__name__}"
    if isinstance(want, float):
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want)), (
            f"{where}: {got!r} vs {want!r}"
        )
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), f"{where}: length {len(got)} vs {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_identical(g, w, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} vs {list(want)}"
        for key in want:
            assert_identical(got[key], want[key], f"{where}[{key!r}]")
    elif dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            assert_identical(getattr(got, field.name), getattr(want, field.name),
                             f"{where}.{field.name}")
    else:
        assert got == want, f"{where}: {got!r} vs {want!r}"


def assert_model_matches_loops(model: Model, chains=(2,)) -> None:
    behavior = assemble_behavior(model)
    assert_identical(behavior.table, _ref_assemble(model), "table")
    assert_identical(validate_behavior(behavior), _ref_validate(behavior), "validity")
    n_max = min(model.response_A.n_settings, model.response_B.n_settings)
    if n_max >= 2:
        assert_identical(witness_chained_link(model, 1, behavior),
                         _ref_first_link(model, behavior), "witness_chained_link(x=1)")
    for n in chains:
        for selection in ("link", "zero"):
            assert_identical(
                witness_chained(model, n, behavior, selection),
                _ref_witness_chained(model, n, behavior, selection),
                f"witness_chained(n={n}, {selection})",
            )
        assert_identical(check_quasi_bell(model, n), _ref_check(model, n),
                         f"check_quasi_bell(n={n})")


def _reweighted(model: Model, weights: dict) -> Model:
    return Model(model.response_A, model.response_B, QuasiDist.diagonal(weights))


# -- models ------------------------------------------------------------------

class TestFloatModels:
    @given(model=diagonal_models(n_settings=3, signed=True))
    @settings(max_examples=150, deadline=None)
    def test_signed_diagonal_models(self, model):
        assert_model_matches_loops(model, chains=(2, 3))

    def test_joint_support_models(self, rng):
        for _ in range(20):
            assert_model_matches_loops(random_joint_model(rng, n_settings=3), chains=(2, 3))

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("budget", [0, 0.5, 1.0, 1.25, 2.0])
    def test_float_families(self, n, budget):
        # budget 0 gives the weight -0.0, whose products must not turn a +0.0 sum into -0.0
        assert_model_matches_loops(chained_saturating_model(n, budget), chains=(n,))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_negative_weight_first(self, n):
        # The first point's product is negative, so its zero is -0.0; the sums
        # must still start at the +0.0 that `0 + ...` gives.
        weights = saturating_weights(1.0)
        first_negative = {label: weights[label] for label in ("4", "1", "2", "3")}
        model = model_from_strategies(saturating_strategies(n), first_negative)
        assert model.dist.support[0] == ("4", "4")
        assert_model_matches_loops(model, chains=(n,))


class TestExactFamilies:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_twelfth_budget(self, n):
        for budget in TWELFTHS:
            model = chained_saturating_model(n, budget, exact=True)
            behavior = assemble_behavior(model)
            assert_identical(behavior.table, _ref_assemble(model), f"N={budget}")
            assert_identical(validate_behavior(behavior), _ref_validate(behavior), f"N={budget}")

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    @pytest.mark.parametrize("budget", [Fraction(0), Fraction(1, 12), Fraction(1), Fraction(2)])
    def test_reports(self, n, budget):
        assert_model_matches_loops(chained_saturating_model(n, budget, exact=True), chains=(n,))

    def test_zero_budget_cells_stay_fractions(self):
        # Cells whose every product has a zero factor must not fall back to int 0.
        behavior = assemble_behavior(chained_saturating_model(3, Fraction(0), exact=True))
        entries = [value for row in behavior.table.values() for value in row]
        assert 0 in entries
        assert all(type(value) is Fraction for value in entries)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("budget", [Fraction(5, 2), 3, Fraction(4)])
    def test_forced_out_of_range_budgets(self, n, budget):
        exact = chained_saturating_model(n, budget, exact=True, force=True)
        assert not validate_behavior(assemble_behavior(exact)).is_valid
        assert_model_matches_loops(exact, chains=(n,))
        assert_model_matches_loops(chained_saturating_model(n, budget, force=True), chains=(n,))


class TestMixedArithmetic:
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("budget", [Fraction(0), Fraction(1, 3), Fraction(2)])
    def test_fraction_weights_over_float_rows(self, n, budget):
        model = _reweighted(chained_saturating_model(n, 0.0),
                            saturating_weights(budget, exact=True))
        assert_model_matches_loops(model, chains=(n,))
        assert all(type(v) is float for row in assemble_behavior(model).table.values()
                   for v in row)

    @pytest.mark.parametrize("budget", [0, 0.75, 2.0])
    def test_float_weights_over_fraction_rows(self, budget):
        model = _reweighted(chained_saturating_model(3, Fraction(0), exact=True),
                            saturating_weights(budget))
        assert_model_matches_loops(model, chains=(3,))

    def test_fraction_weights_over_stochastic_rows(self, rng):
        for _ in range(10):
            model = random_joint_model(rng, n_settings=3)
            support = model.dist.support
            weights = {p: Fraction(1, len(support)) for p in support}
            weights[support[0]] += Fraction(1, 3)
            weights[support[-1]] -= Fraction(1, 3)
            mixed = Model(model.response_A, model.response_B, QuasiDist(support, weights))
            assert_model_matches_loops(mixed, chains=(2, 3))


class TestEntryScan:
    """validate_behavior's comparison-only scan names the same worst entry."""

    @staticmethod
    def _behavior(entries, n_b=2):
        """A behavior whose table is then overwritten with `entries` in row order."""
        n_a = len(entries) // (4 * n_b)
        pairs = [(x_a, x_b) for x_a in range(n_a) for x_b in range(n_b)]
        behavior = Behavior(n_a, n_b, {pair: (0.25,) * 4 for pair in pairs})
        for i, pair in enumerate(pairs):
            behavior.table[pair] = tuple(entries[4 * i:4 * i + 4])
        return behavior

    @staticmethod
    def _assert_scan_matches(behavior):
        assert_identical(validate_behavior(behavior), _ref_validate(behavior))
        assert_identical(validate_behavior(behavior, 0.5), _ref_validate(behavior, 0.5))

    @pytest.mark.parametrize("budget", [Fraction(1), Fraction(0), Fraction(3)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_non_finite_entry_anywhere(self, budget, bad):
        model = chained_saturating_model(2, budget, exact=True, force=True)
        for pair in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            for k in range(4):
                behavior = assemble_behavior(model)
                row = list(behavior.table[pair])
                row[k] = bad
                behavior.table[pair] = tuple(row)
                self._assert_scan_matches(behavior)

    def test_two_non_finite_entries_in_every_order(self):
        values = [math.nan, math.inf, -math.inf, 2.0, -1.0]
        for first in values:
            for second in values:
                for i in range(16):
                    for j in range(16):
                        if i == j:
                            continue
                        entries = [0.25] * 16
                        entries[i], entries[j] = first, second
                        self._assert_scan_matches(self._behavior(entries))

    def test_ties_pick_the_first_entry_in_row_order(self):
        # -(-0.25) == 1.25 - 1: the low and the high entry tie on excess.
        for low_at in range(8):
            for high_at in range(8):
                if low_at == high_at:
                    continue
                entries = [0.0] * 8
                entries[low_at], entries[high_at] = -0.25, 1.25
                self._assert_scan_matches(self._behavior(entries, n_b=1))

    def test_repeated_extremes_and_signed_zeros(self):
        entries = [0.5, -0.0, 0.0, 0.5, 0.0, 0.5, 0.5, -0.0,
                   1.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        self._assert_scan_matches(self._behavior(entries))
        self._assert_scan_matches(self._behavior([Fraction(v) for v in entries]))

    def test_rounding_above_two_to_the_53(self):
        # 2**53 + 4 and 2**53 + 6 both give 2**53 + 4 when 1 is subtracted, so
        # the first of them in row order is the worst entry, not the largest.
        big, bigger = 2.0**53 + 4, 2.0**53 + 6
        assert big - 1 == bigger - 1
        behavior = self._behavior([big, 0.0, 0.0, 0.0, bigger, 0.0, 0.0, 0.0], n_b=1)
        report = validate_behavior(behavior)
        assert report.worst_entry == ((0, 0), (-1, -1), big)
        self._assert_scan_matches(behavior)


# -- shared row objects --------------------------------------------------------

def _unshared(model: Model) -> Model:
    """The same model with every response row a distinct tuple object."""
    def fresh(response):
        table = {key: (row[0], row[1]) for key, row in response.table.items()}
        return LocalResponse(response.party, response.n_settings, response.hidden_values, table)

    copy = Model(fresh(model.response_A), fresh(model.response_B), model.dist)
    for response in (copy.response_A, copy.response_B):
        assert len({id(row) for row in response.table.values()}) == len(response.table)
    return copy


def _distinct_cells(behavior: Behavior) -> int:
    return len({id(row) for row in behavior.table.values()})


@st.composite
def shared_row_models(draw):
    """Models whose rows come from a pool of a few row objects per party.

    The same object then sits at several settings, at several hidden values,
    and at some support points but not others; equal-valued rows may also be
    distinct objects.  Rows are float or `Fraction`; weights are of the rows'
    kind, or `Fraction` over float rows.
    """
    exact = draw(st.booleans())
    fraction_weights = exact or draw(st.booleans())

    def pool():
        size = draw(st.integers(min_value=1, max_value=3))
        if exact:
            ks = draw(st.lists(st.integers(0, 12), min_size=size, max_size=size))
            return [(Fraction(12 - k, 12), Fraction(k, 12)) for k in ks]
        ps = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
        return [(1.0 - p, p) for p in ps]

    def response(party, n_settings, labels):
        rows = pool()
        table = {
            (x, lam): rows[draw(st.integers(0, len(rows) - 1))]
            for lam in labels
            for x in range(n_settings)
        }
        return LocalResponse(party, n_settings, labels, table)

    n_a, n_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    labels_a = tuple(f"a{i}" for i in range(draw(st.integers(1, 3))))
    labels_b = tuple(f"b{i}" for i in range(draw(st.integers(1, 3))))
    grid = [(lam_a, lam_b) for lam_a in labels_a for lam_b in labels_b]
    support = tuple(draw(st.lists(st.sampled_from(grid), min_size=1,
                                  max_size=len(grid), unique=True)))
    if fraction_weights:
        raw = [Fraction(k, 6) for k in draw(st.lists(st.integers(-12, 12),
                                                      min_size=len(support) - 1,
                                                      max_size=len(support) - 1))]
        raw.append(1 - sum(raw, Fraction(0)))
    else:
        raw = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(support) - 1,
                            max_size=len(support) - 1))
        raw.append(1.0 - sum(raw))
    return Model(
        response("A", n_a, labels_a),
        response("B", n_b, labels_b),
        QuasiDist(support, dict(zip(support, raw))),
    )


class TestSharedRows:
    """Settings whose rows are one object at every support point are mixed once."""

    @given(model=shared_row_models())
    @settings(max_examples=300, deadline=None)
    def test_shared_row_models(self, model):
        shared = assemble_behavior(model)
        unshared = assemble_behavior(_unshared(model))
        assert_identical(shared.table, unshared.table, "table")
        assert_identical(validate_behavior(shared), validate_behavior(unshared), "validity")
        assert_model_matches_loops(model, chains=tuple(range(2, model.n_settings + 1)))

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
    def test_families_mix_four_cells(self, n, exact):
        budgets = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2)]
        for budget in budgets:
            model = chained_saturating_model(n, budget if exact else float(budget), exact=exact)
            behavior = assemble_behavior(model)
            assert _distinct_cells(behavior) == 4
            assert _distinct_cells(assemble_behavior(_unshared(model))) == n * n
            assert_model_matches_loops(model, chains=(n,))

    def test_mixed_weights_share_identically(self):
        # Weights that mix Fraction and float across points: the kernel need
        # not match the plain loop here, but shared and unshared rows agree.
        weights = {"1": Fraction(1, 2), "2": 0.25, "3": Fraction(1, 4), "4": Fraction(0)}
        for n in (2, 3, 6):
            model = model_from_strategies(saturating_strategies(n), weights)
            shared = assemble_behavior(model)
            unshared = assemble_behavior(_unshared(model))
            assert_identical(shared.table, unshared.table)
            assert_identical(validate_behavior(shared), validate_behavior(unshared))

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
    def test_replacing_one_shared_cell(self, n, exact):
        model = chained_saturating_model(n, Fraction(1) if exact else 1.0, exact=exact)
        zero, half = (Fraction(0), Fraction(1, 2)) if exact else (0.0, 0.5)
        bad_entries = [math.nan, math.inf, -math.inf, 3 * half]
        for pair in assemble_behavior(model).setting_pairs():
            original = assemble_behavior(model).table[pair]
            replacements = [(3 * half, -half, zero, zero), tuple(-v for v in original)]
            for k in range(4):
                for bad in bad_entries:
                    row = list(original)
                    row[k] = bad
                    replacements.append(tuple(row))
            for row in replacements:
                behavior = assemble_behavior(model)
                assert _distinct_cells(behavior) == 4
                behavior.table[pair] = row
                assert_identical(validate_behavior(behavior), _ref_validate(behavior),
                                 f"{pair} <- {row}")
                assert_identical(validate_behavior(behavior, 0.5),
                                 _ref_validate(behavior, 0.5), f"{pair} <- {row}")

    def test_shared_bad_rows_are_refused_at_their_first_key(self):
        bad = (1.5, -0.5)
        table = {(x, lam): bad for lam in ("1", "2") for x in range(3)}
        with pytest.raises(StructureError, match=r"\(0, '1'\)"):
            LocalResponse("A", 3, ("1", "2"), table)
        short = (0.5, 0.5, 0.0)
        with pytest.raises(StructureError, match=r"row \(0, 0\)"):
            Behavior(2, 2, {(x_a, x_b): short for x_a in range(2) for x_b in range(2)})
        unnormalized = (0.5, 0.5, 0.5, 0.0)
        with pytest.raises(StructureError, match=r"row \(0, 0\) sums"):
            Behavior(2, 2, {(x_a, x_b): unnormalized for x_a in range(2) for x_b in range(2)})
