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
import re
import sys
from fractions import Fraction
from types import MappingProxyType

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
    lambda_local_score,
    local_expectation,
    mixture_score,
    validate_behavior,
    witness_chained,
    witness_chained_link,
)
from quasibell.constructions import (
    _DETERMINISTIC_ROWS,
    model_from_strategies,
    saturating_strategies,
    saturating_weights,
)
from quasibell.core import StructureError, ValidityReport
from quasibell.witnesses import ChainedWitnessReport

from conftest import diagonal_models, random_joint_model

TWELFTHS = tuple(Fraction(k, 12) for k in range(25))

#: The loosest finite tolerance: a `Behavior` built at it admits every row
#: whose sum is finite, and still refuses one holding NaN or an infinity.
LOOSEST = sys.float_info.max


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
    return MappingProxyType(table)


def _ref_validate(behavior: Behavior, tol: float = 1e-9) -> ValidityReport:
    worst_entry = None
    worst_excess = -math.inf
    for pair in behavior.setting_pairs():
        row = behavior.table[pair]
        for outcomes, value in zip(OUTCOME_PAIRS, row):
            excess = max(-value, value - 1)
            if excess > worst_excess:
                worst_excess = excess
                worst_entry = (pair, outcomes, value)
    is_valid = worst_excess <= tol
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
    elif isinstance(want, (dict, MappingProxyType)):
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
        """A behavior with `entries` in row order, built at the loosest finite tolerance."""
        n_a = len(entries) // (4 * n_b)
        pairs = [(x_a, x_b) for x_a in range(n_a) for x_b in range(n_b)]
        table = {pair: tuple(entries[4 * i:4 * i + 4]) for i, pair in enumerate(pairs)}
        return Behavior(n_a, n_b, table, tolerance=LOOSEST)

    @staticmethod
    def _assert_scan_matches(behavior):
        assert_identical(validate_behavior(behavior), _ref_validate(behavior))
        assert_identical(validate_behavior(behavior, 0.5), _ref_validate(behavior, 0.5))

    @pytest.mark.parametrize("budget", [Fraction(1), Fraction(0), Fraction(3)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_non_finite_entry_anywhere(self, budget, bad):
        # Refused where it enters, at any finite tolerance, and an assembled
        # table cannot be written: no check ever scans a non-finite entry.
        model = chained_saturating_model(2, budget, exact=True, force=True)
        behavior = assemble_behavior(model)
        for pair in behavior.setting_pairs():
            for k in range(4):
                row = list(behavior.table[pair])
                row[k] = bad
                refusal = re.escape(f"row {pair} sums to {sum(row)!r}, not 1")
                with pytest.raises(StructureError, match=f"^{refusal}$"):
                    Behavior(2, 2, {**behavior.table, pair: tuple(row)}, tolerance=LOOSEST)
                with pytest.raises(TypeError):
                    behavior.table[pair] = tuple(row)
                self._assert_scan_matches(behavior)

    def test_two_non_finite_entries_in_every_order(self):
        # A table holding a non-finite entry is refused at the first row, in
        # row order, that holds one; every finite pair of entries is scanned.
        values = [math.nan, math.inf, -math.inf, 2.0, -1.0]
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for first in values:
            for second in values:
                for i in range(16):
                    for j in range(16):
                        if i == j:
                            continue
                        entries = [0.25] * 16
                        entries[i], entries[j] = first, second
                        bad_rows = [r for r in range(4)
                                    if not all(map(math.isfinite, entries[4 * r:4 * r + 4]))]
                        if not bad_rows:
                            self._assert_scan_matches(self._behavior(entries))
                            continue
                        with pytest.raises(StructureError,
                                           match=re.escape(f"row {pairs[bad_rows[0]]} sums")):
                            self._behavior(entries)

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
        behavior = assemble_behavior(model)
        assert _distinct_cells(behavior) == 4
        for pair in behavior.setting_pairs():
            original = behavior.table[pair]
            replacements = [(3 * half, -half, zero, zero), tuple(-v for v in original)]
            for k in range(4):
                for bad in bad_entries:
                    row = list(original)
                    row[k] = bad
                    replacements.append(tuple(row))
            for row in replacements:
                # Every other row is still one of the model's four shared cells.
                table = {**behavior.table, pair: row}
                if not all(map(math.isfinite, row)):
                    with pytest.raises(StructureError, match=re.escape(f"row {pair} sums")):
                        Behavior(n, n, table, tolerance=LOOSEST)
                    continue
                edited = Behavior(n, n, table, tolerance=LOOSEST)
                assert_identical(validate_behavior(edited), _ref_validate(edited),
                                 f"{pair} <- {row}")
                assert_identical(validate_behavior(edited, 0.5),
                                 _ref_validate(edited, 0.5), f"{pair} <- {row}")

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


# -- shared rows and their unshared twins --------------------------------------

def _answer(call):
    """What `call` returns, or the type and message of the refusal it raises."""
    try:
        return call()
    except (StructureError, ValueError, IndexError) as error:
        return f"{type(error).__name__}: {error}"


def _unshared_table(table) -> dict:
    """`table` in the same key order with every row a distinct tuple object."""
    twin = {pair: tuple(list(row)) for pair, row in table.items()}
    assert len({id(row) for row in twin.values()}) == len(twin)
    return twin


def _assert_checks_match(model, twin_model, behavior, twin_behavior, where):
    """Scores, witnesses and bound checks of a shared-row input and its twin."""
    n_max = min(model.n_settings, behavior.n_settings_A, behavior.n_settings_B)
    for n in range(2, n_max + 1):
        at = f"{where} n={n}"
        assert_identical(chained_score(behavior, n), chained_score(twin_behavior, n), at)
        for selection in ("link", "zero"):
            assert_identical(witness_chained(model, n, behavior, selection),
                             witness_chained(twin_model, n, twin_behavior, selection),
                             f"{at} witness {selection}")
        report = check_quasi_bell(model, n, behavior=behavior)
        twin_report = check_quasi_bell(twin_model, n, behavior=twin_behavior)
        assert_identical(report, twin_report, f"{at} check")
        assert_identical(report.witness, twin_report.witness, f"{at} check witness")


@st.composite
def pooled_behaviors(draw):
    """Behaviors whose rows come from a pool of a few row objects.

    Pool rows are float or `Fraction`, usually normalized with entries that
    may leave [0, 1]; some are not normalized, some have three entries, and
    float rows may hold a non-finite entry.  They sit at random setting
    pairs of a table whose key order is random too.
    """
    exact = draw(st.booleans())
    if exact:
        entry = st.integers(-3, 15).map(lambda k: Fraction(k, 12))
    else:
        entry = st.one_of(st.floats(-0.25, 1.25),
                          st.sampled_from([math.nan, math.inf, -math.inf]))

    def row():
        head = draw(st.lists(entry, min_size=3, max_size=3))
        kind = draw(st.sampled_from(["normalized"] * 6 + ["loose", "short"]))
        if kind == "short":
            return tuple(head)
        last = draw(entry) if kind == "loose" else 1 - sum(head)
        return (*head, last)

    pool = [row() for _ in range(draw(st.integers(1, 3)))]
    n_a, n_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pairs = draw(st.permutations([(x_a, x_b) for x_a in range(n_a) for x_b in range(n_b)]))
    table = {pair: pool[draw(st.integers(0, len(pool) - 1))] for pair in pairs}
    return n_a, n_b, table


def _assert_model_matches_twin(model, twin):
    """Every answer on `twin` is the one on `model`, in value and type."""
    for tolerance in (1e-9, 0):
        assert_identical(_answer(lambda: assemble_behavior(model, tolerance)),
                         _answer(lambda: assemble_behavior(twin, tolerance)),
                         f"assemble tol={tolerance}")
    behavior, twin_behavior = assemble_behavior(model), assemble_behavior(twin)
    assert_identical(validate_behavior(behavior), validate_behavior(twin_behavior),
                     "validity")
    for n in range(2, model.n_settings + 1):
        assert_identical(mixture_score(model, n), mixture_score(twin, n),
                         f"mixture n={n}")
        for selection in ("link", "zero"):
            assert_identical(witness_chained(model, n, None, selection),
                             witness_chained(twin, n, None, selection),
                             f"own witness n={n} {selection}")
        report, twin_report = check_quasi_bell(model, n), check_quasi_bell(twin, n)
        assert_identical(report, twin_report, f"own check n={n}")
        assert_identical(report.witness, twin_report.witness, f"own check witness n={n}")
    _assert_checks_match(model, twin, behavior, twin_behavior, "handed")


class TestUnsharedTwins:
    """Every check answers for shared row objects as for distinct copies of them."""

    @given(model=shared_row_models())
    @settings(max_examples=300, deadline=None)
    def test_shared_row_models(self, model):
        _assert_model_matches_twin(model, _unshared(model))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
    def test_families(self, n, exact):
        for budget in (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(3)):
            model = chained_saturating_model(
                n, budget if exact else float(budget), exact=exact, force=True)
            _assert_model_matches_twin(model, _unshared(model))

    @given(
        drawn=pooled_behaviors(),
        # Shared model rows too, so witness links can reuse figures.
        model=st.one_of(
            shared_row_models(),
            st.tuples(st.integers(2, 4), st.integers(0, 2), st.booleans()).map(
                lambda args: chained_saturating_model(*args)),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_pooled_behaviors(self, drawn, model):
        n_a, n_b, table = drawn
        twin_table = _unshared_table(table)
        built = _answer(lambda: Behavior(n_a, n_b, table))
        twin_built = _answer(lambda: Behavior(n_a, n_b, twin_table))
        if isinstance(built, str) or isinstance(twin_built, str):
            assert built == twin_built
            return
        assert_identical(built, twin_built, "behavior")
        for tol in (1e-9, 0.5):
            assert_identical(validate_behavior(built, tol), validate_behavior(twin_built, tol),
                             f"validity tol={tol}")
        _assert_checks_match(model, _unshared(model), built, twin_built, "pooled")

    @pytest.mark.parametrize("selection", ["link", "zero"])
    @pytest.mark.parametrize("changed", [None, "disc high", "disc low", "alice", "bob high",
                                         "bob low"])
    def test_a_link_reuses_figures_only_when_every_row_repeats(self, selection, changed):
        # One row object per party and one behavior row everywhere, so link 2
        # may reuse link 1; `changed` replaces the one row that tells them apart.
        labels = ("1", "2")
        row_a, row_b = (0.25, 0.75), (0.375, 0.625)
        table_a = {(x, lam): row_a for x in range(3) for lam in labels}
        table_b = {(x, lam): row_b for x in range(3) for lam in labels}
        cell = (0.125, 0.25, 0.375, 0.25)
        cells = {(x_a, x_b): cell for x_a in range(3) for x_b in range(3)}
        # Link 2's discriminant high row, and link 1's low row.
        if changed == "disc high":
            cells[(0 if selection == "zero" else 2, 2)] = (0.5, 0.125, 0.125, 0.25)
        elif changed == "disc low":
            cells[(0 if selection == "zero" else 1, 0)] = (0.5, 0.125, 0.125, 0.25)
        elif changed == "alice":
            table_a[(2, "2")] = (0.875, 0.125)
        elif changed == "bob high":
            table_b[(2, "2")] = (0.875, 0.125)
        elif changed == "bob low":  # link 2's low row is link 1's high; its low moves
            table_b[(0, "2")] = (0.875, 0.125)
        model = Model(LocalResponse("A", 3, labels, table_a), LocalResponse("B", 3, labels, table_b),
                      QuasiDist.diagonal({"1": 1.5, "2": -0.5}))
        behavior = Behavior(3, 3, cells)
        report = witness_chained(model, 3, behavior, selection)
        assert_identical(report, _ref_witness_chained(model, 3, behavior, selection))
        assert_identical(report, witness_chained(_unshared(model), 3,
                                                 Behavior(3, 3, _unshared_table(cells)),
                                                 selection))
        first, second = report.terms
        assert second.per_lambda_contributions is not first.per_lambda_contributions
        if changed is None:
            assert second.n_plus is first.n_plus and second.n_minus is first.n_minus
        else:
            assert (second.n_plus, second.n_minus, second.branch_discriminant) != (
                first.n_plus, first.n_minus, first.branch_discriminant)

    def test_lines_that_share_only_some_rows_are_each_folded(self):
        # Alice's lines (c, c, c) and (c, c, d) start alike; only the second
        # spreads, and so does Bob's line (c, d).
        c, d = (0.25, 0.25, 0.25, 0.25), (0.5, 0.25, 0.125, 0.125)
        behavior = Behavior(2, 3, {(0, 0): c, (0, 1): c, (0, 2): c,
                                   (1, 0): c, (1, 1): c, (1, 2): d})
        report = validate_behavior(behavior)
        assert report.no_signalling_violation == 0.25
        assert_identical(report, _ref_validate(behavior))
        assert_identical(report, validate_behavior(Behavior(2, 3, _unshared_table(behavior.table))))

    def test_a_shared_unnormalized_row_is_refused_at_its_first_key(self):
        good = (0.25, 0.25, 0.25, 0.25)
        other = (0.5, 0.0, 0.0, 0.5)
        bad = (0.5, 0.5, 0.5, 0.0)
        # Not row-major: `bad` first sits at (1, 2), then at (0, 0) and (2, 0),
        # with other rows between them.
        order = [((2, 1), good), ((1, 2), bad), ((0, 1), other), ((0, 0), bad),
                 ((1, 1), good), ((2, 2), other), ((2, 0), bad), ((0, 2), good),
                 ((1, 0), other)]
        table = dict(order)
        message = "row (1, 2) sums to 1.5, not 1"
        for rows in (table, _unshared_table(table)):
            with pytest.raises(StructureError) as refused:
                Behavior(3, 3, rows)
            assert str(refused.value) == message


# -- int 0/1 rows and their Fraction-row twins ---------------------------------

def _fraction_rows(model: Model) -> Model:
    """`model` with each distinct response row object one tuple of `Fraction`s.

    Rows that are one object in `model`, across settings, hidden values and
    parties, are one object in the twin too, so the sharing is kept.
    """
    twins: dict[int, tuple] = {}

    def converted(response):
        table = {}
        for key, row in response.table.items():
            if id(row) not in twins:
                twins[id(row)] = tuple(map(Fraction, row))
            table[key] = twins[id(row)]
        return LocalResponse(response.party, response.n_settings, response.hidden_values, table)

    return Model(converted(model.response_A), converted(model.response_B), model.dist)


class TestFractionRowTwins:
    """Exact families keep int 0/1 rows, and every answer is the `Fraction`-row one."""

    @staticmethod
    def _assert_int_rows_match_twin(model):
        twin = _fraction_rows(model)
        _assert_model_matches_twin(model, twin)
        for n in range(2, model.n_settings + 1):
            for point in model.dist.support:
                score = lambda_local_score(model, point, n)
                assert type(score) is int
                assert score == lambda_local_score(twin, point, n)

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("budget", [Fraction(0), Fraction(1, 12), Fraction(1, 2),
                                        Fraction(1), Fraction(23, 12), Fraction(2)],
                             ids=str)
    def test_families(self, n, budget):
        self._assert_int_rows_match_twin(chained_saturating_model(n, budget, exact=True))

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("budget", [Fraction(5, 2), Fraction(3)], ids=str)
    def test_forced_families(self, n, budget):
        model = chained_saturating_model(n, budget, exact=True, force=True)
        assert not validate_behavior(assemble_behavior(model)).is_valid
        self._assert_int_rows_match_twin(model)


class TestExactRepresentation:
    """What an exact family holds: int rows, `Fraction` cells and figures."""

    @pytest.mark.parametrize("n", [2, 3, 12])
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
    def test_rows_are_the_shared_constants(self, n, exact):
        model = chained_saturating_model(n, Fraction(1) if exact else 1.0, exact=exact)
        entry_type = int if exact else float
        for response in (model.response_A, model.response_B):
            assert {id(row) for row in response.table.values()} == {
                id(_DETERMINISTIC_ROWS[(plus, exact)]) for plus in (True, False)}
            for row in response.table.values():
                assert row in ((0, 1), (1, 0))
                assert all(type(p) is entry_type for p in row)
            for key in response.table:
                assert type(local_expectation(response, *key)) is entry_type

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_every_twelfth_budget_gives_fraction_figures(self, n):
        for budget in TWELFTHS:
            model = chained_saturating_model(n, budget, exact=True)
            cells = [value for row in assemble_behavior(model).table.values() for value in row]
            assert all(type(value) is Fraction for value in cells), f"N={budget}"
            report = check_quasi_bell(model, n)
            assert type(report.score) is Fraction and type(report.margin) is Fraction
            assert report.margin == 0
            # No weight is negative at N = 0, so the witness is the empty
            # sum 0 and the bound the int 2n - 2.
            assert type(report.bound) is (Fraction if budget else int), f"N={budget}"
            assert report.bound == 2 * n - 2 + budget
