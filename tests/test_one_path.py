"""Computations with one implementation agree with the forms they replaced or wrap.

A chain link is the last term of the chain that ends at it; the strategy
sign matrix is the enumeration read as bits; float and exact budgets share
one weights expression; `sample` honours `--tolerance` as `verify` does; a
model is mixed once, its one default-tolerance behavior is what
`assemble_behavior` returns and what the checks read, and each check answers
as it does when handed a behavior.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibell import (
    LocalResponse,
    Model,
    QuasiDist,
    StructureError,
    assemble_behavior,
    chained_saturating_model,
    check_quasi_bell,
    mixture_score,
    saturating_weights,
    witness_chained,
    witness_chained_link,
)
from quasibell import core
from quasibell.cli import main
from quasibell.oracle import _strategy_signs, enumerate_deterministic

from conftest import diagonal_models
from test_reference_loops import assert_identical


def exact_copy(model: Model) -> Model:
    """The model with every row and weight as an exact `Fraction`."""
    def response(resp: LocalResponse) -> LocalResponse:
        table = {key: (1 - Fraction(row[1]), Fraction(row[1])) for key, row in resp.table.items()}
        return LocalResponse(resp.party, resp.n_settings, resp.hidden_values, table)

    raw = {point: Fraction(w) for point, w in model.dist.weights.items()}
    total = sum(raw.values())
    weights = {point: w / total for point, w in raw.items()}
    return Model(response(model.response_A), response(model.response_B),
                 QuasiDist(model.dist.support, weights))


@given(
    model=st.integers(min_value=2, max_value=4).flatmap(
        lambda n: diagonal_models(n_settings=n, signed=True)),
    exact=st.booleans(),
    pass_behavior=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_link_is_the_last_term_of_its_chain(model, exact, pass_behavior):
    if exact:
        model = exact_copy(model)
    behavior = assemble_behavior(model) if pass_behavior else None
    for selection in ("link", "zero"):
        for x in range(1, model.n_settings):
            link = witness_chained_link(model, x, behavior, selection)
            last = witness_chained(model, x + 1, behavior, selection).terms[-1]
            assert link == last
            assert link.link == x
            assert type(link.selected) is type(last.selected)
            assert (type(link.selected) is Fraction) == exact or link.selected == 0


@pytest.mark.parametrize("n", range(1, 17))
def test_strategy_signs_are_the_enumeration(n):
    signs = _strategy_signs(n)
    expected = np.array(enumerate_deterministic(n), dtype=float)
    assert signs.dtype == expected.dtype
    assert signs.shape == expected.shape
    assert np.array_equal(signs, expected)


@pytest.mark.parametrize("budget", [0, 0.5, 1, 2 * (math.sqrt(2) - 1), 2])
def test_float_weights_bits(budget):
    weights = saturating_weights(budget)
    n_val = float(budget)
    for label in ("1", "2", "3"):
        assert type(weights[label]) is float
        assert weights[label].hex() == ((4 + n_val) / 12.0).hex()
    assert type(weights["4"]) is float
    assert weights["4"].hex() == (-n_val / 4.0).hex()


@pytest.mark.parametrize("budget", [Fraction(0), Fraction(1, 2), Fraction(2), 1])
def test_exact_weights_are_fractions(budget):
    weights = saturating_weights(budget, exact=True)
    assert all(type(w) is Fraction for w in weights.values())
    assert weights["1"] == (4 + Fraction(budget)) / 12
    assert weights["4"] == -Fraction(budget) / 4
    assert sum(weights.values()) == 1


def test_sample_assembles_at_the_given_tolerance(capsys, tmp_path):
    # Rows off by 9e-10 under weights 50.5 and -49.5 give behavior rows
    # that sum to 1 + 1.8e-7: refused at the default tolerance only.
    high, low = [0.5000000009, 0.5], [0.4999999991, 0.5]
    party = {"settings": 2, "lambdas": ["1", "2"],
             "table": {"0,1": high, "0,2": low, "1,1": high, "1,2": low}}
    path = tmp_path / "loose.json"
    path.write_text(json.dumps({"parties": [party, party],
                                "dist": {"1,1": 50.5, "2,2": -49.5}}))
    argv = ["sample", "--model", str(path), "--shots", "1000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: row (0, 0) sums to 1.0000001799999954, not 1\n")
    assert main(["--tolerance", "1e-6", *argv]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shots"] == 1000


# -- each model is mixed once ------------------------------------------------

def test_each_assembly_gets_its_own_table():
    # The default tolerance always gets the model's one behavior; any other
    # tolerance gets a new behavior, with its own table over the same rows.
    # No table can be written, so sharing them changes no answer.
    model = chained_saturating_model(3, 1.0)
    first, second = assemble_behavior(model), assemble_behavior(model)
    assert first is second is model._behavior
    loose, exact = assemble_behavior(model, 1e-6), assemble_behavior(model, tolerance=0)
    assert len({id(first), id(loose), id(exact)}) == 3
    assert len({id(first.table), id(loose.table), id(exact.table)}) == 3
    assert (loose.tolerance, exact.tolerance) == (1e-6, 0)
    assert loose.table == first.table == exact.table
    original = first.table[(0, 0)]
    assert loose.table[(0, 0)] is original and exact.table[(0, 0)] is original  # shared rows
    with pytest.raises(TypeError):
        first.table[(0, 0)] = (1.0, 0.0, 0.0, 0.0)
    assert assemble_behavior(model).table[(0, 0)] is original


@pytest.fixture
def count_mixes(monkeypatch):
    calls = []
    mix = core._mix

    def counted(model):
        calls.append(model)
        return mix(model)

    monkeypatch.setattr(core, "_mix", counted)
    return calls


@pytest.mark.parametrize("exact", [False, True])
def test_a_model_is_mixed_once(count_mixes, exact):
    model = chained_saturating_model(3, Fraction(1, 2) if exact else 0.5, exact=exact)
    mixture_score(model, 3)
    assert count_mixes == []  # a model that is only scored is never mixed
    behavior = assemble_behavior(model)
    reports = [check_quasi_bell(model, 2), check_quasi_bell(model, 3)]
    witness = witness_chained(model, 3)
    assert count_mixes == [model]
    assert [r.score for r in reports] == [2, 4.5]  # the n=3 family saturates n=3 only
    assert witness == witness_chained(model, 3, behavior)
    assert count_mixes == [model]


def test_a_replaced_model_gets_its_own_cells(count_mixes):
    model = chained_saturating_model(2, 1.0)
    cells = assemble_behavior(model).table
    other = dataclasses.replace(model, dist=QuasiDist.diagonal(saturating_weights(2.0)))
    assert count_mixes == [model]
    assert assemble_behavior(other).table == assemble_behavior(
        chained_saturating_model(2, 2.0)).table
    assert assemble_behavior(other).table != cells
    assert assemble_behavior(model).table == cells
    assert count_mixes[:2] == [model, other] and len(count_mixes) == 3
    # The kept cells are not a field: equality and repr ignore them.
    fresh = chained_saturating_model(2, 1.0)
    assert fresh == model and repr(fresh) == repr(model)
    assert "_cells" not in repr(model)


def test_each_assembly_checks_its_own_tolerance():
    # Each behavior row sums to 1 + 5e-10: within the default tolerance, not 0.
    rows = {(x, lam): (1.0, 0.0) for x in range(2) for lam in ("1", "2")}
    model = Model(LocalResponse("A", 2, ("1", "2"), rows), LocalResponse("B", 2, ("1", "2"), rows),
                  QuasiDist.diagonal({"1": 0.5, "2": 0.5 + 5e-10}))
    assert assemble_behavior(model).table[(0, 0)] == (1.0 + 5e-10, 0.0, 0.0, 0.0)
    for _ in range(2):
        with pytest.raises(StructureError, match="not 1"):
            assemble_behavior(model, tolerance=0)
        assert assemble_behavior(model, tolerance=1e-9).tolerance == 1e-9


@pytest.fixture
def count_behaviors(monkeypatch):
    calls = []
    post_init = core.Behavior.__post_init__

    def counted(behavior):
        calls.append(behavior)
        post_init(behavior)

    monkeypatch.setattr(core.Behavior, "__post_init__", counted)
    return calls


@pytest.mark.parametrize("exact", [False, True])
def test_the_checks_build_one_behavior_per_model(count_behaviors, exact):
    model = chained_saturating_model(3, Fraction(1, 2) if exact else 0.5, exact=exact)
    reports = [check_quasi_bell(model, 2), check_quasi_bell(model, 3)]
    witness = witness_chained(model, 3)
    assert len(count_behaviors) == 1
    (own,) = count_behaviors
    assert own is model._behavior and own.tolerance == core.DEFAULT_TOLERANCE
    assert own.table == model._cells and own.table is not model._cells
    assert reports[1].witness == witness
    # A caller at the default tolerance gets that same behavior; any other
    # tolerance builds one more.
    assert assemble_behavior(model) is own
    assert len(count_behaviors) == 1
    loose = assemble_behavior(model, 1e-6)
    assert loose is not own and loose.table == own.table
    assert count_behaviors == [own, loose]


def test_a_refused_model_behavior_is_refused_every_time():
    # Rows off by 9e-10 under weights 50.5 and -49.5 give behavior rows
    # that sum to 1 + 1.8e-7: refused at the default tolerance only.
    high, low = (0.5000000009, 0.5), (0.4999999991, 0.5)
    table = {(0, "1"): high, (0, "2"): low, (1, "1"): high, (1, "2"): low}
    model = Model(LocalResponse("A", 2, ("1", "2"), table),
                  LocalResponse("B", 2, ("1", "2"), table),
                  QuasiDist.diagonal({"1": 50.5, "2": -49.5}))
    message = "row (0, 0) sums to 1.0000001799999954, not 1"
    for call in (lambda: check_quasi_bell(model, 2), lambda: witness_chained(model, 2),
                 lambda: check_quasi_bell(model, 2), lambda: assemble_behavior(model)):
        with pytest.raises(StructureError) as refused:
            call()
        assert str(refused.value) == message
    loose = assemble_behavior(model, tolerance=1e-6)
    assert check_quasi_bell(model, 2, behavior=loose).n == 2
    with pytest.raises(StructureError, match="not 1"):
        check_quasi_bell(model, 2)
    assert "_behavior" not in vars(model)


@given(
    model=st.integers(min_value=2, max_value=4).flatmap(
        lambda n: diagonal_models(n_settings=n, signed=True)),
    exact=st.booleans(),
    handed_first=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_check_assembles_as_the_caller_would(model, exact, handed_first):
    # `handed_first` decides whether the model's cells are first mixed for
    # the caller's behavior or inside `check_quasi_bell`.
    if exact:
        model = exact_copy(model)
    for n in range(2, model.n_settings + 1):
        if handed_first:
            handed = check_quasi_bell(model, n, behavior=assemble_behavior(model))
            own = check_quasi_bell(model, n)
        else:
            own = check_quasi_bell(model, n)
            handed = check_quasi_bell(model, n, behavior=assemble_behavior(model))
        assert_identical(own, handed, f"n={n}")
        assert_identical(own.witness, handed.witness, f"n={n} witness")
