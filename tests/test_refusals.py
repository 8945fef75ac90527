"""Every refusal of malformed input raises its own type with its own message.

One parametrized test per module; each case builds the smallest input that
reaches one `raise` line.
"""

from __future__ import annotations

import math
import re
import sys

import numpy as np
import pytest

from quasibell import (
    Behavior,
    LocalResponse,
    QuasiDist,
    StructureError,
    chained_saturating_model,
    chsh_saturating_model,
    check_quasi_bell,
    lambda_local_score,
    validate_behavior,
    witness_chained,
    witness_chained_link,
)
from quasibell import oracle
from quasibell.cli import EXIT_USAGE, main
from quasibell.constructions import (
    SymbolStrategy,
    model_from_strategies,
    saturating_strategies,
)
from quasibell.oracle import (
    classical_bound_bruteforce,
    enumerate_deterministic,
    min_negativity_lp,
    quantum_behavior,
    signed_sample,
    singlet_state,
)
from quasibell.serialization import ModelFormatError, behavior_from_csv, model_from_json_dict

HALF = (0.5, 0.5)
UNIFORM = (0.25, 0.25, 0.25, 0.25)


def uniform_behavior(n_a: int, n_b: int) -> Behavior:
    table = {(x_a, x_b): UNIFORM for x_a in range(n_a) for x_b in range(n_b)}
    return Behavior(n_a, n_b, table)


def party(**changes) -> dict:
    entry = {"settings": 1, "lambdas": ["1"], "table": {"0,1": list(HALF)}}
    entry.update(changes)
    return {key: value for key, value in entry.items() if value is not None}


def model_document(parties: list) -> dict:
    return {"parties": parties, "dist": {"1,1": 1.0}}


@pytest.mark.parametrize("argv, message", [
    (["oracle", "lp", "--n", "2", "--budget", "-1"],
     "argument --budget: budget must be non-negative or inf"),
    (["oracle", "lp", "--n", "2", "--budget", "abc"], "argument --budget: bad budget 'abc'"),
    (["oracle", "lp", "--n", "2", "--budget", "-inf"],
     "argument --budget: budget must be non-negative or inf"),
    (["oracle", "lp", "--n", "2", "--budget", "-nan"], "argument --budget: bad budget '-nan'"),
])
def test_cli_refusals(capsys, argv, message):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"quasibell oracle lp: error: {message}"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: min_negativity_lp(uniform_behavior(2, 3)),
                 "the strategy grid needs equal setting counts", id="min-neg-2x3"),
    pytest.param(lambda: min_negativity_lp(uniform_behavior(1, 1)),
                 "min-negativity LP needs n >= 2", id="min-neg-n1"),
    pytest.param(lambda: min_negativity_lp(uniform_behavior(6, 6)),
                 "LP oracle limited to n <= 5", id="min-neg-n6"),
    pytest.param(lambda: classical_bound_bruteforce(1),
                 "chained score needs n >= 2", id="classical-bound-n1"),
    pytest.param(lambda: enumerate_deterministic(0),
                 "need at least one setting", id="enumerate-n0"),
    pytest.param(lambda: quantum_behavior(np.triu(np.full((4, 4), 0.25)), [0.0], [0.0]),
                 "state must be Hermitian", id="non-hermitian"),
    pytest.param(lambda: quantum_behavior(singlet_state(), [], [0.0]),
                 "each party needs at least one measurement angle", id="no-angles"),
    *(pytest.param(lambda seed=seed: signed_sample(chsh_saturating_model(1), 10, seed),
                   "seed must be a non-negative integer", id=f"seed-{name}")
      for name, seed in [("none", None), ("true", True), ("float", 1.5), ("whole-float", 2.0),
                         ("string", "3"), ("negative", -1), ("numpy-negative", np.int64(-1))]),
])
def test_oracle_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_min_negativity_lp_refuses_n1_before_solving(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("no program should be built or solved")

    monkeypatch.setattr(oracle, "_behavior_basis", fail)
    monkeypatch.setattr(oracle, "_highs_model", fail)
    monkeypatch.setattr(oracle, "linprog", fail)
    with pytest.raises(ValueError, match="^min-negativity LP needs n >= 2$"):
        min_negativity_lp(uniform_behavior(1, 1))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize("pair, k", [((0, 0), 0), ((1, 2), 3)])
def test_min_negativity_lp_refuses_a_non_finite_target_before_building(value, pair, k):
    # No non-finite target reaches the LP: a table holding one is refused at
    # its first such row, at any finite tolerance, and a checked target
    # cannot be written.  The later cell (2, 2, +1, +1) is non-finite too.
    target = uniform_behavior(3, 3)
    table = dict(target.table)
    for cell_pair, cell in ((pair, k), ((2, 2), 3)):
        row = list(table[cell_pair])
        row[cell] = value
        table[cell_pair] = tuple(row)
    message = f"row {pair} sums to {value!r}, not 1"
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        Behavior(3, 3, table, tolerance=sys.float_info.max)
    with pytest.raises(TypeError):
        target.table[pair] = table[pair]
    assert target.table[pair] == UNIFORM


@pytest.mark.parametrize("seed", [None, -1, 0.5])
def test_signed_sample_refuses_a_seed_before_assembling(monkeypatch, seed):
    def fail(*args, **kwargs):
        raise AssertionError("no behavior should be assembled")

    monkeypatch.setattr(oracle, "assemble_behavior", fail)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        signed_sample(chsh_saturating_model(1), 10, seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**70])
def test_signed_sample_takes_any_non_negative_integer_seed(seed):
    estimate = signed_sample(chsh_saturating_model(1), 10, seed)
    assert estimate.seed == seed


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: witness_chained_link(chsh_saturating_model(1), 0),
                 "link index must be at least 1", id="link-0"),
    pytest.param(lambda: witness_chained(chsh_saturating_model(1), 1),
                 "chained witness needs n >= 2", id="chain-n1"),
])
def test_witness_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: check_quasi_bell(chsh_saturating_model(1), 1),
                 "bound check needs n >= 2", id="check-n1"),
    pytest.param(lambda: lambda_local_score(chsh_saturating_model(1), "1", 1),
                 "lambda-local score needs n >= 2", id="lambda-local-n1"),
])
def test_inequality_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("check", [
    # The family at N = 1/2 has margin 0, so a tolerance that is let through
    # decides whether the bound holds.
    pytest.param(lambda tol: check_quasi_bell(chained_saturating_model(2, 0.5), 2, tol=tol),
                 id="check_quasi_bell"),
    pytest.param(lambda tol: validate_behavior(uniform_behavior(2, 2), tol),
                 id="validate_behavior"),
])
def test_tolerance_refusals(check, tol):
    message = f"tolerance must be non-negative and finite, got {tol!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(tol)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: chained_saturating_model(1, 0),
                 "the saturating family needs n >= 2", id="family-n1"),
    pytest.param(lambda: saturating_strategies(1),
                 "the saturating family needs n >= 2", id="strategies-n1"),
    pytest.param(lambda: chained_saturating_model(1001, 0),
                 "the saturating family is limited to n <= 1000", id="family-n1001"),
    pytest.param(lambda: saturating_strategies(1001),
                 "the saturating family is limited to n <= 1000", id="strategies-n1001"),
    pytest.param(lambda: model_from_strategies(saturating_strategies(2), {"1": 1.0}),
                 "strategies and weights must cover the same labels", id="labels"),
    pytest.param(lambda: model_from_strategies(
                     {"a": SymbolStrategy(("+",), ("+",)),
                      "b": SymbolStrategy(("+", "-"), ("+", "-"))},
                     {"a": 0.5, "b": 0.5}),
                 "all strategies must share a setting count", id="mixed-settings"),
    pytest.param(lambda: SymbolStrategy((), ()),
                 "strategies need at least one setting", id="no-settings"),
])
def test_construction_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: LocalResponse("C", 1, ("1",), {(0, "1"): HALF}),
                 "party must be 'A' or 'B', got 'C'", id="party-C"),
    pytest.param(lambda: LocalResponse("A", 0, ("1",), {}),
                 "n_settings must be positive", id="no-settings"),
    # Refused before the 1001 expected table keys are enumerated.
    pytest.param(lambda: LocalResponse("A", 1001, ("1",), {}),
                 "n_settings must be at most 1000", id="too-many-settings"),
    pytest.param(lambda: LocalResponse("A", 1, (), {}),
                 "hidden_values must be non-empty and finite", id="no-hidden-values"),
    pytest.param(lambda: LocalResponse("A", 1, ("1", "1"), {(0, "1"): HALF}),
                 "hidden_values contains duplicates", id="duplicate-hidden-values"),
    pytest.param(lambda: LocalResponse("A", 1, ("1",), {(0, "1"): (0.5, 0.5, 0.0)}),
                 "party A, (x, lambda)=(0, '1'): expected a length-2 outcome row, "
                 "got (0.5, 0.5, 0.0)", id="three-entry-row"),
    pytest.param(lambda: QuasiDist(support=(), weights={}),
                 "support must be non-empty", id="empty-support"),
    pytest.param(lambda: QuasiDist(support=(("1", "1"), ("1", "1")), weights={("1", "1"): 1.0}),
                 "support contains duplicate points", id="duplicate-support"),
    pytest.param(lambda: QuasiDist(support=(("1", "1"),), weights={("1", "2"): 1.0}),
                 "weights keys must match support exactly", id="weight-keys"),
    pytest.param(lambda: Behavior(0, 1, {}),
                 "setting counts must be positive", id="behavior-no-settings"),
    pytest.param(lambda: Behavior(1, 2, {(0, 0): UNIFORM}),
                 "behavior table must have exactly one row per setting pair",
                 id="missing-setting-pair"),
])
def test_core_refusals(call, message):
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: model_from_json_dict(model_document([1, party()])),
                 "party A: expected an object", id="party-not-object"),
    pytest.param(lambda: model_from_json_dict(model_document([party(extra=1), party()])),
                 "party A: unknown fields ['extra']", id="unknown-party-field"),
    pytest.param(lambda: model_from_json_dict(model_document([party(), party(table=None)])),
                 "party B: missing or malformed field ('table')", id="missing-field"),
    pytest.param(lambda: model_from_json_dict(
                     model_document([party(table={"x,1": list(HALF)}), party()])),
                 "party A: bad table key 'x,1'", id="bad-table-key"),
    *(pytest.param(lambda key=key: model_from_json_dict(
                       model_document([party(table={key: list(HALF)}), party()])),
                   f"party A: bad table key {key!r}", id=f"unwritten-setting-{key}")
      # int() takes each of these setting parts, str() writes none of them.
      for key in ("00,1", "0 ,1", "+0,1", "0_0,1", "-0,1")),
    *(pytest.param(lambda lambdas=lambdas: model_from_json_dict(
                       model_document([party(lambdas=lambdas), party()])),
                   "party A: 'lambdas' must be an array of strings", id=f"lambdas-{kind}")
      for kind, lambdas in (("string", "1"), ("object", {"1": 0}), ("numbers", [1]),
                            ("null-entry", ["1", None]))),
    pytest.param(lambda: model_from_json_dict([]),
                 "model document must be a JSON object", id="document-not-object"),
    pytest.param(lambda: model_from_json_dict({"parties": [party(), party()], "dist": {}}),
                 "'dist' must be a non-empty object", id="empty-dist"),
    pytest.param(lambda: behavior_from_csv("xA,xB,P--,P-+,P+-,P++\n"),
                 "behavior CSV has no data rows", id="csv-header-only"),
    *(pytest.param(lambda row=row: behavior_from_csv(f"xA,xB,P--,P-+,P+-,P++\n{row},1,0,0,0"),
                   f"line 2: setting {text!r} is not written as {str(int(text))!r}",
                   id=f"csv-unwritten-{column}-{text}")
      # int() takes each of these setting columns, str() writes none of them.
      for text in ("00", "+1", " 1", "0_1", "-0")
      for column, row in (("xA", f"{text},0"), ("xB", f"0,{text}"))),
])
def test_serialization_refusals(call, message):
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        call()
