"""Negativity witnesses for signed hidden-variable mixtures.

A negativity witness maps a weight table to a non-negative number that is
zero on every ordinary (all-positive) distribution.  The case-selected CHSH
witness pairs each hidden value with the bracket

    2 +- (<A>^a <B>^bh + <A>^a <B>^bl)

where <k>^x is the per-hidden-value outcome expectation, and multiplies it by
the negative excess |w| - w of the weight.  The branch (+ or -) is picked by
the sign of an observed correlator sum, so the witness depends on the whole
model, not on the weights alone.  The faithful witness drops the brackets in
favor of the constant 4 and is strictly positive whenever any weight is
negative, at the cost of a looser Bell bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Literal, Mapping

from .core import (
    Behavior,
    Model,
    Point,
    QuasiDist,
    assemble_behavior,
    correlation,
)


class Branch(str, Enum):
    PLUS = "PLUS"
    MINUS = "MINUS"


def _point_key(point: Point) -> str:
    return f"{point[0]},{point[1]}"


@dataclass(frozen=True)
class WitnessReport:
    """Both branch values of a case-selected witness plus the chosen one.

    `branch_discriminant` is the correlator sum that picked the branch
    (negative selects PLUS, anything else selects MINUS).
    `a_setting_bracket` is Alice's setting inside the brackets and
    `a_setting_discriminant` Alice's setting in the discriminant; the two
    differ between the 2-setting witness and the chained per-link ones, so
    both are recorded.  `per_lambda_contributions` breaks the selected value
    down by support point.
    """

    n_plus: object
    n_minus: object
    selected: object
    branch: Branch
    branch_discriminant: object
    per_lambda_contributions: Mapping[Point, object]
    faithful: object
    a_setting_bracket: int
    a_setting_discriminant: int
    link: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "n_plus": float(self.n_plus),
            "n_minus": float(self.n_minus),
            "selected": float(self.selected),
            "branch": self.branch.value,
            "discriminant": float(self.branch_discriminant),
            "faithful": float(self.faithful),
            "per_lambda_contributions": {
                _point_key(p): float(v) for p, v in self.per_lambda_contributions.items()
            },
            "a_setting_bracket": self.a_setting_bracket,
            "a_setting_discriminant": self.a_setting_discriminant,
            "link": self.link,
        }


@dataclass(frozen=True)
class ChainedWitnessReport:
    """Per-link witness reports for settings x = 1 .. n-1 and their sum."""

    terms: tuple[WitnessReport, ...]
    total: object

    def to_json_dict(self) -> dict:
        return {
            "total": float(self.total),
            "terms": [t.to_json_dict() for t in self.terms],
        }


def _require_settings(model: Model, needed: int) -> None:
    if model.response_A.n_settings < needed or model.response_B.n_settings < needed:
        raise ValueError(
            f"witness needs at least {needed} settings per party, model has "
            f"({model.response_A.n_settings}, {model.response_B.n_settings})"
        )


def _negative_excesses(dist: QuasiDist) -> tuple[dict[Point, object], list]:
    """Per-point excesses |w| - w, computed once for every bracket of a call.

    Returns a {point: 0} template in support order and the (point, excess)
    pairs whose excess is not zero; only those points contribute a term.
    """
    weights = dist.weights
    zeros = dict.fromkeys(dist.support, 0)
    negative = []
    for point in dist.support:
        w = weights[point]
        excess = abs(w) - w
        if excess != 0:
            negative.append((point, excess))
    return zeros, negative


def _bracket_contributions(model: Model, excesses, a_setting: int, b_high: int, b_low: int):
    """Per-point terms [2 +- (<A><B>_high + <A><B>_low)] * (|w| - w), both branches.

    `excesses` comes from `_negative_excesses(model.dist)`.  Returns
    (n_plus, plus_terms, n_minus, minus_terms).  The product
    <A>(<B>_high + <B>_low) is computed once per point and shared: the MINUS
    term `2 - t` is bit-identical to `2 + (-1 * <A>) * (...)`.
    """
    table_a, table_b = model.response_A.table, model.response_B.table
    zeros, negative = excesses
    plus: dict[Point, object] = dict(zeros)
    minus: dict[Point, object] = dict(zeros)
    n_plus = n_minus = 0
    for point, excess in negative:
        lam_a, lam_b = point
        a_minus, a_plus = table_a[(a_setting, lam_a)]
        high_minus, high_plus = table_b[(b_high, lam_b)]
        low_minus, low_plus = table_b[(b_low, lam_b)]
        spread = (a_plus - a_minus) * ((high_plus - high_minus) + (low_plus - low_minus))
        term_plus = (2 + spread) * excess
        term_minus = (2 - spread) * excess
        plus[point] = term_plus
        minus[point] = term_minus
        n_plus += term_plus
        n_minus += term_minus
    return n_plus, plus, n_minus, minus


def witness_pm(model: Model, sign: str):
    """One fixed branch ('+' or '-') of the 2-setting negativity witness.

    Sums [2 +- (<A>^1 <B>^1 + <A>^1 <B>^0)] * (|w| - w) over the support.
    Always non-negative; exactly zero when every weight is non-negative.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    _require_settings(model, 2)
    n_plus, _, n_minus, _ = _bracket_contributions(
        model, _negative_excesses(model.dist), a_setting=1, b_high=1, b_low=0
    )
    return n_plus if sign == "+" else n_minus


def witness_faithful(dist: QuasiDist):
    """Faithful witness: sum of 4 * (|w| - w), i.e. 8x the negative mass.

    Strictly positive iff the distribution has at least one negative weight.
    """
    return sum(4 * (abs(w) - w) for w in dist.weights.values())


def witness_chsh(model: Model, behavior: Behavior | None = None) -> WitnessReport:
    """Case-selected 2-setting witness with branch picked by E(1,0)+E(1,1).

    A strictly negative discriminant selects the PLUS branch, otherwise MINUS
    (ties select MINUS).  Returns both branch values, the selected one, its
    per-point breakdown, and the faithful witness of the same weights.
    """
    _require_settings(model, 2)
    if behavior is None:
        behavior = assemble_behavior(model)
    discriminant = correlation(behavior, 1, 0) + correlation(behavior, 1, 1)
    n_plus, contr_plus, n_minus, contr_minus = _bracket_contributions(
        model, _negative_excesses(model.dist), a_setting=1, b_high=1, b_low=0
    )
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
        faithful=witness_faithful(model.dist),
        a_setting_bracket=1,
        a_setting_discriminant=1,
    )


def witness_chained_link(
    model: Model,
    x: int,
    behavior: Behavior | None = None,
    discriminant_alice_setting: Literal["zero", "link"] = "link",
) -> WitnessReport:
    """Witness term for chain link x, bracketed with settings (x; x, x-1).

    The branch discriminant is E(x, x) + E(x, x-1) by default ("link"), the
    selection under which the chained bound is a theorem: it is what the
    inductive proof uses, and link x=1 then reduces exactly to the 2-setting
    witness.  Passing "zero" selects by E(0, x) + E(0, x-1) instead; that
    variant is exposed for comparison only, because branch selection at
    Alice's setting 0 does not give a universally valid bound (there are
    valid behaviors whose score exceeds it; see the regression test).  The
    report records which Alice setting selected the branch.
    """
    if x < 1:
        raise ValueError("link index must be at least 1")
    _require_settings(model, x + 1)
    if behavior is None:
        behavior = assemble_behavior(model)
    return _link_report(
        model,
        x,
        behavior,
        discriminant_alice_setting,
        witness_faithful(model.dist),
        _negative_excesses(model.dist),
    )


def _link_report(
    model: Model,
    x: int,
    behavior: Behavior,
    discriminant_alice_setting: Literal["zero", "link"],
    faithful,
    excesses,
) -> WitnessReport:
    a_disc = 0 if discriminant_alice_setting == "zero" else x
    discriminant = correlation(behavior, a_disc, x) + correlation(behavior, a_disc, x - 1)
    n_plus, contr_plus, n_minus, contr_minus = _bracket_contributions(
        model, excesses, a_setting=x, b_high=x, b_low=x - 1
    )
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
        faithful=faithful,
        a_setting_bracket=x,
        a_setting_discriminant=a_disc,
        link=x,
    )


def witness_chained(
    model: Model,
    n: int,
    behavior: Behavior | None = None,
    discriminant_alice_setting: Literal["zero", "link"] = "link",
) -> ChainedWitnessReport:
    """Chained witness: sum of the per-link terms for x = 1 .. n-1."""
    if n < 2:
        raise ValueError("chained witness needs n >= 2")
    _require_settings(model, n)
    if behavior is None:
        behavior = assemble_behavior(model)
    faithful = witness_faithful(model.dist)
    excesses = _negative_excesses(model.dist)
    terms = tuple(
        _link_report(model, x, behavior, discriminant_alice_setting, faithful, excesses)
        for x in range(1, n)
    )
    total = sum(term.selected for term in terms)
    return ChainedWitnessReport(terms=terms, total=total)
