"""Negativity witnesses for signed hidden-variable mixtures.

A negativity witness maps a weight table to a non-negative number that is
zero on every all-positive distribution.  The chained witness of length n
sums one case-selected term per link x = 1 .. n-1, pairing each hidden
value's negative excess |w| - w with the bracket
2 +- <A>^x (<B>^x + <B>^(x-1)), <k>^s the outcome expectation at setting
s; the sign of an observed correlator sum picks the branch, so the witness
depends on the whole model.  The 2-setting witness is its link x=1.  The
faithful witness, 4 in place of each bracket, is positive whenever any
weight is negative, at the cost of a looser bound.
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
    _check_chain_length,
    _row_correlation,
)


class Branch(str, Enum):
    PLUS = "PLUS"
    MINUS = "MINUS"


def _point_key(point: Point) -> str:
    return f"{point[0]},{point[1]}"


@dataclass(frozen=True)
class WitnessReport:
    """One link's case-selected witness: both branch values and the selected one.

    `branch_discriminant` is the correlator sum that picked the branch (negative: PLUS,
    else MINUS), and `a_setting_discriminant` Alice's setting in it; `link` is the chain
    link x, Alice's setting in the brackets.  `per_lambda_contributions` breaks the
    selected value down by support point."""

    n_plus: object
    n_minus: object
    selected: object
    branch: Branch
    branch_discriminant: object
    per_lambda_contributions: Mapping[Point, object]
    faithful: object
    a_setting_discriminant: int
    link: int

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


def witness_faithful(dist: QuasiDist):
    """Faithful witness sum 4 (|w| - w), 8x the negative mass: positive iff a weight is negative."""
    return sum(4 * (abs(w) - w) for w in dist.weights.values())


def witness_chained_link(
    model: Model,
    x: int,
    behavior: Behavior | None = None,
    discriminant_alice_setting: Literal["zero", "link"] = "link",
) -> WitnessReport:
    """Witness term for chain link x, bracketed with settings (x; x, x-1).

    The discriminant E(x, x) + E(x, x-1) ("link") is the selection under which the chained
    bound is a theorem; "zero" selects by E(0, x) + E(0, x-1), for comparison only, as some
    valid behaviors exceed that bound.  It is the last term of `witness_chained(model, x + 1)`."""
    if x < 1:
        raise ValueError("link index must be at least 1")
    return witness_chained(model, x + 1, behavior, discriminant_alice_setting).terms[-1]


def witness_chained(
    model: Model,
    n: int,
    behavior: Behavior | None = None,
    discriminant_alice_setting: Literal["zero", "link"] = "link",
) -> ChainedWitnessReport:
    """Chained witness: the sum of the per-link terms for x = 1 .. n-1.

    Link x has both branches [2 +- <A>^x (<B>^x + <B>^(x-1))] (|w| - w); the
    discriminant picks one (`witness_chained_link`), broken down by point.
    t = <A>^x (<B>^x + <B>^(x-1)) is computed once per point, `2 - t` having
    the bits of `2 + (-1 * <A>^x) * (...)`.  From link 2 on, a link whose
    discriminant rows, and at every negative-weight point whose Alice row and
    two Bob rows, are the previous link's objects reuses its figures.
    Without `behavior`, the model's default-tolerance behavior is read.
    """
    _check_chain_length("chained witness", n, "model",
                        model.response_A.n_settings, model.response_B.n_settings)
    if behavior is None:
        behavior = model._behavior
    faithful = witness_faithful(model.dist)
    # A {point: 0} template, and the (point, excess) pairs with |w| - w != 0.
    weights = model.dist.weights
    table_a, table_b = model.response_A.table, model.response_B.table
    zeros = dict.fromkeys(model.dist.support, 0)
    # Sums start at the first point's arithmetic's zero, as in `_mix`: empty ones keep its type.
    lam_a, lam_b = model.dist.support[0]
    zero = 0 + table_a[(0, lam_a)][0] * table_b[(0, lam_b)][0] * weights[(lam_a, lam_b)] * 0
    negative = []
    for point in model.dist.support:
        w = weights[point]
        excess = abs(w) - w
        if excess != 0:
            negative.append((point, excess))
    terms = []
    high = low = None
    for x in range(1, n):
        a_disc = 0 if discriminant_alice_setting == "zero" else x
        last_high, last_low = high, low
        high, low = behavior.row(a_disc, x), behavior.row(a_disc, x - 1)
        if high is last_high and low is last_low and all(
            table_a[(x, lam_a)] is table_a[(x - 1, lam_a)]
            and table_b[(x, lam_b)] is table_b[(x - 1, lam_b)] is table_b[(x - 2, lam_b)]
            for (lam_a, lam_b), _ in negative
        ):
            # Link x - 1's figures, from the same objects in the same order.
            contributions = dict(contributions)
        else:
            # E(a_disc, x) + E(a_disc, x - 1).
            discriminant = _row_correlation(high) + _row_correlation(low)
            plus = discriminant < 0
            contributions = dict(zeros)
            n_plus = n_minus = zero
            for point, excess in negative:
                lam_a, lam_b = point
                a_minus, a_plus = table_a[(x, lam_a)]
                high_minus, high_plus = table_b[(x, lam_b)]
                low_minus, low_plus = table_b[(x - 1, lam_b)]
                spread = (a_plus - a_minus) * ((high_plus - high_minus) + (low_plus - low_minus))
                term_plus = (2 + spread) * excess
                term_minus = (2 - spread) * excess
                contributions[point] = term_plus if plus else term_minus
                n_plus += term_plus
                n_minus += term_minus
        terms.append(WitnessReport(
            n_plus=n_plus,
            n_minus=n_minus,
            selected=n_plus if plus else n_minus,
            branch=Branch.PLUS if plus else Branch.MINUS,
            branch_discriminant=discriminant,
            per_lambda_contributions=contributions,
            faithful=faithful,
            a_setting_discriminant=a_disc,
            link=x,
        ))
    total = sum((term.selected for term in terms), zero)
    return ChainedWitnessReport(terms=tuple(terms), total=total)
