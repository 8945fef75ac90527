"""Negativity witnesses for signed hidden-variable mixtures.

A negativity witness maps a weight table to a non-negative number that is
zero on every ordinary (all-positive) distribution.  The chained witness of
length n sums one case-selected term per link x = 1 .. n-1; each term pairs
every hidden value with the bracket

    2 +- <A>^x (<B>^x + <B>^(x-1))

where <k>^s is the per-hidden-value outcome expectation at setting s, and
multiplies it by the negative excess |w| - w of the weight.  The branch
(+ or -) is picked by the sign of an observed correlator sum, so the witness
depends on the whole model, not on the weights alone.  The 2-setting
witness is the chain of length 2: its single link x=1.  The faithful
witness drops the brackets in favor of the constant 4 and is strictly
positive whenever any weight is negative, at the cost of a looser Bell
bound.
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
    _row_correlation,
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
    `link` is the chain link x the term belongs to.  `a_setting_bracket` is
    Alice's setting inside the brackets (always x) and
    `a_setting_discriminant` Alice's setting in the discriminant (x, or 0
    under the "zero" selection of `witness_chained_link`).
    `per_lambda_contributions` breaks the selected value down by support
    point.
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


def witness_faithful(dist: QuasiDist):
    """Faithful witness: sum of 4 * (|w| - w), i.e. 8x the negative mass.

    Strictly positive iff the distribution has at least one negative weight.
    """
    return sum(4 * (abs(w) - w) for w in dist.weights.values())


def witness_chained_link(
    model: Model,
    x: int,
    behavior: Behavior | None = None,
    discriminant_alice_setting: Literal["zero", "link"] = "link",
) -> WitnessReport:
    """Witness term for chain link x, bracketed with settings (x; x, x-1).

    The branch discriminant is E(x, x) + E(x, x-1) by default ("link"), the
    selection under which the chained bound is a theorem: it is what the
    inductive proof uses, and link x=1 is the whole 2-setting witness.
    Passing "zero" selects by E(0, x) + E(0, x-1) instead; that variant is
    exposed for comparison only, because branch selection at Alice's
    setting 0 does not give a universally valid bound (there are valid
    behaviors whose score exceeds it; see the regression test).  The report
    records which Alice setting selected the branch.  It is the last term
    of `witness_chained(model, x + 1)`.
    """
    if x < 1:
        raise ValueError("link index must be at least 1")
    return witness_chained(model, x + 1, behavior, discriminant_alice_setting).terms[-1]


def witness_chained(
    model: Model,
    n: int,
    behavior: Behavior | None = None,
    discriminant_alice_setting: Literal["zero", "link"] = "link",
) -> ChainedWitnessReport:
    """Chained witness: sum of the per-link terms for x = 1 .. n-1.

    Link x has both branches [2 +- <A>^x (<B>^x + <B>^(x-1))] * (|w| - w);
    the discriminant picks one (see `witness_chained_link`), and only that
    branch is broken down by support point.  The product
    t = <A>^x (<B>^x + <B>^(x-1)) is computed once per point and shared: the
    MINUS term `2 - t` is bit-identical to `2 + (-1 * <A>^x) * (...)`.

    From link 2 on, a link whose two discriminant rows and, at every point
    of negative weight, whose Alice row and two Bob rows are the same
    objects as the previous link's has that link's figures, so it reuses
    them; its report still has its own link fields and contributions dict.
    Without `behavior`, the model's own default-tolerance behavior is read.
    """
    if n < 2:
        raise ValueError("chained witness needs n >= 2")
    if model.response_A.n_settings < n or model.response_B.n_settings < n:
        raise ValueError(
            f"witness needs at least {n} settings per party, model has "
            f"({model.response_A.n_settings}, {model.response_B.n_settings})"
        )
    if behavior is None:
        behavior = model._behavior
    faithful = witness_faithful(model.dist)
    # Per-point excesses |w| - w, computed once for every link: a {point: 0}
    # template in support order and the (point, excess) pairs whose excess
    # is not zero; only those points contribute a term.
    weights = model.dist.weights
    zeros = dict.fromkeys(model.dist.support, 0)
    negative = []
    for point in model.dist.support:
        w = weights[point]
        excess = abs(w) - w
        if excess != 0:
            negative.append((point, excess))
    table_a, table_b = model.response_A.table, model.response_B.table
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
            n_plus = n_minus = 0
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
            a_setting_bracket=x,
            a_setting_discriminant=a_disc,
            link=x,
        ))
    total = sum(term.selected for term in terms)
    return ChainedWitnessReport(terms=tuple(terms), total=total)
