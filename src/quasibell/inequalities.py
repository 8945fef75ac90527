"""Bell scores, per-hidden-value scores, and the witness-augmented bounds.

The chained n-setting score is

    |E(0, 0) - E(0, n-1) + sum_{x>=1} (E(x, x-1) + E(x, x))|.

Its first link, n=2, is the CHSH score |E(0,0) - E(0,1) + E(1,0) + E(1,1)|.
For an all-positive mixture the score is classically bounded by 2n-2.
Allowing signed weights relaxes the bound by the chained negativity witness,
and `check_quasi_bell` evaluates score, bound, and margin together at every
chain length, n=2 included.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

from .core import (
    DEFAULT_TOLERANCE,
    Behavior,
    Model,
    Point,
    _check_tolerance,
    _row_correlation,
)
from .witnesses import ChainedWitnessReport, witness_chained


@dataclass(frozen=True)
class ScoreReport:
    """A Bell score against its witness-augmented bound.

    `bound` is `classical_part + witness_total`; `margin` is the slack
    `bound - score` (zero for saturating models).  `lambda_mixture_score` is
    the same score recomputed as |sum_lambda M(lambda) w(lambda)| from the
    per-hidden-value scores, a cross-check that must agree with `score`.
    `witness` is the chained witness report `witness_total` was read from,
    when the report was built with one; it is kept outside the fields, so
    reports compare, print and serialize by their figures alone.
    """

    n: int
    score: object
    bound: object
    witness_total: object
    classical_part: object
    holds: bool
    margin: object
    lambda_mixture_score: object
    witness: InitVar[ChainedWitnessReport | None] = None

    def __post_init__(self, witness: ChainedWitnessReport | None) -> None:
        object.__setattr__(self, "witness", witness)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "score": float(self.score),
            "bound": float(self.bound),
            "witness": float(self.witness_total),
            "classical_part": float(self.classical_part),
            "holds": self.holds,
            "margin": float(self.margin),
            "lambda_mixture_score": float(self.lambda_mixture_score),
        }


def chained_score(behavior: Behavior, n: int):
    """Chained n-setting score, summed link by link.

    The terms are added in the order E(0,0) - E(0,n-1), then E(x,x-1) + E(x,x)
    for x = 1..n-1, so the n=2 instance is the CHSH expression term for term.
    A term whose row is the same object as the previous term's reuses that
    term's correlator, which has the same bits.
    """
    if n < 2:
        raise ValueError("chained score needs n >= 2")
    if behavior.n_settings_A < n or behavior.n_settings_B < n:
        raise ValueError(
            f"chained score with n={n} needs {n} settings per party, behavior has "
            f"({behavior.n_settings_A}, {behavior.n_settings_B})"
        )
    table = behavior.table
    rows = [table[(0, 0)], table[(0, n - 1)]]
    for x in range(1, n):
        rows += (table[(x, x - 1)], table[(x, x)])
    terms = []
    previous = None
    for row in rows:
        if row is not previous:
            value = _row_correlation(row)
            previous = row
        terms.append(value)
    total = terms[0] - terms[1]
    for value in terms[2:]:
        total += value
    return abs(total)


def _expectations(table, lam, n: int) -> list:
    """<y>_x = P(+1) - P(-1) at settings x < n, once per run of one row object.

    A run of settings that share one row shares one expectation object, so
    `_products` can see that two terms have the same factors.
    """
    values = []
    previous = None
    for x in range(n):
        row = table[(x, lam)]
        if row is not previous:
            minus, plus = row
            value = plus - minus
            previous = row
        values.append(value)
    return values


def _products(left, right) -> list:
    """left[i] * right[i] for each i, once per run of the same two factor objects."""
    values = []
    previous_left = previous_right = None
    for a, b in zip(left, right):
        if a is not previous_left or b is not previous_right:
            product = a * b
            previous_left, previous_right = a, b
        values.append(product)
    return values


def lambda_local_score(model: Model, lam, n: int):
    """Score M(lambda) the chained combination assigns to one hidden value.

    `lam` is a support point (lam_A, lam_B); for diagonal models a bare label
    is accepted.  |M(lambda)| <= 2n-2 because every factor is in [-1, 1].
    """
    if n < 2:
        raise ValueError("lambda-local score needs n >= 2")
    point: Point
    if isinstance(lam, tuple) and lam in model.dist.weights:
        point = lam
    elif (lam, lam) in model.dist.weights:
        point = (lam, lam)
    else:
        raise KeyError(f"hidden value {lam!r} not in the support")
    lam_a, lam_b = point
    exp_a = _expectations(model.response_A.table, lam_a, n)
    exp_b = _expectations(model.response_B.table, lam_b, n)
    total = sum(_products(exp_a, exp_b))
    total += sum(_products(exp_a[1:], exp_b))
    total -= exp_a[0] * exp_b[n - 1]
    return total


def mixture_score(model: Model, n: int):
    """|sum_lambda M(lambda) w(lambda)|; equals the chained score of the behavior."""
    total = sum(
        lambda_local_score(model, point, n) * model.dist.weights[point]
        for point in model.dist.support
    )
    return abs(total)


def check_quasi_bell(
    model: Model,
    n: int,
    tol: float = DEFAULT_TOLERANCE,
    behavior: Behavior | None = None,
) -> ScoreReport:
    """Evaluate score <= (2n-2) + witness for a model at chain length n.

    Every chain length, n=2 included, uses the chained score and witness.
    `behavior` is the model's assembled behavior, if the caller already has
    it; otherwise the model's own default-tolerance behavior is read, which
    is built once per model and never handed out.  A `tol` that is
    negative, infinite or NaN is refused with ValueError.
    """
    if n < 2:
        raise ValueError("bound check needs n >= 2")
    _check_tolerance(tol)
    if behavior is None:
        behavior = model._behavior
    score = chained_score(behavior, n)
    witness = witness_chained(model, n, behavior)
    witness_total = witness.total
    classical_part = 2 * n - 2
    bound = classical_part + witness_total
    margin = bound - score
    return ScoreReport(
        n=n,
        score=score,
        bound=bound,
        witness_total=witness_total,
        classical_part=classical_part,
        holds=score <= bound + tol,
        margin=margin,
        lambda_mixture_score=mixture_score(model, n),
        witness=witness,
    )
