"""Bell scores, per-hidden-value scores, and the witness-augmented bounds.

The chained n-setting score |E(0,0) - E(0,n-1) + sum_{x>=1} (E(x,x-1) + E(x,x))|
is CHSH at n=2.  All-positive mixtures keep it within 2n-2; signed weights
relax that by the chained witness, and `check_quasi_bell` evaluates score,
bound and margin at every chain length.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

from .core import (
    DEFAULT_TOLERANCE,
    Behavior,
    Model,
    Point,
    _check_chain_length,
    _check_tolerance,
    _row_correlation,
)
from .witnesses import ChainedWitnessReport, witness_chained


@dataclass(frozen=True)
class ScoreReport:
    """A Bell score against its witness-augmented bound.

    `bound` is `classical_part + witness_total`, `margin` is `bound - score` (zero when
    saturated), and `lambda_mixture_score` recomputes the score from the per-hidden-value
    scores as a cross-check.  `witness`, the chained report the total came from, is kept
    outside the fields, so reports compare, print and serialize by their figures."""

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
    """Chained n-setting score, summed as E(0,0) - E(0,n-1), then E(x,x-1) + E(x,x) for
    x = 1..n-1, so n=2 is CHSH term for term; a row that is the previous term's object
    reuses its correlator."""
    _check_chain_length("chained score", n, "behavior",
                        behavior.n_settings_A, behavior.n_settings_B)
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
    """<y>_x = P(+1) - P(-1) at settings x < n, one value object per run of one row object,
    so `_products` can see that two terms have the same factors."""
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
    """Score M(lambda) of one support point, or of a bare label in a diagonal model;
    |M(lambda)| <= 2n-2 because every factor is in [-1, 1]."""
    _check_chain_length("lambda-local score", n, "model",
                        model.response_A.n_settings, model.response_B.n_settings)
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

    `behavior` is the model's assembled behavior if the caller has it, else the model's
    default-tolerance one is read.  A negative, infinite or NaN `tol` raises ValueError."""
    _check_chain_length("bound check", n, "model",
                        model.response_A.n_settings, model.response_B.n_settings)
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
