"""Independent verification machinery for the witness-augmented Bell bounds.

Four separate routes that never share code with the model/witness path:

* enumeration of deterministic strategies (classical polytope vertices)
  and the classical bound, maximized exactly over all joint strategies:
  for each of Alice's strategies Bob's best reply separates over his
  settings, so the maximum costs O(2^n * n^2) rather than O(4^n * n),
* linear programs over signed strategy mixtures (maximal score under a
  faithful-witness budget, and minimal negative mass reproducing a target
  behavior),
* a two-qubit projective-measurement generator for quantum reference
  behaviors,
* a sign-weighted Monte Carlo sampler demonstrating that signed mixtures
  still produce ordinary observable statistics.

The LPs are solved with scipy's HiGHS backend; programs stay tiny (at most
2 * 4^n variables) and results are deterministic for fixed inputs.  Importing
this module loads numpy only: `scipy.optimize.linprog` is imported the first
time the module attribute `linprog` is read, which the LP functions do on
every solve, so enumeration, the classical bound, the quantum generator and
the sampler never load scipy.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    OUTCOME_PAIRS,
    Behavior,
    Model,
    assemble_behavior,
    validate_behavior,
)
from .inequalities import chained_score

Strategy = tuple[int, ...]

_MAX_ENUMERATION_SETTINGS = 16
_MAX_BRUTEFORCE_SETTINGS = 12
_MAX_LP_SETTINGS = 5


class LPStatus(str, Enum):
    OPTIMAL = "OPTIMAL"
    INFEASIBLE = "INFEASIBLE"
    UNBOUNDED = "UNBOUNDED"
    FAILED = "FAILED"


_LINPROG_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}


def __getattr__(name: str):
    """Serve `linprog`, importing scipy's on first use and keeping it in the globals.

    The LP functions call `sys.modules[__name__].linprog`, an attribute
    lookup, so they reach this hook once and then run whatever the attribute
    holds, a replacement set with `setattr` included.
    """
    if name == "linprog":
        from scipy.optimize import linprog

        globals()["linprog"] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class LPResult:
    """Solution of one of the strategy-mixture linear programs.

    `iterations` and `solver_message` are HiGHS's iteration count and
    message, kept whatever the status.  `primal_residual` is the largest
    violation of the program's constraints by the returned weights (for
    `min_negativity_lp`, max|B w - target|), or None unless OPTIMAL.
    """

    optimal_score: float
    weights: dict[tuple[Strategy, Strategy], float]
    negative_mass: float
    status: LPStatus
    n_settings: int
    iterations: int
    solver_message: str
    primal_residual: float | None

    def to_json_dict(self) -> dict:
        """JSON fields; the score and the mass are null unless the status is OPTIMAL."""
        optimal = self.status is LPStatus.OPTIMAL
        return {
            "optimal_score": self.optimal_score if optimal else None,
            "negative_mass": self.negative_mass if optimal else None,
            "status": self.status.value,
            "n_settings": self.n_settings,
            "support_size": len(self.weights),
            "iterations": self.iterations,
            "solver_message": self.solver_message,
            "primal_residual": self.primal_residual,
        }


@dataclass(frozen=True)
class SampleEstimate:
    """Empirical behavior estimated by sign-weighted sampling.

    Noise scales with the total variation weight: per-shot estimates take
    values in {-S, 0, +S} with S = sum |w|, so per-cell standard errors are
    at most S / sqrt(shots).  `effective_shots = shots / S**2` is the number
    of unsigned shots with that error bound.
    """

    shots: int
    seed: int
    empirical_behavior: Behavior
    standard_errors: dict[tuple[int, int, int], float]
    total_variation_weight: float
    effective_shots: float

    def to_json_dict(self) -> dict:
        rows = {}
        errs = {}
        for (xa, xb), row in sorted(self.empirical_behavior.table.items()):
            rows[f"{xa},{xb}"] = [float(v) for v in row]
            errs[f"{xa},{xb}"] = [
                self.standard_errors[(xa, xb, k)] for k in range(4)
            ]
        return {
            "shots": self.shots,
            "seed": self.seed,
            "total_variation_weight": self.total_variation_weight,
            "effective_shots": self.effective_shots,
            "behavior": rows,
            "standard_errors": errs,
        }


def enumerate_deterministic(n: int) -> tuple[Strategy, ...]:
    """All 2^n single-party deterministic strategies as +-1 outcome tuples.

    Joint strategies are pairs of these; the same list serves both parties.
    """
    if n < 1:
        raise ValueError("need at least one setting")
    if n > _MAX_ENUMERATION_SETTINGS:
        raise ValueError(f"enumeration limited to n <= {_MAX_ENUMERATION_SETTINGS}")
    return tuple(itertools.product((-1, +1), repeat=n))


def _chain_coefficients(n: int) -> np.ndarray:
    """Matrix C with strategy score M(a, b) = a @ C @ b for sign vectors a, b."""
    coeff = np.zeros((n, n))
    for i in range(n):
        coeff[i, i] += 1.0
    for i in range(1, n):
        coeff[i, i - 1] += 1.0
    coeff[0, n - 1] -= 1.0
    return coeff


def classical_bound_bruteforce(n: int) -> float:
    """Maximum |chained score| over all joint deterministic strategies.

    The score of a pair is the bilinear form a @ C @ b.  For a fixed Alice
    strategy a, Bob's best reply separates over his settings: b_j =
    sign((a C)_j), or its negation for the most negative score, gives
    max_b |a C b| = ||a C||_1.  Maximizing that over Alice's 2^n strategies
    is therefore the exact maximum over all 4^n pairs, at O(2^n * n^2) cost
    and O(2^n * n) memory.  The result is the classical bound 2n-2, but it
    is computed, not assumed.
    """
    if n < 2:
        raise ValueError("chained score needs n >= 2")
    if n > _MAX_BRUTEFORCE_SETTINGS:
        raise ValueError(f"brute force limited to n <= {_MAX_BRUTEFORCE_SETTINGS}")
    best_replies = np.abs(_strategy_signs(n) @ _chain_coefficients(n)).sum(axis=1)
    return float(best_replies.max())


def _strategy_signs(n: int) -> np.ndarray:
    """The 2^n x n matrix of +-1 strategies, rows in `enumerate_deterministic` order."""
    return np.array(enumerate_deterministic(n), dtype=np.float64)


def _behavior_matrix(n: int) -> np.ndarray:
    """Rows: one per cell (x_a, x_b, y_a, y_b); columns: joint strategies, s_a major."""
    outcomes = np.array([-1.0, 1.0])
    onehot = (_strategy_signs(n)[:, :, None] == outcomes).astype(np.float64)
    # onehot[s, x, k]: strategy s answers outcome k at setting x.
    grid = np.einsum("axp,bzq->xzpqab", onehot, onehot)
    return grid.reshape(4 * n * n, 4**n)


def _joint_strategies(n: int) -> list[tuple[Strategy, Strategy]]:
    strategies = enumerate_deterministic(n)
    return [(sa, sb) for sa in strategies for sb in strategies]


def behavior_from_strategy_weights(
    n: int,
    weights: dict[tuple[Strategy, Strategy], float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Behavior:
    """Assemble the behavior induced by signed weights on joint strategies."""
    table: dict[tuple[int, int], tuple] = {}
    for x_a in range(n):
        for x_b in range(n):
            row = [0.0, 0.0, 0.0, 0.0]
            for (sa, sb), w in weights.items():
                idx = 2 * (sa[x_a] == +1) + (sb[x_b] == +1)
                row[idx] += w
            table[(x_a, x_b)] = tuple(row)
    return Behavior(n_settings_A=n, n_settings_B=n, table=table, tolerance=tolerance)


def _lp_result(
    res, joint, n: int, a_eq, b_eq, a_ub=None, b_ub=None, score: float | None = None
) -> LPResult:
    """The LPResult of `res`, solved with the constraints `a_eq x = b_eq`, `a_ub x <= b_ub`."""
    status = _LINPROG_STATUS.get(res.status, LPStatus.FAILED)
    iterations, message = int(res.nit), str(res.message)
    if status is not LPStatus.OPTIMAL:
        return LPResult(
            optimal_score=math.nan,
            weights={},
            negative_mass=math.nan,
            status=status,
            n_settings=n,
            iterations=iterations,
            solver_message=message,
            primal_residual=None,
        )
    residual = float(np.abs(a_eq @ res.x - b_eq).max())
    if a_ub is not None:
        residual = max(residual, float(np.max(a_ub @ res.x - b_ub, initial=0.0)))
    m = len(joint)
    merged = res.x[:m] - res.x[m:]
    weights = {joint[j]: float(merged[j]) for j in np.flatnonzero(np.abs(merged) > 1e-12)}
    negative_mass = float(sum(-w for w in merged if w < 0))
    return LPResult(
        optimal_score=float(score) if score is not None else float(-res.fun),
        weights=weights,
        negative_mass=negative_mass,
        status=status,
        n_settings=n,
        iterations=iterations,
        solver_message=message,
        primal_residual=residual,
    )


def max_score_lp(n: int, negativity_budget: float = math.inf) -> LPResult:
    """Maximize the chained score over signed strategy mixtures.

    Weights are split into non-negative halves w = u - v to keep the program
    linear.  Constraints: total weight 1, every induced behavior entry >= 0
    (row normalization then forces entries <= 1), and the faithful-witness
    budget 8 * sum(v) <= negativity_budget when finite.
    """
    if n < 2:
        raise ValueError("score maximization needs n >= 2")
    if n > _MAX_LP_SETTINGS:
        raise ValueError(f"LP oracle limited to n <= {_MAX_LP_SETTINGS}")
    if negativity_budget < 0:
        raise ValueError("negativity budget must be non-negative or infinite")
    joint = _joint_strategies(n)
    m = len(joint)
    signs = _strategy_signs(n)
    scores = (signs @ _chain_coefficients(n) @ signs.T).ravel()
    cost = np.concatenate([-scores, scores])  # maximize scores @ (u - v)

    behavior_matrix = _behavior_matrix(n)
    # Entries >= 0: -(B_u - B_v) <= 0.
    a_ub = [np.concatenate([-behavior_matrix, behavior_matrix], axis=1)]
    b_ub = [np.zeros(behavior_matrix.shape[0])]
    if math.isfinite(negativity_budget):
        budget_row = np.concatenate([np.zeros(m), 8.0 * np.ones(m)])
        a_ub.append(budget_row[None, :])
        b_ub.append(np.array([negativity_budget]))
    a_ub, b_ub = np.concatenate(a_ub, axis=0), np.concatenate(b_ub)
    a_eq, b_eq = np.concatenate([np.ones(m), -np.ones(m)])[None, :], np.array([1.0])
    res = sys.modules[__name__].linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    return _lp_result(res, joint, n, a_eq, b_eq, a_ub, b_ub)


def min_negativity_lp(target: Behavior) -> LPResult:
    """Minimize negative mass among signed mixtures reproducing `target` exactly.

    Infeasible exactly when no signed mixture reproduces the target, i.e. when
    the target signals.  The reported optimal_score is the chained score the
    target itself achieves.  Note this answers "how little negative mass
    reproduces these statistics", which is related to but distinct from any
    witness value of a particular model.
    """
    if target.n_settings_A != target.n_settings_B:
        raise ValueError("the strategy grid needs equal setting counts")
    n = target.n_settings_A
    if n > _MAX_LP_SETTINGS:
        raise ValueError(f"LP oracle limited to n <= {_MAX_LP_SETTINGS}")
    joint = _joint_strategies(n)
    m = len(joint)
    behavior_matrix = _behavior_matrix(n)
    targets = []
    for x_a in range(n):
        for x_b in range(n):
            targets.extend(float(v) for v in target.table[(x_a, x_b)])
    a_eq = np.concatenate([behavior_matrix, -behavior_matrix], axis=1)
    b_eq = np.array(targets)
    cost = np.concatenate([np.zeros(m), np.ones(m)])  # minimize total v
    res = sys.modules[__name__].linprog(
        cost,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    score = chained_score(target, n) if res.status == 0 else None
    return _lp_result(res, joint, n, a_eq, b_eq, score=score)


def _projector(angle: float, outcome: int) -> np.ndarray:
    """Rank-1 projector onto the +-1 eigenspace of cos(t) Z + sin(t) X."""
    observable = np.array(
        [[math.cos(angle), math.sin(angle)], [math.sin(angle), -math.cos(angle)]]
    )
    return (np.eye(2) + outcome * observable) / 2.0


def singlet_state() -> np.ndarray:
    """Density matrix of the two-qubit singlet (|01> - |10>) / sqrt(2)."""
    ket = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return np.outer(ket, ket)


def quantum_behavior(
    state: np.ndarray,
    angles_A,
    angles_B,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Behavior:
    """Two-qubit behavior from projective measurements in the X-Z plane.

    `state` is a 4x4 density matrix; each party's settings are measurement
    angles (radians) of the observable cos(t) Z + sin(t) X.  The result is
    valid and no-signalling by construction (up to roundoff).
    """
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("state must be a 4x4 density matrix")
    scale = max(1e-7, tolerance)
    if not np.allclose(rho, rho.conj().T, atol=scale):
        raise ValueError("state must be Hermitian")
    eigenvalues = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if eigenvalues.min() < -scale:
        raise ValueError(f"state must be positive semidefinite (min eigenvalue {eigenvalues.min():.3e})")
    if abs(np.trace(rho).real - 1.0) > scale:
        raise ValueError("state must have unit trace")
    angles_a = [float(t) for t in angles_A]
    angles_b = [float(t) for t in angles_B]
    if not angles_a or not angles_b:
        raise ValueError("each party needs at least one measurement angle")
    table: dict[tuple[int, int], tuple] = {}
    for x_a, t_a in enumerate(angles_a):
        for x_b, t_b in enumerate(angles_b):
            row = []
            for (y_a, y_b) in OUTCOME_PAIRS:
                op = np.kron(_projector(t_a, y_a), _projector(t_b, y_b))
                row.append(float(np.trace(op @ rho).real))
            table[(x_a, x_b)] = tuple(row)
    return Behavior(
        n_settings_A=len(angles_a),
        n_settings_B=len(angles_b),
        table=table,
        tolerance=max(tolerance, 1e-12),
    )


def signed_sample(model: Model, shots: int, seed: int) -> SampleEstimate:
    """Estimate the behavior by sampling hidden values from |w| / sum|w|.

    Each draw carries weight sign(w) * sum|w|; averaging those signed
    indicators per cell gives an unbiased estimate of every behavior entry.
    Models whose assembled behavior is invalid are refused, since their
    negative cells cannot be reproduced by any frequency estimate.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    exact = assemble_behavior(model)
    report = validate_behavior(exact, DEFAULT_TOLERANCE)
    if not report.is_valid:
        raise ValueError(
            "model assembles to an invalid behavior "
            f"(worst entry {report.worst_entry[2]!r}); sampling is undefined"
        )
    points = list(model.dist.support)
    weights = np.array([float(model.dist.weights[p]) for p in points])
    total_variation = float(np.sum(np.abs(weights)))
    probabilities = np.abs(weights) / total_variation
    signs = np.sign(weights)
    signs[signs == 0] = 1.0

    rng = np.random.default_rng(seed)
    n_a = model.response_A.n_settings
    n_b = model.response_B.n_settings
    plus_a = np.empty((n_a, len(points)))
    plus_b = np.empty((n_b, len(points)))
    for j, (lam_a, lam_b) in enumerate(points):
        for x_a in range(n_a):
            plus_a[x_a, j] = float(model.response_A.table[(x_a, lam_a)][1])
        for x_b in range(n_b):
            plus_b[x_b, j] = float(model.response_B.table[(x_b, lam_b)][1])

    table: dict[tuple[int, int], tuple] = {}
    standard_errors: dict[tuple[int, int, int], float] = {}
    for x_a in range(n_a):
        for x_b in range(n_b):
            lam_idx = rng.choice(len(points), size=shots, p=probabilities)
            draw_signs = signs[lam_idx]
            y_a_plus = rng.random(shots) < plus_a[x_a, lam_idx]
            y_b_plus = rng.random(shots) < plus_b[x_b, lam_idx]
            cell_idx = 2 * y_a_plus.astype(np.int64) + y_b_plus.astype(np.int64)
            signed_counts = np.bincount(cell_idx, weights=draw_signs, minlength=4)
            counts = np.bincount(cell_idx, minlength=4)
            row = []
            for k in range(4):
                mean = total_variation * float(signed_counts[k]) / shots
                abs_fraction = float(counts[k]) / shots
                variance = max(total_variation**2 * abs_fraction - mean**2, 0.0)
                row.append(mean)
                standard_errors[(x_a, x_b, k)] = math.sqrt(variance / shots)
            table[(x_a, x_b)] = tuple(row)
    empirical = Behavior(
        n_settings_A=n_a,
        n_settings_B=n_b,
        table=table,
        tolerance=total_variation + 1.0,
    )
    return SampleEstimate(
        shots=shots,
        seed=seed,
        empirical_behavior=empirical,
        standard_errors=standard_errors,
        total_variation_weight=total_variation,
        effective_shots=shots / total_variation**2,
    )
