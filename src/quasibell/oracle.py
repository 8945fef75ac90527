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

The LPs are solved with scipy's HiGHS backend and results are
deterministic for fixed inputs.  `min_negativity_lp` hands HiGHS all
2 * 4^n columns (u, v) of the signed strategy weights w = u - v.
`max_score_lp` is invariant under the chained score's dihedral group of 8n
relabellings, so HiGHS solves it over orbits of joint strategies, one
column pair per orbit (68 columns instead of 2048 at n = 5), and the
solution is expanded back to all 4^n strategies and checked against the
full program.  The per-n orbit program is built once; building it first
checks that each generator fixes every strategy's score and permutes the
behavior entries, and refuses to build otherwise.  Both LPs go through one
helper, `_solve`, which turns HiGHS presolve off: on programs this small
and dense it costs more than it saves (the measurement is in `_solve`'s
docstring).  Importing this module loads numpy only:
`scipy.optimize.linprog` is imported the first time the module attribute
`linprog` is read, which `_solve` does on every solve, so enumeration, the
classical bound, the quantum generator and the sampler never load scipy.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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

    `_solve` calls `sys.modules[__name__].linprog`, an attribute lookup, so
    it reaches this hook once and then runs whatever the attribute holds, a
    replacement set with `setattr` included.
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
    message, kept whatever the status, and `columns` the number of columns
    of the program HiGHS solved.  `primal_residual` is the largest violation
    of the full program's constraints, over all 4^n joint strategies, by the
    returned weights (for `min_negativity_lp`, max|B w - target|), or None
    unless OPTIMAL.  `negative_mass` is NaN unless OPTIMAL, and for
    `max_score_lp` with an infinite budget (see there).
    """

    optimal_score: float
    weights: dict[tuple[Strategy, Strategy], float]
    negative_mass: float
    status: LPStatus
    n_settings: int
    iterations: int
    solver_message: str
    primal_residual: float | None
    columns: int

    def to_json_dict(self) -> dict:
        """JSON fields; the score is null unless OPTIMAL, the mass wherever it is NaN."""
        optimal = self.status is LPStatus.OPTIMAL
        return {
            "optimal_score": self.optimal_score if optimal else None,
            "negative_mass": None if math.isnan(self.negative_mass) else self.negative_mass,
            "status": self.status.value,
            "n_settings": self.n_settings,
            "support_size": len(self.weights),
            "iterations": self.iterations,
            "solver_message": self.solver_message,
            "primal_residual": self.primal_residual,
            "columns": self.columns,
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
    """The 2^n x n matrix of +-1 strategies, rows in `enumerate_deterministic` order.

    Row s holds the bits of s, most significant first, with 0 -> -1 and
    1 -> +1: the encoding `_joint_index` reads back.
    """
    bits = 2 ** np.arange(n - 1, -1, -1)
    return np.where(np.arange(2**n)[:, None] & bits, 1.0, -1.0)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.cache
def _behavior_matrix(n: int) -> np.ndarray:
    """Rows: one per cell (x_a, x_b, y_a, y_b); columns: joint strategies, s_a major.

    Cached per n and read-only: both LPs build their programs from it.
    """
    outcomes = np.array([-1.0, 1.0])
    onehot = (_strategy_signs(n)[:, :, None] == outcomes).astype(np.float64)
    # onehot[s, x, k]: strategy s answers outcome k at setting x.
    grid = np.einsum("axp,bzq->xzpqab", onehot, onehot)
    return _read_only(grid.reshape(4 * n * n, 4**n))


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


def _chain_generators(n: int) -> list[np.ndarray]:
    """The relabellings that generate the chained score's symmetry group.

    Each is a permutation `perm` of the 4^n joint strategies (s_a major):
    strategy j is sent to strategy perm[j].  With joint strategies written
    as sign vectors (a, b):

    * the half-step rotation h: (a, b) -> (b, (a_1, ..., a_{n-1}, -a_0)),
      which moves every setting one link along the chain and flips the
      outcome that crosses the wrap term;
    * the reflection r: (a, b) -> (reversed b, reversed a), which swaps the
      parties and reverses the order of the settings.
    """
    signs = _strategy_signs(n)
    a = np.repeat(signs, 2**n, axis=0)
    b = np.tile(signs, (2**n, 1))
    wrapped = np.concatenate([a[:, 1:], -a[:, :1]], axis=1)
    return [_joint_index(b, wrapped), _joint_index(b[:, ::-1], a[:, ::-1])]


def _joint_index(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column index of each joint strategy (a[i], b[i]) in the s_a-major grid."""
    n = a.shape[1]
    bits = 2 ** np.arange(n - 1, -1, -1)
    return (a > 0) @ bits * 2**n + (b > 0) @ bits


class _Constraints(NamedTuple):
    """`a_eq x = b_eq` and, when `a_ub` is given, `a_ub x <= b_ub`."""

    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None

    def residual(self, x: np.ndarray) -> float:
        """Largest violation of these constraints by x."""
        residual = float(np.abs(self.a_eq @ x - self.b_eq).max())
        if self.a_ub is not None:
            residual = max(residual, float(np.max(self.a_ub @ x - self.b_ub, initial=0.0)))
        return residual


@dataclass(frozen=True)
class _ScoreProgram:
    """`max_score_lp`'s program at one n, over orbits and in full.

    `orbit_of[j]` is the orbit O of joint strategy j; the orbit program's
    columns are (u_O, v_O), with w_j = u_O - v_O.  Its `cost` is (-t, t),
    t_O being the summed score of O's strategies.  Its entry rows are the
    behavior rows summed over each orbit's columns, each distinct row kept
    once; its normalization row `a_eq` holds the orbit sizes |O|, and the
    last row of `a_ub` is the budget row, 8|O| on v_O.  `full_a_eq` and
    `full_a_ub` are the same constraints over all 2 * 4^n columns, against
    which the expanded weights are checked.  All arrays are read-only.
    `group_order` is the number of relabellings closed from
    `_chain_generators`.
    """

    orbit_of: np.ndarray
    cost: np.ndarray
    a_eq: np.ndarray
    a_ub: np.ndarray
    full_a_eq: np.ndarray
    full_a_ub: np.ndarray
    group_order: int

    def constraints(self, budget: float) -> tuple[_Constraints, _Constraints]:
        """The orbit program's and the full program's constraints at `budget`.

        An infinite budget drops the budget row, the last row of each `a_ub`.
        """
        keep = None if math.isfinite(budget) else -1
        programs = []
        for a_eq, a_ub in ((self.a_eq, self.a_ub), (self.full_a_eq, self.full_a_ub)):
            b_ub = np.zeros(len(a_ub))
            b_ub[-1] = budget
            programs.append(_Constraints(a_eq, np.array([1.0]), a_ub[:keep], b_ub[:keep]))
        return programs[0], programs[1]


def _distinct_rows(matrix: np.ndarray) -> dict[bytes, np.ndarray]:
    """Each distinct row of `matrix`, keyed by its bytes, in first-seen order."""
    return {row.tobytes(): row for row in matrix}


@functools.cache
def _score_program(n: int) -> _ScoreProgram:
    """Build `max_score_lp`'s orbit program, checking every generator first.

    Raises RuntimeError if a generator from `_chain_generators` changes the
    score of some joint strategy or does not permute the rows of the
    behavior matrix, since then orbit sums would not solve the same LP.
    """
    signs = _strategy_signs(n)
    scores = (signs @ _chain_coefficients(n) @ signs.T).ravel()
    behavior_matrix = _behavior_matrix(n)
    cells = _distinct_rows(behavior_matrix).keys()  # all 4n^2 rows are distinct
    generators = _chain_generators(n)
    for perm in generators:
        if not np.array_equal(scores[perm], scores):
            raise RuntimeError(f"relabelling does not fix the chained score at n={n}")
        if _distinct_rows(behavior_matrix[:, perm]).keys() != cells:
            raise RuntimeError(f"relabelling does not permute the behavior rows at n={n}")
    group = {}
    frontier = [np.arange(4**n)]
    while frontier:
        new = []
        for element in frontier:
            if element.tobytes() not in group:
                group[element.tobytes()] = element
                new.extend(element[perm] for perm in generators)
        frontier = new
    # An orbit is named by its smallest member.
    representatives = np.min(list(group.values()), axis=0)
    _, orbit_of = np.unique(representatives, return_inverse=True)
    order = np.argsort(orbit_of, kind="stable")
    starts = np.flatnonzero(np.diff(orbit_of[order], prepend=-1))
    summed = np.add.reduceat(behavior_matrix[:, order], starts, axis=1)
    rows = np.array(list(_distinct_rows(summed).values()))
    totals = np.bincount(orbit_of, weights=scores)
    sizes = np.bincount(orbit_of).astype(np.float64)
    return _ScoreProgram(
        orbit_of=_read_only(orbit_of),
        cost=_read_only(np.concatenate([-totals, totals])),
        a_eq=_read_only(_split_form(sizes[None, :])),
        a_ub=_read_only(_score_rows(rows, sizes)),
        full_a_eq=_read_only(_split_form(np.ones((1, 4**n)))),
        full_a_ub=_read_only(_score_rows(behavior_matrix, np.ones(4**n))),
        group_order=len(group),
    )


def _split_form(matrix: np.ndarray) -> np.ndarray:
    """[M, -M]: the rows of M applied to w = u - v."""
    return np.concatenate([matrix, -matrix], axis=1)


def _score_rows(entry_rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Entries >= 0 as -(E u - E v) <= 0, then the budget row 8 * sizes @ v."""
    budget_row = np.concatenate([np.zeros_like(sizes), 8.0 * sizes])
    return np.concatenate([-_split_form(entry_rows), budget_row[None, :]])


def _solve(
    n: int,
    cost: np.ndarray,
    program: _Constraints,
    full: _Constraints,
    expand: np.ndarray,
    score: float | None = None,
) -> LPResult:
    """Minimize `cost @ x` over x >= 0 subject to `program`, then expand x.

    `full` is the unreduced program over x = (u, v), the two halves of the
    signed weights w = u - v of all 4^n joint strategies; `x[expand]` is the
    solution written in its 2 * 4^n columns (`expand` is the identity when
    HiGHS solves `full` itself).  Weights, negative mass and
    `primal_residual` are read from the expanded solution, the residual
    against `full`.  The optimal score is `score` when given, else -cost @ x.

    HiGHS runs without presolve.  On these small dense programs presolve
    costs more than it saves: `max_score_lp(5, 0)` over all 4^n strategies
    took 30-38 ms with it (0 simplex iterations) and 19 ms without
    (3 iterations), and the 32 LPs of the n = 2..5 score and family grid
    took 0.54-0.61 of the time, on 2 cores.  Status and optimum are the same
    either way; at a degenerate optimum the weights may name another optimal
    vertex.
    """
    res = sys.modules[__name__].linprog(
        cost,
        A_ub=program.a_ub,
        b_ub=program.b_ub,
        A_eq=program.a_eq,
        b_eq=program.b_eq,
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )
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
            columns=len(cost),
        )
    x = res.x[expand]
    joint = list(itertools.product(enumerate_deterministic(n), repeat=2))  # s_a major
    m = len(joint)
    merged = x[:m] - x[m:]
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
        primal_residual=full.residual(x),
        columns=len(cost),
    )


def max_score_lp(n: int, negativity_budget: float = math.inf) -> LPResult:
    """Maximize the chained score over signed strategy mixtures.

    Weights are split into non-negative halves w = u - v to keep the program
    linear.  Constraints: total weight 1, every induced behavior entry >= 0
    (row normalization then forces entries <= 1), and the faithful-witness
    budget 8 * sum(v) <= negativity_budget when finite.  A NaN budget is
    refused.  HiGHS runs without presolve (see `_solve`).

    HiGHS solves the program over orbits of joint strategies under the
    chained score's symmetry group, the 8n relabellings that
    `_chain_generators` generates (see `_score_program`): one column pair
    (u_O, v_O) per orbit O, with w_j = u_O - v_O for every j in O.  That
    program has the same optimum.  Any relabelling g in the group fixes
    every strategy's score and permutes the behavior entries, so with w
    feasible, w composed with g is feasible with the same score: its entries
    and normalization are w's, permuted, and its negative mass sum max(-w, 0)
    is w's.  The group average of these feasible points is constant on
    orbits.  It has the same score and total weight, every entry is an
    average of non-negative entries, and its negative mass is at most w's,
    since sum max(-w, 0) is convex.  So some optimum is constant on orbits,
    and the orbit program attains it.  The reported weights are that
    symmetric solution, expanded to all 4^n strategies, and
    `primal_residual` is measured on the full 2 * 4^n-column program.

    With an infinite budget `negative_mass` is NaN (null in JSON): without a
    budget row every optimal vertex scores 2n, and which one HiGHS returns,
    not the LP, sets the mass.
    """
    if n < 2:
        raise ValueError("score maximization needs n >= 2")
    if n > _MAX_LP_SETTINGS:
        raise ValueError(f"LP oracle limited to n <= {_MAX_LP_SETTINGS}")
    if not negativity_budget >= 0:
        raise ValueError("negativity budget must be non-negative or infinite")
    program = _score_program(n)
    reduced, full = program.constraints(negativity_budget)
    k = len(program.cost) // 2
    expand = np.concatenate([program.orbit_of, k + program.orbit_of])
    result = _solve(n, program.cost, reduced, full, expand)
    if math.isinf(negativity_budget):
        result = dataclasses.replace(result, negative_mass=math.nan)
    return result


def min_negativity_lp(target: Behavior) -> LPResult:
    """Minimize negative mass among signed mixtures reproducing `target` exactly.

    Infeasible exactly when no signed mixture reproduces the target, i.e. when
    the target signals.  The reported optimal_score is the chained score the
    target itself achieves.  Note this answers "how little negative mass
    reproduces these statistics", which is related to but distinct from any
    witness value of a particular model.  HiGHS runs without presolve (see
    `_solve`) on the full 2 * 4^n-column program: a target need not share
    the chained score's symmetry, so orbits would not reproduce it.
    """
    if target.n_settings_A != target.n_settings_B:
        raise ValueError("the strategy grid needs equal setting counts")
    n = target.n_settings_A
    if n > _MAX_LP_SETTINGS:
        raise ValueError(f"LP oracle limited to n <= {_MAX_LP_SETTINGS}")
    m = 4**n
    behavior_matrix = _behavior_matrix(n)
    targets = []
    for x_a in range(n):
        for x_b in range(n):
            targets.extend(float(v) for v in target.table[(x_a, x_b)])
    program = _Constraints(_split_form(behavior_matrix), np.array(targets))
    cost = np.concatenate([np.zeros(m), np.ones(m)])  # minimize total v
    return _solve(n, cost, program, program, np.arange(2 * m), score=chained_score(target, n))


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


def signed_sample(
    model: Model, shots: int, seed: int, tolerance: float = DEFAULT_TOLERANCE
) -> SampleEstimate:
    """Estimate the behavior by sampling hidden values from |w| / sum|w|.

    Each draw carries weight sign(w) * sum|w|; averaging those signed
    indicators per cell gives an unbiased estimate of every behavior entry.
    Models whose assembled behavior is invalid at `tolerance` are refused,
    since their negative cells cannot be reproduced by any frequency
    estimate.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    exact = assemble_behavior(model, tolerance=tolerance)
    report = validate_behavior(exact, tolerance)
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
