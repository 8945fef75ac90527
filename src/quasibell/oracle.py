"""Independent oracles for the witness-augmented Bell bounds.

Four routes that share no code with the model and witness path: enumeration
of deterministic strategies and the exact classical bound; LPs over signed
strategy mixtures, the largest chained score under a faithful-witness budget
(`max_score_lp`) and the least negative mass reproducing a behavior
(`min_negativity_lp`), both `_OrbitProgram`s solved by `_solve` on HiGHS;
a two-qubit measurement generator; and a sign-weighted sampler.  Importing
this module loads numpy only; the first solve loads scipy's HiGHS binding
alone (`_highs_binding`).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    OUTCOME_PAIRS,
    Behavior,
    LocalResponse,
    Model,
    ValidityReport,
    _floats,
    assemble_behavior,
    validate_behavior,
)
from .inequalities import chained_score

Strategy = tuple[int, ...]

_MAX_ENUMERATION_SETTINGS = 16
_MAX_BRUTEFORCE_SETTINGS = 12
_MAX_LP_SETTINGS = 5
#: Largest max|M t_R - t| of a target that `min_negativity_lp` takes as
#: no-signalling, and largest max|t[rows[g]] - t| for which relabelling g fixes it.
_BASIS_SLACK = 1e-9


class LPStatus(str, Enum):
    OPTIMAL = "OPTIMAL"
    INFEASIBLE = "INFEASIBLE"
    UNBOUNDED = "UNBOUNDED"
    FAILED = "FAILED"


_LINPROG_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}

#: `linprog`'s status for each HiGHS model status: 0 for kOptimal (7), 2 for
#: kInfeasible (8), 3 for kUnbounded (10), and 4 for every other.
_HIGHS_STATUS = {7: 0, 8: 2, 10: 3}

#: Largest `primal_residual` of an OPTIMAL answer; a larger one is FAILED.  It
#: is above HiGHS's primal feasibility tolerance of 1e-7, within which an
#: optimum may miss its rows.
_MAX_RESIDUAL = 1e-6


#: The options `scipy.optimize.linprog(method="highs")` sets, presolve off.
#: Presolve is fixed because it moves the answer: at a degenerate optimum it
#: may name another optimal vertex, and on a program infeasible by about the
#: 1e-7 feasibility tolerance it may flip OPTIMAL and INFEASIBLE.
_HIGHS_OPTIONS = (
    ("highs_debug_level", 0),
    ("log_to_console", False),
    ("output_flag", False),
    ("presolve", "off"),
    ("simplex_strategy", 1),
)

#: Holds `_highs_solver`'s HiGHS instance, one per thread, as `solver`.
_THREAD_HIGHS = threading.local()

#: The full name of scipy's HiGHS binding, the module `scipy.optimize.linprog` runs.
_HIGHS_BINDING = "scipy.optimize._highspy._core"
#: Held while `_highs_binding` loads the binding, so that threads load it once.
_BINDING_LOCK = threading.Lock()


def _highs_binding():
    """scipy's HiGHS binding, `scipy.optimize._highspy._core`, loaded without `scipy.optimize`.

    Returns the registered module, or loads it from scipy's `optimize/_highspy`
    folder, found without importing `scipy`, and registers it under its full
    name, so `scipy.optimize` would get the same module.  Raises
    ModuleNotFoundError without scipy, and ImportError naming the folder
    without the binding, registering nothing.
    """
    binding = sys.modules.get(_HIGHS_BINDING)
    if binding is not None:
        return binding
    with _BINDING_LOCK:
        binding = sys.modules.get(_HIGHS_BINDING)
        if binding is None:
            scipy = importlib.util.find_spec("scipy")
            if scipy is None:
                raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
            folder = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
            found = importlib.machinery.PathFinder.find_spec("_core", [folder])
            if found is None or found.origin is None:
                raise ImportError(f"scipy's HiGHS binding _core is not in {folder}",
                                  name=_HIGHS_BINDING)
            spec = importlib.util.spec_from_file_location(_HIGHS_BINDING, found.origin)
            binding = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(binding)
            sys.modules[_HIGHS_BINDING] = binding
    return binding


class _HighsResult(NamedTuple):
    """What `linprog` reports of a solve; `x` and `fun` are None unless HiGHS found an optimum."""

    status: int
    x: np.ndarray | None
    fun: float | None
    nit: int
    message: str


class _HighsModel(NamedTuple):
    """A program in the column-wise form HiGHS's `passModel` takes, read-only: minimize
    `cost @ x`, x >= 0, within row bounds given per solve.  The nonzeros are held as in
    `scipy.sparse.csc_array`; `integrality` is all zero, since HiGHS refuses an empty one."""

    cost: np.ndarray
    rows: int
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray


def _highs_model(cost: np.ndarray, matrix: np.ndarray) -> _HighsModel:
    """The `_HighsModel` of minimizing `cost @ x` subject to the rows of the dense `matrix`."""
    cost = np.asarray(cost, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    columns, rows = np.nonzero(matrix.T)
    return _HighsModel(
        cost=_read_only(cost),
        rows=len(matrix),
        start=_read_only(np.searchsorted(columns, np.arange(len(cost) + 1)).astype(np.int32)),
        index=_read_only(rows.astype(np.int32)),
        value=_read_only(matrix[rows, columns]),
        lower=_read_only(np.zeros(len(cost))),
        upper=_read_only(np.full(len(cost), math.inf)),
        integrality=_read_only(np.zeros(len(cost), dtype=np.int32)),
    )


def linprog(model: _HighsModel, row_lower: np.ndarray, row_upper: np.ndarray) -> _HighsResult:
    """Solve `model` within the row bounds on this thread's HiGHS instance.

    Minimizes `model.cost @ x` over x >= 0 with `row_lower <= A x <= row_upper`,
    one float64 per row in each bound (ValueError otherwise).  Binding, model
    and options are `scipy.optimize.linprog(method="highs")`'s, presolve off
    (`_HIGHS_OPTIONS`), so `x`, `fun` and `nit` are its.  `status` maps HiGHS's
    model status by `_HIGHS_STATUS`; `message` names it and, off OPTIMAL, the
    primal solution status.  Each solve starts from a fresh instance's state.
    """
    highs = _highs_binding()
    if not len(row_lower) == len(row_upper) == model.rows:
        raise ValueError(
            f"row bounds of {len(row_lower)} and {len(row_upper)} entries "
            f"for a model of {model.rows} rows"
        )
    solver = _highs_solver()
    solver.clearSolver()
    x = fun = message = None
    nit = 0
    passed = solver.passModel(
        len(model.cost), model.rows, len(model.index),
        int(highs.MatrixFormat.kColwise), int(highs.ObjSense.kMinimize), 0.0,
        model.cost, model.lower, model.upper, row_lower, row_upper,
        model.start, model.index, model.value, model.integrality,
    )
    if passed == highs.HighsStatus.kError:
        model_status = highs.HighsModelStatus.kModelError
    elif solver.run() == highs.HighsStatus.kError:
        model_status = solver.getModelStatus()
    else:
        model_status = solver.getModelStatus()
        info = solver.getInfo()
        nit = info.simplex_iteration_count
        if model_status == highs.HighsModelStatus.kOptimal:
            x, fun = np.array(solver.getSolution().col_value), solver.getObjectiveValue()
        else:
            message = (
                f"model_status is {solver.modelStatusToString(model_status)}; "
                f"primal_status is {solver.solutionStatusToString(info.primal_solution_status)}"
            )
    status = _HIGHS_STATUS.get(int(model_status), 4)
    return _HighsResult(status, x, fun, nit, message or solver.modelStatusToString(model_status))


def _highs_solver():
    """This thread's HiGHS instance, kept only once it accepts every option in `_HIGHS_OPTIONS`,
    so a refused option raises RuntimeError on every solve."""
    solver = getattr(_THREAD_HIGHS, "solver", None)
    if solver is None:
        highs = _highs_binding()
        solver = highs._Highs()
        for name, value in _HIGHS_OPTIONS:
            if solver.setOptionValue(name, value) != highs.HighsStatus.kOk:
                raise RuntimeError(f"HiGHS refused option {name!r} = {value!r}")
        _THREAD_HIGHS.solver = solver
    return solver


class _StrategyWeights(Mapping):
    """`LPResult.weights`: each joint strategy's weight in w = w_O[orbit_of] above 1e-12 in
    absolute value, a read-only mapping in strategy order, expanded on first read and equal
    to its dict; empty without an orbit solution."""

    __slots__ = ("_n", "_w_orbits", "_orbit_of", "_items")

    def __init__(self, n: int, w_orbits: np.ndarray | None = None,
                 orbit_of: np.ndarray | None = None) -> None:
        self._n, self._w_orbits, self._orbit_of = n, w_orbits, orbit_of
        self._items = {} if w_orbits is None else None

    def _dict(self) -> dict[tuple[Strategy, Strategy], float]:
        if self._items is None:
            joint = _joint_strategies(self._n)
            w = self._w_orbits[self._orbit_of]
            support = (np.abs(w) > 1e-12).nonzero()[0]
            self._items = dict(zip([joint[j] for j in support.tolist()], w[support].tolist()))
        return self._items

    def __getitem__(self, key: tuple[Strategy, Strategy]) -> float:
        return self._dict()[key]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self._dict())

    def __repr__(self) -> str:
        return repr(self._dict())


@dataclass(frozen=True)
class LPResult:
    """Solution of one of the strategy-mixture linear programs.

    `iterations` and `solver_message` are HiGHS's (`linprog`), whatever the
    status; `columns` and `rows` size the program solved, all three 0 when
    `min_negativity_lp`'s target signals.  `weights` is the symmetric optimum
    (`_StrategyWeights`), and `primal_residual` its largest constraint
    violation; above `_MAX_RESIDUAL` the status is FAILED.  Without a solution
    the weights are empty, the residual None and `negative_mass` NaN, as is
    `max_score_lp`'s mass at an infinite budget.
    """

    optimal_score: float
    weights: Mapping[tuple[Strategy, Strategy], float]
    negative_mass: float
    status: LPStatus
    n_settings: int
    iterations: int
    solver_message: str
    primal_residual: float | None
    columns: int
    rows: int

    def to_json_dict(self) -> dict:
        """JSON fields; the score is null unless OPTIMAL, the mass and residual wherever NaN."""
        optimal = self.status is LPStatus.OPTIMAL
        residual = self.primal_residual
        return {
            "optimal_score": self.optimal_score if optimal else None,
            "negative_mass": None if math.isnan(self.negative_mass) else self.negative_mass,
            "status": self.status.value,
            "n_settings": self.n_settings,
            "support_size": len(self.weights),
            "iterations": self.iterations,
            "solver_message": self.solver_message,
            "primal_residual": None if residual is None or math.isnan(residual) else residual,
            "columns": self.columns,
            "rows": self.rows,
        }


@dataclass(frozen=True)
class SampleEstimate:
    """Empirical behavior estimated by sign-weighted sampling.

    Per-shot estimates lie in {-S, 0, +S}, S = sum |w|, so each standard error
    is at most S / sqrt(shots), the bound of `effective_shots = shots / S**2`
    unsigned shots.  `seed` fixes the estimate for a given numpy version.
    """

    shots: int
    seed: int
    empirical_behavior: Behavior
    standard_errors: dict[tuple[int, int, int], float]
    total_variation_weight: float
    effective_shots: float

    def to_json_dict(self) -> dict:
        errs = {
            f"{xa},{xb}": [self.standard_errors[(xa, xb, k)] for k in range(4)]
            for xa, xb in self.empirical_behavior.setting_pairs()
        }
        return {
            "shots": self.shots,
            "seed": self.seed,
            "total_variation_weight": self.total_variation_weight,
            "effective_shots": self.effective_shots,
            "behavior": self.empirical_behavior.to_json_dict(),
            "standard_errors": errs,
        }


def _check_chain_length(name: str, n: int, limited: str, cap: int) -> None:
    """Refuse a chain length n below 2, naming `name`, or above `cap`, naming `limited`."""
    if n < 2:
        raise ValueError(f"{name} needs n >= 2")
    if n > cap:
        raise ValueError(f"{limited} limited to n <= {cap}")


def enumerate_deterministic(n: int) -> tuple[Strategy, ...]:
    """All 2^n single-party deterministic strategies as +-1 outcome tuples, for either party."""
    if n < 1:
        raise ValueError("need at least one setting")
    if n > _MAX_ENUMERATION_SETTINGS:
        raise ValueError(f"enumeration limited to n <= {_MAX_ENUMERATION_SETTINGS}")
    return tuple(itertools.product((-1, +1), repeat=n))


@functools.cache
def _chain_coefficients(n: int) -> np.ndarray:
    """Matrix C with strategy score M(a, b) = a @ C @ b for sign vectors a, b; cached, read-only."""
    coeff = np.zeros((n, n))
    for i in range(n):
        coeff[i, i] += 1.0
    for i in range(1, n):
        coeff[i, i - 1] += 1.0
    coeff[0, n - 1] -= 1.0
    return _read_only(coeff)


def classical_bound_bruteforce(n: int) -> float:
    """Maximum |chained score| over all joint deterministic strategies.

    The score of a pair is a @ C @ b.  For fixed a, Bob's best reply separates
    over his settings, b_j = +-sign((a C)_j), so max_b |a C b| = ||a C||_1,
    exact on these integers, and its maximum over Alice's 2^n strategies is the
    maximum over all 4^n pairs: the classical bound 2n-2, computed, not assumed.
    """
    _check_chain_length("chained score", n, "brute force", _MAX_BRUTEFORCE_SETTINGS)
    best_replies = np.abs(_strategy_signs(n) @ _chain_coefficients(n)) @ np.ones(n)
    return float(best_replies.max())


@functools.cache
def _strategy_signs(n: int) -> np.ndarray:
    """The 2^n x n matrix of +-1 strategies in `enumerate_deterministic` order, cached, read-only:
    row s holds s's bits, most significant first, 0 -> -1 and 1 -> +1 (`_joint_index`)."""
    bits = 2 ** np.arange(n - 1, -1, -1)
    return _read_only(np.where(np.arange(2**n)[:, None] & bits, 1.0, -1.0))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.cache
def _behavior_matrix(n: int) -> np.ndarray:
    """The cached, read-only 0/1 matrix B: a row per cell (x_a, x_b, y_a, y_b) and a column
    per joint strategy, s_a major."""
    outcomes = np.array([-1.0, 1.0])
    onehot = (_strategy_signs(n)[:, :, None] == outcomes).astype(np.float64)
    # onehot[s, x, k]: strategy s answers outcome k at setting x.
    grid = np.einsum("axp,bzq->xzpqab", onehot, onehot)
    return _read_only(grid.reshape(4 * n * n, 4**n))


class _BehaviorBasis(NamedTuple):
    """`min_negativity_lp`'s row basis: `rows` picks (n+1)^2 cells whose rows B_R span the
    behavior rows B, and `expand` is the integer M with B = M @ B_R, as C-contiguous float64."""

    rows: np.ndarray
    expand: np.ndarray


@functools.cache
def _behavior_basis(n: int) -> _BehaviorBasis:
    """Build `min_negativity_lp`'s row basis, checking B = M @ B_R exactly.

    The rows are the Collins-Gisin coordinates (Collins and Gisin, J. Phys. A
    37, 1775, 2004) as cells (x_a, x_b, y_a, y_b): every (x_a, x_b, +, +),
    then (x_a, 0, +, -), (0, x_b, -, +) and (0, 0, -, -).  On every joint
    strategy each other cell is an integer combination of these, through the
    marginals and normalization.  B_R has full row rank, so M solves
    M (B_R B_R^T) = B B_R^T, rounded to integers; the exact check, which raises
    RuntimeError when it fails, is what makes it M.
    """
    behavior_matrix = _behavior_matrix(n)
    cell = np.arange(4 * n * n).reshape(n, n, 4)  # cell[x_a, x_b, 2 [y_a = +] + [y_b = +]]
    rows = np.sort(np.concatenate(
        [cell[:, :, 3].ravel(), cell[:, 0, 2], cell[0, :, 1], cell[0, 0, :1]]
    ))
    basis = behavior_matrix[rows]
    refusal = RuntimeError(f"the row basis does not span the behavior rows at n={n}")
    try:
        solved = np.linalg.solve(basis @ basis.T, basis @ behavior_matrix.T)
    except np.linalg.LinAlgError:
        raise refusal from None
    expand = np.ascontiguousarray(np.rint(solved.T))
    if not np.array_equal(expand @ basis, behavior_matrix):
        raise refusal
    return _BehaviorBasis(rows=_read_only(rows), expand=_read_only(expand))


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
    """The two relabellings that generate the chained score's symmetry group.

    Each sends joint strategy j to perm[j].  On sign vectors: the half-step
    rotation (a, b) -> (b, (a_1, ..., a_{n-1}, -a_0)), moving every setting one
    link and flipping the outcome crossing the wrap term, and the reflection
    (a, b) -> (reversed b, reversed a).
    """
    a, b = _joint_signs(n)
    wrapped = np.concatenate([a[:, 1:], -a[:, :1]], axis=1)
    return [_joint_index(b, wrapped), _joint_index(b[:, ::-1], a[:, ::-1])]


def _joint_signs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's sign vectors of the 4^n joint strategies, s_a major."""
    signs = _strategy_signs(n)
    return np.repeat(signs, 2**n, axis=0), np.tile(signs, (2**n, 1))


def _joint_index(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column index of each joint strategy (a[i], b[i]) in the s_a-major grid."""
    n = a.shape[1]
    bits = 2 ** np.arange(n - 1, -1, -1)
    return (a > 0) @ bits * 2**n + (b > 0) @ bits


class _Relabellings(NamedTuple):
    """Relabellings at one n, one per row, read-only: g sends joint strategy j to
    `strategies[g, j]`, and B[:, strategies[g]] == B[rows[g]], B = `_behavior_matrix(n)`."""

    strategies: np.ndarray
    rows: np.ndarray


def _relabelled(n: int, perms) -> _Relabellings:
    """Each permutation of the joint strategies in `perms`, with its behavior-row map.

    The map matches the rows of B[:, perm] to B's own by their bits, B =
    `_behavior_matrix(n)` being 0/1 with distinct rows.  No match raises
    RuntimeError: `perm` does not permute the behavior entries.
    """
    bits = _behavior_matrix(n) > 0
    cell_of = {row.tobytes(): c for c, row in enumerate(bits)}
    rows = []
    for perm in perms:
        try:
            rows.append([cell_of[row.tobytes()] for row in bits[:, perm]])
        except KeyError:
            raise RuntimeError(f"relabelling does not permute the behavior rows at n={n}") from None
    return _Relabellings(_read_only(np.array(perms)), _read_only(np.array(rows)))


@functools.cache
def _chain_group(n: int) -> _Relabellings:
    """Close `_chain_generators` into the chained score's 8n relabellings, identity first.
    Only the generators' row maps are matched (`_relabelled`), the others composed from
    theirs; B's columns being distinct, the row maps name the relabellings."""
    generators = list(zip(*_relabelled(n, _chain_generators(n))))
    group = {}
    frontier = [(np.arange(4**n), np.arange(4 * n * n))]
    while frontier:
        new = []
        for strategies, rows in frontier:
            if rows.tobytes() not in group:
                group[rows.tobytes()] = (strategies, rows)
                # B[:, strategies[perm]] == B[rows][:, perm] == B[row_map[rows]]
                new.extend((strategies[perm], row_map[rows]) for perm, row_map in generators)
        frontier = new
    strategies, rows = zip(*group.values())
    return _Relabellings(_read_only(np.array(strategies)), _read_only(np.array(rows)))


@functools.cache
def _setting_transpositions(n: int) -> _Relabellings:
    """Each swap of two settings of one party, Alice's first, checked by `_relabelled`.

    Swapping Alice's x and x' exchanges a_x and a_x' and the behavior rows
    (x, x_b, y_a, y_b) and (x', x_b, y_a, y_b); Bob's act alike.  They do not
    fix the chained score; `min_negativity_lp` uses those that fix its target.
    """
    a, b = _joint_signs(n)
    alice, bob = [], []
    for x, x_prime in itertools.combinations(range(n), 2):
        swap = np.arange(n)
        swap[[x, x_prime]] = x_prime, x
        alice.append(_joint_index(a[:, swap], b))
        bob.append(_joint_index(a, b[:, swap]))
    return _relabelled(n, alice + bob)


class _OrbitProgram(NamedTuple):
    """An LP over the signed weights w = u - v of the 4^n joint strategies, taken over orbits.

    A group of relabellings, each checked to permute the behavior rows
    (`_relabelled`), splits the strategies into orbits: `orbit_of[j]` is j's
    orbit O, `sizes[O]` is |O|.  `model` has a column pair (u_O, v_O) per orbit,
    w_j = u_O - v_O for j in O, inequality rows before equality rows as
    `scipy.optimize.linprog` orders them (HiGHS's vertex depends on it).
    `cells` is `_behavior_matrix(n)` summed over each orbit, exact in float64,
    so B w = `cells @ w_O`; `rows` names the cells whose orbit sums are the
    model's first rows.  All arrays are read-only.

    The orbit program has the LP's optimum when each relabelling g in the group
    maps the LP to itself: for w feasible, w composed with g is feasible, with
    w's score and negative mass sum max(-w, 0), its entries being w's permuted.
    Their average over the group is feasible, the feasible set being convex,
    and constant on orbits, with w's score and, sum max(-w, 0) being convex, at
    most w's negative mass.  So some optimum is constant on orbits, and the
    orbit program attains it.  Each LP's docstring says why its group maps it
    to itself.
    """

    orbit_of: np.ndarray
    sizes: np.ndarray
    cells: np.ndarray
    rows: np.ndarray
    model: _HighsModel


def _orbit_sums(perms: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of the group `perms` generate, and `matrix` summed over each.

    `perms` holds permutations of the joint strategies, one per row.  Each
    strategy is labelled with its orbit's least member: passes lower each label
    to the least of its images' labels and then to its label's label, until
    none changes; a permutation's inverse is one of its powers, so the whole
    orbit is reached.  Orbits are numbered by least member, so the identity
    alone keeps grid order.  Returns `orbit_of` and `matrix`'s columns summed
    over each orbit, exact on 0/1 entries.
    """
    label = np.arange(perms.shape[1])
    while True:
        lowered = np.minimum(label, label[perms].min(axis=0))
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            break
        label = lowered
    smallest = label == np.arange(len(label))
    orbit_of = (np.cumsum(smallest) - 1)[label]
    size = int(smallest.sum())
    cells = (np.arange(len(matrix))[:, None] * size + orbit_of).ravel()
    summed = np.bincount(cells, weights=matrix.ravel(), minlength=len(matrix) * size)
    return orbit_of, summed.reshape(len(matrix), size)


def _orbit_fields(n: int, perms: np.ndarray, candidates: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_OrbitProgram`'s `orbit_of`, `sizes`, `cells` and `rows` under `perms`, read-only;
    `rows` keeps, in order, each cell of `candidates` whose row of `cells` is new."""
    orbit_of, cells = _orbit_sums(perms, _behavior_matrix(n))
    rows = candidates[np.sort(np.unique(cells[candidates], axis=0, return_index=True)[1])]
    sizes = np.bincount(orbit_of).astype(np.float64)
    return tuple(map(_read_only, (orbit_of, sizes, cells, rows)))


@functools.cache
def _score_programs(n: int) -> tuple[_OrbitProgram, _OrbitProgram]:
    """Build `max_score_lp`'s orbit programs, without and then with the budget row.

    Columns (u_O, v_O) cost (-t_O, t_O), t_O the summed score of O.  Rows: each
    distinct orbit-summed behavior row E once, as -(E u - E v) <= 0, then the
    budget row 8|O| on v_O and the normalization row |O|.  RuntimeError unless
    each generator fixes every strategy's score and permutes the behavior rows
    (`_relabelled`), since orbit sums would then solve another LP.
    """
    signs = _strategy_signs(n)
    scores = (signs @ _chain_coefficients(n) @ signs.T).ravel()
    for perm in _chain_generators(n):
        if not np.array_equal(scores[perm], scores):
            raise RuntimeError(f"relabelling does not fix the chained score at n={n}")
    orbit_of, sizes, cells, rows = _orbit_fields(n, _chain_group(n).strategies,
                                                 np.arange(4 * n * n))
    entries = -_split_form(cells[rows])
    totals = np.bincount(orbit_of, weights=scores)
    cost = np.concatenate([-totals, totals])
    budget = np.concatenate([np.zeros_like(sizes), 8.0 * sizes])[None, :]
    normalization = _split_form(sizes[None, :])
    return tuple(
        _OrbitProgram(orbit_of, sizes, cells, rows, _highs_model(cost, np.concatenate(parts)))
        for parts in ([entries, normalization], [entries, budget, normalization])
    )


def _split_form(matrix: np.ndarray) -> np.ndarray:
    """[M, -M]: the rows of M applied to w = u - v."""
    return np.concatenate([matrix, -matrix], axis=1)


@functools.cache
def _joint_strategies(n: int) -> tuple[tuple[Strategy, Strategy], ...]:
    """All 4^n joint strategies (s_a, s_b), s_a major: the LP columns' order."""
    return tuple(itertools.product(enumerate_deterministic(n), repeat=2))


def _solve(
    n: int,
    program: _OrbitProgram,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    *,
    target: np.ndarray | None = None,
    budget: float = math.inf,
    score: float | None = None,
) -> LPResult:
    """Solve `program` (`linprog`) and read the answer off its orbit solution w_O = u_O - v_O.

    All 4^n weights are w = w_O[orbit_of], so each figure is an orbit sum: the
    negative mass `sizes @ max(-w_O, 0)`, sum w `sizes @ w_O`, sum v
    `sizes @ v_O`, B w `program.cells @ w_O`.  `primal_residual` is
    max|B w - target| given `target`, else the largest of |sum w - 1|,
    max(-B w) and 8 sum v - `budget` (the mass NaN at an infinite budget).
    The score is `score`, else -cost @ x; a residual above `_MAX_RESIDUAL`, or
    NaN, is FAILED.
    """
    model, sizes = program.model, program.sizes
    res = linprog(model, row_lower, row_upper)
    status = _LINPROG_STATUS.get(res.status, LPStatus.FAILED)
    optimal_score, weights, negative_mass, residual = math.nan, _StrategyWeights(n), math.nan, None
    if status is LPStatus.OPTIMAL:
        k = len(model.cost) // 2
        w_orbits = res.x[:k] - res.x[k:]
        weights = _StrategyWeights(n, w_orbits, program.orbit_of)
        negative_mass = float(sizes @ np.maximum(-w_orbits, 0.0))
        entries = program.cells @ w_orbits
        if target is not None:
            residual = float(np.abs(entries - target).max())
        else:
            residual = float(max(abs(sizes @ w_orbits - 1.0), -entries.min(),
                                 8.0 * (sizes @ res.x[k:]) - budget))
            if math.isinf(budget):
                negative_mass = math.nan
        optimal_score = float(score) if score is not None else float(-res.fun)
        if not residual <= _MAX_RESIDUAL:
            status = LPStatus.FAILED
    return LPResult(optimal_score, weights, negative_mass, status, n, int(res.nit),
                    str(res.message), residual, len(model.cost), model.rows)


def max_score_lp(n: int, negativity_budget: float = math.inf) -> LPResult:
    """Maximize the chained score over signed strategy mixtures w = u - v, u, v >= 0.

    Constraints: total weight 1, every behavior entry >= 0, and 8 sum v <=
    `negativity_budget` when finite; n outside 2..5 and a NaN, negative or
    beyond-float budget raise ValueError.  HiGHS solves over the orbits
    (`_OrbitProgram`) of the chained score's 8n relabellings (`_chain_group`),
    each of which fixes every strategy's score and permutes the behavior
    entries, so maps the LP to itself.  At an infinite budget `negative_mass`
    is NaN: every optimal vertex scores 2n, and HiGHS's pick sets the mass.
    """
    _check_chain_length("score maximization", n, "LP oracle", _MAX_LP_SETTINGS)
    if not negativity_budget >= 0:
        raise ValueError("negativity budget must be non-negative or infinite")
    try:
        finite = math.isfinite(negativity_budget)
    except OverflowError:
        raise ValueError("the negativity budget is beyond float range") from None
    program = _score_programs(n)[finite]
    # Entry rows -B w <= 0, the budget row if finite, then sum w == 1.
    row_lower = np.full(program.model.rows, -math.inf)
    row_upper = np.zeros(program.model.rows)
    row_lower[-1] = row_upper[-1] = 1.0
    if finite:
        row_upper[-2] = negativity_budget
    return _solve(n, program, row_lower, row_upper, budget=negativity_budget)


def min_negativity_lp(target: Behavior) -> LPResult:
    """Minimize the negative mass of signed mixtures that reproduce `target` exactly.

    Unequal setting counts, n outside 2..5 and an entry no float holds (named
    by its setting pair) raise ValueError.  A target with max|M t_R - t| >
    `_BASIS_SLACK` signals: it is INFEASIBLE unsolved, with that distance in
    `solver_message` and `iterations`, `columns` and `rows` 0, or FAILED if
    the distance overflows.  Otherwise HiGHS solves once.  `optimal_score` is
    the target's own chained score.

    The program is B(u - v) = t, u, v >= 0, minimizing sum v.  B =
    `_behavior_matrix(n)` is M @ B_R for the full-rank rows B_R of
    `_behavior_basis(n)` and an integer M, so B w = t is solvable exactly when
    t = M t_R, and then B_R w = t_R gives B w = t: a two-outcome no-signalling
    behavior is an affine mix of deterministic ones (Collins and Gisin;
    Al-Safi and Short, Phys. Rev. Lett. 111, 170403, 2013).

    HiGHS solves over the orbits (`_OrbitProgram`) of a group fixing t, v_O
    costing |O|.  Its generators are t's stabilizer, the g in `_chain_group(n)`
    with max|t[rows[g]] - t| <= `_BASIS_SLACK`, and, when each of those fixes t
    exactly, the swaps of two settings of one party whose target rows are
    exactly equal (`_setting_transpositions`); each permutes the behavior rows
    and fixes t, so it maps the feasible set and the mass to themselves.  Exact
    symmetries compose to exact ones, but two within the slack may not, so an
    inexact stabilizer gets no swaps, and its orbits, each named by its
    smallest image, are used only when the relabellings that keep every orbit
    in place are exactly the stabilizer, which holds when it is a group and
    proves that it is one; otherwise each strategy is its own orbit.  Summed
    over orbits, rows may coincide; each distinct row is kept once, bounded by
    its first copy's entry, which the group-averaged mixture meets up to t's
    distance from a symmetric behavior, within the slack (`primal_residual`
    reports the gap).  Targets with one key (`_negativity_program`) share one
    cached program, t entering each solve only as row bounds.
    """
    if target.n_settings_A != target.n_settings_B:
        raise ValueError("the strategy grid needs equal setting counts")
    n = target.n_settings_A
    _check_chain_length("min-negativity LP", n, "LP oracle", _MAX_LP_SETTINGS)
    entries = np.array([_floats(target.table[pair], pair) for pair in target.setting_pairs()]).ravel()
    basis = _behavior_basis(n)
    group = _chain_group(n)
    # Near float's limits either difference may overflow: an infinite
    # distance is FAILED, and a move by inf is no symmetry.
    with np.errstate(over="ignore", invalid="ignore"):
        distance = float(np.abs(basis.expand @ entries[basis.rows] - entries).max())
        # A finite entry moves by exactly 0 when a relabelling fixes it exactly.
        moved = np.abs(entries[group.rows] - entries).max(axis=1)
    if not distance <= _BASIS_SLACK:
        if math.isfinite(distance):
            status = LPStatus.INFEASIBLE
            message = (f"infeasible: the target signals by {distance!r} "
                       f"(max|M t_R - t| > {_BASIS_SLACK!r})")
        else:
            status = LPStatus.FAILED
            message = f"the no-signalling check overflowed: max|M t_R - t| is {distance!r}"
        return LPResult(math.nan, _StrategyWeights(n), math.nan, status, n, 0, message, None, 0, 0)
    stabilizer = moved <= _BASIS_SLACK
    exact_swaps = None
    if not moved[stabilizer].any():
        exact_swaps = (entries[_setting_transpositions(n).rows] == entries).all(axis=1).tobytes()
    program = _negativity_program(n, stabilizer.tobytes(), exact_swaps)
    bounds = entries[program.rows]
    return _solve(n, program, bounds, bounds, target=entries, score=chained_score(target, n))


#: `_negativity_program`'s cache size, bounding its memory: the largest
#: program (n = 5, the identity alone) holds about 1.1 MB, a full cache 18 MB.
_NEGATIVITY_PROGRAMS = 16


@functools.lru_cache(maxsize=_NEGATIVITY_PROGRAMS)
def _negativity_program(n: int, stabilizer: bytes, exact_swaps: bytes | None) -> _OrbitProgram:
    """Build `min_negativity_lp`'s orbit program for the key its target decides: `stabilizer`
    masks the relabellings of `_chain_group(n)` that fix the target within the slack, and
    `exact_swaps`, given only when each of those fixes it exactly, the swaps of
    `_setting_transpositions(n)` that fix it exactly.  The rows are the distinct orbit sums
    of `_behavior_basis(n)`'s rows."""
    group = _chain_group(n)
    stabilizer = np.frombuffer(stabilizer, dtype=bool)
    perms = group.strategies[stabilizer]
    if exact_swaps is not None:
        swaps = _setting_transpositions(n)
        perms = np.concatenate([perms, swaps.strategies[np.frombuffer(exact_swaps, dtype=bool)]])
    else:
        smallest = perms.min(axis=0)
        if not np.array_equal((smallest[group.strategies] == smallest).all(axis=1), stabilizer):
            perms = group.strategies[:1]
    orbit_of, sizes, cells, rows = _orbit_fields(n, perms, _behavior_basis(n).rows)
    # Minimize total v.
    cost = np.concatenate([np.zeros(len(sizes)), sizes])
    return _OrbitProgram(orbit_of, sizes, cells, rows,
                         _highs_model(cost, _split_form(cells[rows])))


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


#: How far `quantum_behavior`'s state may miss being Hermitian, positive
#: semidefinite and of unit trace.
_STATE_SLACK = 1e-7


def quantum_behavior(state: np.ndarray, angles_A, angles_B) -> Behavior:
    """Two-qubit behavior from projective measurements in the X-Z plane.

    Each setting is the angle t (radians) of the observable cos(t) Z + sin(t) X;
    the result is valid and no-signalling up to roundoff.  A state that is not a
    4x4 Hermitian, positive semidefinite, unit-trace matrix within
    `_STATE_SLACK`, a party without angles and a non-finite angle raise ValueError.
    """
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("state must be a 4x4 density matrix")
    if not np.allclose(rho, rho.conj().T, atol=_STATE_SLACK):
        raise ValueError("state must be Hermitian")
    eigenvalues = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if eigenvalues.min() < -_STATE_SLACK:
        raise ValueError(f"state must be positive semidefinite (min eigenvalue {eigenvalues.min():.3e})")
    if abs(np.trace(rho).real - 1.0) > _STATE_SLACK:
        raise ValueError("state must have unit trace")
    angles_a = [float(t) for t in angles_A]
    angles_b = [float(t) for t in angles_B]
    if not angles_a or not angles_b:
        raise ValueError("each party needs at least one measurement angle")
    for party, angles in (("Alice", angles_a), ("Bob", angles_b)):
        for x, angle in enumerate(angles):
            if not math.isfinite(angle):
                raise ValueError(f"{party}'s angle {angle!r} at setting {x} is not finite")
    table: dict[tuple[int, int], tuple] = {}
    for x_a, t_a in enumerate(angles_a):
        for x_b, t_b in enumerate(angles_b):
            row = []
            for (y_a, y_b) in OUTCOME_PAIRS:
                op = np.kron(_projector(t_a, y_a), _projector(t_b, y_b))
                row.append(float(np.trace(op @ rho).real))
            table[(x_a, x_b)] = tuple(row)
    return Behavior(n_settings_A=len(angles_a), n_settings_B=len(angles_b), table=table)


#: Largest `shots` that `signed_sample` takes.  A call's cost does not grow
#: with `shots`; the cap stops at counts where every standard error is
#: already at most S / 10**4, S = sum |w|.
_MAX_SHOTS = 10**8


class InvalidBehaviorError(ValueError):
    """`signed_sample` refused a model whose behavior is invalid; `validity` says why."""

    def __init__(self, validity: ValidityReport) -> None:
        super().__init__(
            "model assembles to an invalid behavior "
            f"(worst entry {validity.worst_entry[2]!r}); sampling is undefined"
        )
        self.validity = validity


def _outcome_probabilities(response: LocalResponse, hidden: list) -> np.ndarray:
    """[x, j, y]: the probability of outcome y (0 for -, 1 for +) at setting x
    and hidden value hidden[j], with the + probability clipped to [0, 1]."""
    plus = np.array([[float(response.table[(x, lam)][1]) for lam in hidden]
                     for x in range(response.n_settings)]).clip(0.0, 1.0)
    return np.stack([1.0 - plus, plus], axis=-1)


def signed_sample(
    model: Model,
    shots: int,
    seed: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> SampleEstimate:
    """Estimate the behavior by sampling hidden values from |w| / S, S = sum |w|.

    Each draw carries weight sign(w) * S, so the signed indicators' mean per
    cell is an unbiased estimate.  Each setting pair's 8 counts of shots by
    cell and weight sign, all the estimate reads, are drawn directly, pairs
    row-major, as `Generator.multinomial(shots, q)` on
    `numpy.random.default_rng(seed)`, q[4 k + 2 [Alice +] + [Bob +]] summing
    |w_j| / S * P_A(y_a | x_a, lam_j) * P_B(y_b | x_b, lam_j) over the points j
    of sign k (1 for w < 0), + probabilities clipped to [0, 1].  These counts
    have the law of shot-by-shot draws.  A non-integer `shots` (bools, floats,
    None), one outside 1..`_MAX_SHOTS` and a seed that is not a non-negative
    integer (None included: an unseeded draw could not be replayed) raise
    ValueError before assembly; a behavior invalid at `tolerance` raises
    `InvalidBehaviorError`, as no frequency estimate reproduces a negative cell,
    and then a weight beyond float range raises ValueError.
    """
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError("shots must be an integer")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots > _MAX_SHOTS:
        raise ValueError(f"sampling limited to shots <= {_MAX_SHOTS}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    behavior = assemble_behavior(model, tolerance=tolerance)
    report = validate_behavior(behavior, tolerance)
    if not report.is_valid:
        raise InvalidBehaviorError(report)
    points = model.dist.support
    try:
        weights = np.array([float(model.dist.weights[p]) for p in points])
    except OverflowError:
        raise ValueError("a weight is beyond float range") from None
    magnitude = np.abs(weights)
    total_variation = float(magnitude.sum())
    negative = weights < 0
    # by_sign[k, j]: point j's share |w_j| / S if its weight has sign k.
    by_sign = np.where([~negative, negative], magnitude / total_variation, 0.0)
    n_a = model.response_A.n_settings
    n_b = model.response_B.n_settings
    outcome_a = _outcome_probabilities(model.response_A, [lam for lam, _ in points])
    outcome_b = _outcome_probabilities(model.response_B, [lam for _, lam in points])
    q = np.einsum("sj,ajy,bjz->absyz", by_sign, outcome_a, outcome_b)
    counts = np.random.default_rng(seed).multinomial(shots, q.reshape(n_a * n_b, 8))
    counts = counts.reshape(n_a, n_b, 2, 4)
    mean = total_variation * (counts[:, :, 0] - counts[:, :, 1]) / shots
    abs_fraction = counts.sum(axis=2) / shots
    variance = np.maximum(total_variation**2 * abs_fraction - mean * mean, 0.0)
    errors = np.sqrt(variance / shots).tolist()
    table = {(x_a, x_b): tuple(row) for x_a, rows in enumerate(mean.tolist())
             for x_b, row in enumerate(rows)}
    standard_errors = {(x_a, x_b, k): error for x_a, rows in enumerate(errors)
                       for x_b, row in enumerate(rows) for k, error in enumerate(row)}
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
