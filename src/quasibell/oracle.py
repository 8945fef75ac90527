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
  still produce ordinary observable statistics.  It draws each setting
  pair's signed cell counts as one multinomial, setting pairs row-major
  (see `signed_sample`), so a seed fixes every count for a given numpy
  version and a call costs the same at any number of shots.

The LPs are solved with scipy's HiGHS backend and results are
deterministic for fixed inputs.  Each is an `_OrbitProgram`: a program over
orbits of joint strategies under a group of relabellings of settings and
outcomes that maps the LP to itself, built once with the column-wise model
HiGHS takes (`_HighsModel`), so a solve builds only its row bounds.
`max_score_lp` uses the chained score's dihedral group of 8n
(`_chain_group`), and `min_negativity_lp` the group that its target's
stabilizer in that group and its setting swaps (`_setting_transpositions`)
generate, one program per symmetry of its target (`_negativity_program`),
for a target that does not signal: one that signals is INFEASIBLE unsolved.
Building checks exactly that the row basis spans every behavior row and
that each chained generator fixes every strategy's score, and one matcher
(`_relabelled`) checks that each chained generator and each setting swap
permutes the behavior entries; building refuses otherwise.  Both LPs go
through `_solve`, which hands the program and its row bounds to `linprog`,
this module's own call of the HiGHS binding that `scipy.optimize.linprog`
uses, and reads the answer off the orbit solution: its negative mass,
sum w and sum v weighted by the orbit sizes (`_OrbitProgram.sizes`), its
`primal_residual` from the behavior matrix (`_behavior_matrix`) summed
over the program's orbits, built once with the program
(`_OrbitProgram.cells`), and its weights, expanded to all 4^n strategies,
only when they are first read.
`linprog` reports HiGHS's model status and status string, not scipy's, and
an optimum whose `primal_residual` is above `_MAX_RESIDUAL` is FAILED.
Importing this module loads numpy only, so enumeration, the classical bound,
the quantum generator and the sampler never load scipy.  The first solve
loads that binding alone (`_highs_binding`), neither `scipy` nor
`scipy.optimize`, whose imports cost more than a solve.
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

#: `linprog`'s status code for each HiGHS model status: kOptimal (7) is 0,
#: kInfeasible (8) is 2 and kUnbounded (10) is 3.  Every other status is 4,
#: model error (2), unbounded or infeasible (9) and the limits included.
_HIGHS_STATUS = {7: 0, 8: 2, 10: 3}

#: Largest `primal_residual` of an OPTIMAL answer; a solution HiGHS calls
#: optimal with a larger one is FAILED.  It is tighter than the 3.2e-4 that
#: `scipy.optimize.linprog` lets an optimum miss its bounds and rows by, and
#: looser than HiGHS's primal feasibility tolerance of 1e-7, within which an
#: optimum may miss its rows.
_MAX_RESIDUAL = 1e-6


#: The options `scipy.optimize.linprog(method="highs")` sets, no output,
#: debug level 0 and dual simplex, with presolve off.  On these small dense
#: programs presolve cost more than it saved: without it the n = 2..5 LPs
#: solved in about 0.5-0.6 of the time on a 2-core machine.  It is one fixed
#: value because the answer depends on it: at a degenerate optimum the
#: weights may name another optimal vertex, and on a program infeasible by
#: about HiGHS's feasibility tolerance of 1e-7, presolve on moves the optimum
#: or flips OPTIMAL and INFEASIBLE.
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

    The module in `sys.modules` if it is there; otherwise this finds
    scipy's folder without importing `scipy` (`importlib.util.find_spec`),
    loads `_core` from its `optimize/_highspy` folder under its full name
    and registers it there, so a later `import scipy.optimize` gets this
    same module.  Until something imports its packages, `scipy` among them,
    the binding is reached through `sys.modules` or an import statement, not
    as an attribute of `scipy.optimize._highspy`.  Without scipy this raises
    ModuleNotFoundError; a scipy without the binding raises ImportError
    naming the folder searched.  Either registers nothing.
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
    """A program in the column-wise form HiGHS's `passModel` takes, built once and read-only.

    Minimize `cost @ x` over x >= 0 subject to row bounds given per solve
    (`linprog`).  `start`, `index` and `value` hold the nonzeros of the
    constraint rows column by column, rows ascending within each column, as
    `scipy.sparse.csc_array` holds them.  `lower` and `upper` are the column
    bounds 0 and inf, and `integrality` is all zero, every column
    continuous, since HiGHS refuses an empty one.
    """

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
    """Solve `model` within row bounds with the HiGHS binding `scipy.optimize.linprog` runs.

    Minimizes `model.cost @ x` over x >= 0 subject to `row_lower <= A x <=
    row_upper`, A the model's rows, with one float64 entry per row in each
    bound: an inequality row `A_ub x <= b_ub` has lower bound -inf, an
    equality row `A_eq x == b_eq` equal bounds.  Row bounds of another
    length raise ValueError.  It calls the HiGHS binding that
    `scipy.optimize.linprog(method="highs")` calls, scipy's private
    `scipy.optimize._highspy._core`, loaded on the first solve without
    `scipy.optimize` (`_highs_binding`), with the model that function passes for
    those rows, column-wise, and the options `_HIGHS_OPTIONS`: scipy's, with
    presolve off.  So `x`, `fun` and `nit` are those `scipy.optimize.linprog`
    returns with presolve off.  `status` is HiGHS's model status mapped by
    `_HIGHS_STATUS`, so a model error is 4, where scipy calls it infeasible.
    `message` is HiGHS's name of that status, and off OPTIMAL it also names
    the primal solution status, worded as scipy's wrapper words it; scipy's
    message quotes it.  No check of the optimum against the bounds and rows
    is made here: `_solve` judges each optimum by its `primal_residual`.
    What it skips is the Python around that call whose output `_solve`
    discards: input cleaning, the conversion through `scipy.sparse` (the
    model is built once, `_highs_model`), a fresh option checker for each
    option, the copy of HiGHS's whole info record (read only to word a
    message off OPTIMAL), the loop over every column's basis status and
    dual, and the result assembly.  At these sizes that wrapper, not HiGHS,
    sets the cost.
    Where scipy makes a HiGHS instance per call, this solves on one per
    thread (`_highs_solver`), whose options are set once when it is made.
    Each call clears its solver state (`clearSolver`) and passes the model
    as arrays, so no basis or solution carries over from the last solve:
    there is no warm start, and the answer is the one a fresh instance
    gives.  An option HiGHS refuses raises RuntimeError (`_highs_solver`),
    and so does an info value it does not know, so a binding that renamed
    one can neither fall back to HiGHS's defaults nor report a count unseen.
    `pyproject.toml` asks for scipy >= 1.15, the release taken to be the
    first to ship the binding; that floor is unverified, and only scipy
    1.17.1, with HiGHS 1.12.0, has been run against this function.  A scipy
    that keeps no binding where `_highs_binding` looks raises ImportError
    rather than solving otherwise.
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
        for name in ("simplex_iteration_count", "ipm_iteration_count"):
            known, nit = solver.getInfoValue(name)
            if known == highs.HighsStatus.kError:
                raise RuntimeError(f"HiGHS has no info value {name!r}")
            if nit:
                break
        if model_status == highs.HighsModelStatus.kOptimal:
            x, fun = np.array(solver.getSolution().col_value), solver.getObjectiveValue()
        else:
            primal_status = solver.getInfo().primal_solution_status
            message = (
                f"model_status is {solver.modelStatusToString(model_status)}; "
                f"primal_status is {solver.solutionStatusToString(primal_status)}"
            )
    status = _HIGHS_STATUS.get(int(model_status), 4)
    return _HighsResult(status, x, fun, nit, message or solver.modelStatusToString(model_status))


def _highs_solver():
    """This thread's HiGHS instance, made with `_HIGHS_OPTIONS` set on first use.

    It is kept only once every option is accepted, so a refused option
    raises RuntimeError on every solve, never leaving a solver on HiGHS's
    defaults for the next one.
    """
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
    """`LPResult.weights`: each joint strategy's signed weight above 1e-12 in absolute value.

    A read-only mapping from (s_a, s_b) to its weight, in strategy order
    (`_joint_strategies`), over the signed weights w = w_O[orbit_of] of all
    4^n strategies, w_O being the orbit solution that `_solve` keeps with
    its program's `orbit_of`, or empty without them.  The mapping expands
    w_O to w the first time it is read, so a solve whose weights are never
    read builds no 4^n array.  It compares equal to the dict of its items,
    and prints as that dict.
    """

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

    `iterations` and `solver_message` are HiGHS's iteration count and
    status string (`linprog`), kept whatever the status; `columns` and
    `rows` count the columns and constraint rows of the program HiGHS
    solved.  When no program was solved, because `min_negativity_lp`'s
    target signals, `iterations`, `columns` and `rows` are 0 and
    `solver_message` says why.  `weights` is a read-only mapping of the
    symmetric optimum's nonzero weights by joint strategy, expanded from
    the orbit solution to all 4^n strategies only when first read
    (`_StrategyWeights`), and empty when HiGHS returned no solution.
    `primal_residual` is the largest violation of the LP's constraints over
    all 4^n joint strategies by those weights (for `min_negativity_lp`,
    max|B w - target|, B the behavior matrix), or None when HiGHS returned
    no solution.  It and `negative_mass` are read off the orbit solution,
    without the weights (`_solve`).  A solution whose residual exceeds
    `_MAX_RESIDUAL` is FAILED, with its weights and residual kept.
    `negative_mass` is NaN when HiGHS returned no solution, and for
    `max_score_lp` with an infinite budget (see there).
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

    Noise scales with the total variation weight: per-shot estimates take
    values in {-S, 0, +S} with S = sum |w|, so per-cell standard errors are
    at most S / sqrt(shots).  `effective_shots = shots / S**2` is the number
    of unsigned shots with that error bound.  The estimate is a function of
    each setting pair's counts of shots by cell and weight sign, which
    `signed_sample` draws as one multinomial per pair; `seed` fixes them for
    a given numpy version.  This release changed every per-seed estimate
    once, from the per-shot draws of earlier releases.
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


def enumerate_deterministic(n: int) -> tuple[Strategy, ...]:
    """All 2^n single-party deterministic strategies as +-1 outcome tuples.

    Joint strategies are pairs of these; the same list serves both parties.
    """
    if n < 1:
        raise ValueError("need at least one setting")
    if n > _MAX_ENUMERATION_SETTINGS:
        raise ValueError(f"enumeration limited to n <= {_MAX_ENUMERATION_SETTINGS}")
    return tuple(itertools.product((-1, +1), repeat=n))


@functools.cache
def _chain_coefficients(n: int) -> np.ndarray:
    """Matrix C with strategy score M(a, b) = a @ C @ b for sign vectors a, b.

    Cached per n and read-only, as `_strategy_signs` is.
    """
    coeff = np.zeros((n, n))
    for i in range(n):
        coeff[i, i] += 1.0
    for i in range(1, n):
        coeff[i, i - 1] += 1.0
    coeff[0, n - 1] -= 1.0
    return _read_only(coeff)


def classical_bound_bruteforce(n: int) -> float:
    """Maximum |chained score| over all joint deterministic strategies.

    The score of a pair is the bilinear form a @ C @ b.  For a fixed Alice
    strategy a, Bob's best reply separates over his settings: b_j =
    sign((a C)_j), or its negation for the most negative score, gives
    max_b |a C b| = ||a C||_1.  Maximizing that over Alice's 2^n strategies
    is therefore the exact maximum over all 4^n pairs, at O(2^n * n^2) cost
    and O(2^n * n) memory.  Each 1-norm is one matrix-vector product with
    the ones vector, exact on these integers.  The result is the classical
    bound 2n-2, but it is computed, not assumed.
    """
    if n < 2:
        raise ValueError("chained score needs n >= 2")
    if n > _MAX_BRUTEFORCE_SETTINGS:
        raise ValueError(f"brute force limited to n <= {_MAX_BRUTEFORCE_SETTINGS}")
    best_replies = np.abs(_strategy_signs(n) @ _chain_coefficients(n)) @ np.ones(n)
    return float(best_replies.max())


@functools.cache
def _strategy_signs(n: int) -> np.ndarray:
    """The 2^n x n matrix of +-1 strategies, rows in `enumerate_deterministic` order.

    Row s holds the bits of s, most significant first, with 0 -> -1 and
    1 -> +1: the encoding `_joint_index` reads back.  Cached per n and
    read-only, as `_behavior_matrix` is: `classical_bound_bruteforce` reads
    it on every call, and up to n = 12 all of them take under 1 MB.
    """
    bits = 2 ** np.arange(n - 1, -1, -1)
    return _read_only(np.where(np.arange(2**n)[:, None] & bits, 1.0, -1.0))


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


class _BehaviorBasis(NamedTuple):
    """`min_negativity_lp`'s row basis at one n, read-only.

    `rows` picks (n+1)^2 cells of `_behavior_matrix(n)` whose rows B_R span
    its row space, and `expand` is the matrix M with B = M @ B_R: small
    integers, held exactly as float64, the dtype of the targets it
    multiplies, and C-contiguous, the layout `min_negativity_lp`'s
    `expand @ t_R` has always been computed in.
    """

    rows: np.ndarray
    expand: np.ndarray


@functools.cache
def _behavior_basis(n: int) -> _BehaviorBasis:
    """Build `min_negativity_lp`'s row basis, checking B = M @ B_R exactly.

    The rows are the Collins-Gisin coordinates (Collins and Gisin, J. Phys.
    A 37, 1775, 2004) written as cells (x_a, x_b, y_a, y_b): every
    (x_a, x_b, +, +), then (x_a, 0, +, -), (0, x_b, -, +) and (0, 0, -, -).
    Every other cell is an integer combination of these on every joint
    strategy, through the marginals and normalization.  B_R has full row
    rank, so M is the solution of the normal equations
    M (B_R B_R^T) = B B_R^T, rounded to integers; the exact check is what
    makes it M.  Raises RuntimeError unless M @ B_R equals B exactly, a
    B_R whose rows are dependent included.
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
    """Relabellings of settings and outcomes at one n, one per row, read-only.

    Relabelling g sends joint strategy j to `strategies[g, j]` and permutes
    the behavior rows by `rows[g]`: B[:, strategies[g]] == B[rows[g]] for B
    = `_behavior_matrix(n)`.
    """

    strategies: np.ndarray
    rows: np.ndarray


def _relabelled(n: int, perms) -> _Relabellings:
    """Each permutation of the 4^n joint strategies in `perms`, with its behavior-row map.

    The row map of `perm` is read by matching the rows of B[:, perm] against
    B's own by their bits, B = `_behavior_matrix(n)` being 0/1 with distinct
    rows.  Raises RuntimeError when a row has no match, since `perm` then
    does not permute the behavior entries; every relabelling the LPs use is
    checked here.
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
    """Close `_chain_generators` into the chained score's 8n relabellings.

    Only the two generators' row maps are matched and checked
    (`_relabelled`); every other element's row map is composed from theirs
    during the closure.  Distinct relabellings permute the rows differently,
    since B's columns are distinct, so the row maps name the elements.  Row
    0 of the result is the identity.
    """
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
    """The transpositions of two settings of one party, checked as relabellings (`_relabelled`).

    First Alice's swaps of settings x < x', then Bob's.  Swapping Alice's
    settings x and x' sends (a, b) to (a with a_x and a_x' exchanged, b) and
    exchanges the behavior rows (x, x_b, y_a, y_b) and (x', x_b, y_a, y_b);
    Bob's swaps act on the other index alike.  These do not fix the chained
    score; `min_negativity_lp` uses those that fix its target.
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

    A group of relabellings of settings and outcomes, each checked to permute
    the behavior rows (`_relabelled`), splits the joint strategies into
    orbits, and `orbit_of[j]` is the orbit O of strategy j, and `sizes[O]`
    its size |O| as float64.  `model` has one column pair (u_O, v_O) per
    orbit, with w_j = u_O - v_O for every j in O: each column sums the
    program's behavior rows over O's strategies, and the negative mass is
    sum |O| v_O.  Its inequality rows come before its equality rows, the
    order in which `scipy.optimize.linprog` hands `A_ub` and `A_eq` to
    HiGHS, since HiGHS's vertex and iteration count depend on it.  `cells`
    is `_behavior_matrix(n)` summed over each orbit, all 4n^2 behavior rows
    by one column per orbit: small integers, held exactly as float64, so
    `cells @ w_O` is the behavior B w of the signed weights w_O = u_O - v_O
    without expanding them to all 4^n strategies, as `sizes @ w_O` is
    sum w.  `rows` are the cells whose orbit-summed rows the model's first
    rows are, one per row, in order: the first copy of each distinct row of
    `cells` for `max_score_lp`, whose budget and normalization rows follow,
    and of each distinct Collins-Gisin row for `min_negativity_lp`, whose
    target entries at `rows` bound them (`_orbit_fields`).  All arrays are
    read-only.

    The orbit program has the LP's optimum when every relabelling g in the
    group maps the LP to itself: with w feasible, w composed with g is
    feasible, with the same score, and with the same negative mass
    sum max(-w, 0), its entries being w's, permuted.  The average of these
    points over the group is then feasible, the feasible set being convex,
    and constant on orbits.  It has w's score, and its negative mass is at
    most w's, since sum max(-w, 0) is convex.  So some optimum is constant
    on orbits, and the orbit program attains it.  Each LP's docstring names
    its group and says why it maps that LP to itself.  `_solve` reads the
    answer off that symmetric optimum's orbit solution, and the reported
    weights are it expanded to all 4^n strategies, only when first read.
    """

    orbit_of: np.ndarray
    sizes: np.ndarray
    cells: np.ndarray
    rows: np.ndarray
    model: _HighsModel


def _orbit_sums(perms: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of the group `perms` generate, and `matrix` summed over each orbit.

    `perms` holds permutations of the 4^n joint strategies, one per row.
    Each strategy is labelled with the smallest strategy of its orbit: the
    labels start as the strategies themselves, and each pass lowers every
    label to the smallest label of its images and then to its own label's
    label, which lies in the same orbit, until nothing changes.  A
    permutation's inverse is one of its powers, so this reaches the whole
    orbit; when `perms` is an enumerated group the first pass already does.
    Orbits are numbered in the order of their smallest members, so under
    the identity alone each strategy is its own orbit, in grid order.
    Returns `orbit_of`, the orbit of each strategy, and the columns of
    `matrix`, one per strategy, summed over each orbit, exactly on the 0/1
    entries of the behavior rows.
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
    """`_OrbitProgram`'s `orbit_of`, `sizes`, `cells` and `rows` under the group of `perms`.

    `orbit_of` and `cells` are `_orbit_sums`'s over `_behavior_matrix(n)`,
    and `rows` keeps, of the cells `candidates`, the first copy of each
    distinct row of `cells[candidates]`, in the order of `candidates`.  All
    four are read-only.
    """
    orbit_of, cells = _orbit_sums(perms, _behavior_matrix(n))
    rows = candidates[np.sort(np.unique(cells[candidates], axis=0, return_index=True)[1])]
    sizes = np.bincount(orbit_of).astype(np.float64)
    return tuple(map(_read_only, (orbit_of, sizes, cells, rows)))


@functools.cache
def _score_programs(n: int) -> tuple[_OrbitProgram, _OrbitProgram]:
    """Build `max_score_lp`'s orbit programs, without and then with the budget row.

    The columns (u_O, v_O) cost (-t_O, t_O), t_O being the summed score of
    O's strategies.  The rows are each distinct orbit-summed behavior row E
    once, at the cells `rows` (`_orbit_fields`), as -(E u - E v) <= 0, then
    the budget row, 8|O| on v_O, and the normalization row of the orbit
    sizes |O|.  Both programs share every field but `model`.  Raises RuntimeError if
    a generator from `_chain_generators` changes the score of some joint
    strategy, or (in `_relabelled`) does not permute the rows of the
    behavior matrix, since then orbit sums would not solve the same LP.
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
    """Solve `program` within its row bounds (`linprog`), then read the answer off the orbits.

    x = (u_O, v_O) has one column pair per orbit O, and w_O = u_O - v_O.
    So u = u_O[orbit_of] and v = v_O[orbit_of] are the halves of the signed
    weights w = w_O[orbit_of] of all 4^n strategies, and every figure is
    read off the orbit vectors, weighted by the orbit sizes, without w: the
    negative mass sum max(-w, 0) as `sizes @ max(-w_O, 0)`, sum w as
    `sizes @ w_O`, sum v as `sizes @ v_O`, and the behavior B w,
    B = `_behavior_matrix(n)`, as `program.cells @ w_O`.  `primal_residual`
    is max|B w - target| when `target` is given (`min_negativity_lp`),
    otherwise (`max_score_lp`) the largest of |sum w - 1|, max(-B w) and
    8 sum v - `budget`, with the negative mass NaN for an infinite budget.
    The weights are the entries of w above 1e-12 in absolute value, in
    strategy order, expanded from w_O only when first read
    (`_StrategyWeights`).  The optimal score is `score` when given, else
    -cost @ x.  An optimum whose residual exceeds `_MAX_RESIDUAL`, or is
    NaN, is FAILED (see `LPResult`).
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
    """Maximize the chained score over signed strategy mixtures.

    Weights are split into non-negative halves w = u - v to keep the program
    linear.  Constraints: total weight 1, every induced behavior entry >= 0
    (row normalization then forces entries <= 1), and the faithful-witness
    budget 8 * sum(v) <= negativity_budget when finite.  A NaN budget is
    refused.

    HiGHS solves the program over the orbits (`_OrbitProgram`) of the
    chained score's 8n relabellings (`_chain_group`), without the budget row
    when the budget is infinite (`_score_programs`).  Each relabelling fixes
    every strategy's score and permutes the behavior entries, so w composed
    with it has w's score, total weight and negative mass, and w's entries,
    permuted.

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
    finite = math.isfinite(negativity_budget)
    program = _score_programs(n)[finite]
    # Entry rows -B w <= 0, the budget row if finite, then sum w == 1.
    row_lower = np.full(program.model.rows, -math.inf)
    row_upper = np.zeros(program.model.rows)
    row_lower[-1] = row_upper[-1] = 1.0
    if finite:
        row_upper[-2] = negativity_budget
    return _solve(n, program, row_lower, row_upper, budget=negativity_budget)


def min_negativity_lp(target: Behavior) -> LPResult:
    """Minimize negative mass among signed mixtures reproducing `target` exactly.

    A target with max|M t_R - t| > `_BASIS_SLACK` signals, so no
    signed mixture reproduces it: it is INFEASIBLE before any program is
    built, with that distance in `solver_message` and `iterations`,
    `columns` and `rows` 0, and a distance that overflows is FAILED.  The
    reported optimal_score is the chained score the target itself achieves.
    Note this answers "how little negative mass reproduces these
    statistics", which is related to but distinct from any witness value of
    a particular model.  HiGHS solves at most once per call.  An entry no
    float holds, such as a `Fraction` beyond float range, raises ValueError
    naming its setting pair.

    The program is B(u - v) = t with u, v >= 0, minimizing the total of v,
    and B `_behavior_matrix(n)`'s 4n^2 rows.  They have rank (n+1)^2 only, so
    the program keeps the (n+1)^2 rows B_R of `_behavior_basis(n)` and the
    matching entries t_R of the target, with B = M @ B_R for an integer M.
    B_R has full row rank, so B w = t has a solution exactly when
    t = M t_R, and then B_R w = t_R gives B w = t: every two-outcome
    no-signalling behavior is an affine mix of deterministic ones (Collins
    and Gisin; Al-Safi and Short, Phys. Rev. Lett. 111, 170403, 2013).
    Summed over the orbits below, rows may coincide, and each distinct row
    is kept once, bounded by its first copy's entry: some signed mixture
    reproduces the target, and that mixture averaged over the group is
    constant on orbits, so it gives copies equal entries, and it reproduces
    the target up to the target's distance from a symmetric behavior,
    within the 1e-9 slack.  `primal_residual` reports any gap that is left.
    The N = 1/2 and N = 1 families get 8 rows at every n, the N = 2 family
    6 (2 at n = 2), and the chained singlet and Werner targets n.

    HiGHS solves over the orbits (`_OrbitProgram`) of a group that fixes
    the target, and v_O costs |O|.  Its generators are the target's
    stabilizer, the relabellings g of `_chain_group(n)` with
    max|t[rows[g]] - t| <= 1e-9, i.e. those that fix the target, and, when
    each of them fixes it exactly, the swaps of two settings of one party
    whose target rows are exactly equal (`_setting_transpositions`).  Each
    element permutes the behavior rows and fixes t, so it maps the feasible
    set B w = t and the negative mass to themselves.

    The argument needs every element of the group to fix t.  Exact
    symmetries compose to exact ones, so a swap, which does not fix the
    chained score, joins only a stabilizer whose relabellings are all exact:
    then every product of generators fixes t.  Within the 1e-9 slack two
    relabellings that each pass may compose to one that does not.  So an
    inexact stabilizer gets no swaps, and its orbits, each named by its
    smallest image under the stabilizer, are used only when the relabellings
    that keep every orbit in place are exactly the stabilizer, which holds
    when it is a group and proves that it is one; otherwise HiGHS gets one
    column pair per strategy.  The chained singlet and Werner targets are
    fixed by all 8n relabellings and have no equal rows (68 columns at n = 5
    instead of 2048).  The N = 1 family is fixed by 2 relabellings and the
    N = 2 family by 4, and in both Alice's settings 1..n-1 share their rows,
    and so do Bob's 0..n-2: at n = 2..5 that is 20, 42, 72 and 110 columns
    for N = 1 (and N = 1/2), and 4, 24, 40 and 60 for N = 2.  A target fixed
    by the identity alone, with no equal rows, gets the program over all
    2 * 4^n columns, column for column.  The reported weights are the
    symmetric optimum, expanded to all 4^n strategies when first read, so
    `support_size` counts whole orbits of the larger group, and
    `primal_residual` is max|B w - t| over all 4n^2 rows, B w read off the
    orbit solution through the program's `cells`.

    The program is built once per key and cached (`_negativity_program`,
    at most `_NEGATIVITY_PROGRAMS` keys).  The key is n, the stabilizer as
    a mask over `_chain_group(n)`, and, when each stabilizer element fixes
    the target exactly, the mask of exactly fixing swaps over
    `_setting_transpositions(n)` (else None).  The
    target is relabelled once by each element of `_chain_group(n)`: how far
    each moves it decides both the stabilizer and, the entries being finite,
    whether each of its elements fixes the target exactly, a move of exactly
    0.  That is all the build reads of the target: the rows, the generators,
    the closure check on an inexact stabilizer, and so the orbits, their
    sums, the cost and the model follow from the key alone.  The target's
    entries go in only as the row bounds, per call, so no result is cached.
    Targets that share a key share a program: a family's budgets where their
    symmetries agree, and the chained singlet with every Werner visibility,
    all fixed by the whole group.
    """
    if target.n_settings_A != target.n_settings_B:
        raise ValueError("the strategy grid needs equal setting counts")
    n = target.n_settings_A
    if n < 2:
        raise ValueError("min-negativity LP needs n >= 2")
    if n > _MAX_LP_SETTINGS:
        raise ValueError(f"LP oracle limited to n <= {_MAX_LP_SETTINGS}")
    entries = np.array([_floats(target.table[pair], pair) for pair in target.setting_pairs()]).ravel()
    basis = _behavior_basis(n)
    group = _chain_group(n)
    # Entries near float's limits may overflow either difference: a distance
    # that is not finite is FAILED, and a relabelling that moves the target
    # by inf is no symmetry of it.
    with np.errstate(over="ignore", invalid="ignore"):
        distance = float(np.abs(basis.expand @ entries[basis.rows] - entries).max())
        # How far each relabelling moves the target, gathered once: a finite
        # entry moves by 0 exactly when the relabelling fixes it exactly.
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


#: `_negativity_program`'s cache size.  The largest entry, a target at n = 5
#: fixed by the identity alone, has 36 rows of 512 nonzeros each in split
#: form, so its model holds 18432 nonzeros at 12 bytes (221 KB) and 74 KB
#: more, and its `cells` are 100 x 1024 float64 (819 KB).  A full cache
#: holds at most about 18 MB.
_NEGATIVITY_PROGRAMS = 16


@functools.lru_cache(maxsize=_NEGATIVITY_PROGRAMS)
def _negativity_program(n: int, stabilizer: bytes, exact_swaps: bytes | None) -> _OrbitProgram:
    """Build `min_negativity_lp`'s orbit program from what its target decides.

    The rows are the distinct orbit sums of `_behavior_basis(n)`'s rows,
    each once, in the order of their first copies, at the cells `rows`
    (`_orbit_fields`), taken from the orbit sums of all 4n^2 behavior rows,
    the program's `cells`.
    `stabilizer` is the bool mask over `_chain_group(n)` of the relabellings
    that fix the target within the slack, and `exact_swaps`, given only
    when each of them fixes it exactly, the bool mask over
    `_setting_transpositions(n)` of the swaps that fix it exactly.  These
    decide the group, its orbits and so the whole program; the target's
    entries enter only as the row bounds, at `rows`, so one program is
    built per such key and shared by every target that has it.
    """
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

    `state` is a 4x4 density matrix; each party's settings are measurement
    angles (radians) of the observable cos(t) Z + sin(t) X.  The result is
    valid and no-signalling by construction (up to roundoff), at the default
    tolerance.  An angle that is NaN or infinite is refused with ValueError
    naming the party, the setting and the angle.
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


#: Largest `shots` that `signed_sample` takes.  It bounds no resource: a
#: call draws 8 counts per setting pair, so its time and memory do not grow
#: with `shots`.  It is kept so that the library and `sample --shots` refuse
#: the counts that earlier releases refused; at the cap every standard error
#: is already at most S / 10**4, with S = sum |w|.
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
    """Estimate the behavior by sampling hidden values from |w| / sum|w|.

    Each draw carries weight sign(w) * sum|w|; averaging those signed
    indicators per cell gives an unbiased estimate of every behavior entry.
    Models whose behavior, assembled at `tolerance`, is invalid there are
    refused with `InvalidBehaviorError`, since their negative cells cannot be
    reproduced by any frequency estimate.

    The estimate reads only how many shots land in each cell with each
    sign, and those 8 counts per setting pair are drawn directly: setting
    pairs run row-major, and each is one `Generator.multinomial(shots, q)`
    on `numpy.random.default_rng(seed)`, with
    q[4 * s + 2 * [Alice +] + [Bob +]] the sum, over the points j whose
    weight has sign s (0 for w >= 0, 1 for w < 0), of
    |w_j| / S * P_A(y_a | x_a, lam_j) * P_B(y_b | x_b, lam_j), S = sum |w|.
    Each party's + probability is its response row's, clipped to [0, 1],
    and the - probability is 1 minus that.  Those counts have the law of
    drawing a hidden value and both outcomes shot by shot (an outcome + when
    a uniform is below its + probability), so a call costs the same at any
    `shots`.  A seed fixes every count for a given numpy version.  This
    release changed every per-seed output once: earlier releases drew
    `shots` uniforms per pair for the hidden value and per outcome.  A
    `shots` that is not an integer (a bool, a float such as 2.0 or 2.5, None
    or a string) is refused with ValueError first, and so is a seed that is
    not a non-negative integer (None included, which would draw from the
    operating system and could not be replayed), both before anything is
    assembled.
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
    weights = np.array([float(model.dist.weights[p]) for p in points])
    magnitude = np.abs(weights)
    total_variation = float(magnitude.sum())
    negative = weights < 0
    # by_sign[s, j]: point j's share |w_j| / S if its weight has sign s.
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
