"""Core types for two-party Bell experiments with signed hidden-variable mixtures.

A model is one local response table per party and a normalized, possibly
signed, weight table over joint hidden-variable values; mixing them gives
the behavior P(y_A, y_B | x_A, x_B).  Negative weights may give entries
outside [0, 1], so validity is a check (`validate_behavior`), not a
construction-time requirement.  Outcomes are y in {-1, +1}, index 0 for -1,
so four-outcome rows are ordered (--, -+, +-, ++).

Arithmetic is duck-typed: float tables stay float and `Fraction` tables stay
exact; `QuasiDist` refuses weights that mix the two, since the sums' types
and rounding would then depend on the order of the points.  The exact path
stays cheap without a second code path: mixing skips products with a zero
factor, which changes no sum's value, type or float bits; range checks test
the exact condition before the tolerance; and row objects shared by identity
are mixed and checked once, with their first occurrence's figures.
`LocalResponse`, `QuasiDist` and `Behavior` keep read-only copies of their
tables, so a model's cells and default-tolerance behavior are computed once
and shared safely.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Hashable, Mapping

DEFAULT_TOLERANCE = 1e-9

#: Most settings a party may have: a behavior has a row per setting pair, so
#: its table grows as n^2, and a few thousand settings would exhaust memory.
_MAX_SETTINGS = 1000

#: Outcome values in row order: index 0 <-> -1, index 1 <-> +1.
OUTCOMES = (-1, +1)

#: (y_A, y_B) pairs in the fixed four-column order --, -+, +-, ++.
OUTCOME_PAIRS = ((-1, -1), (-1, +1), (+1, -1), (+1, +1))

Label = Hashable
Point = tuple[Label, Label]


class StructureError(ValueError):
    """A table, support, or setting index is inconsistent with its container."""


def _row_error(party: str, key, problem: str) -> StructureError:
    return StructureError(f"party {party}, (x, lambda)={key}: {problem}")


def _check_tolerance(tol: float) -> None:
    """Refuse a tolerance that is negative, infinite or NaN."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be non-negative and finite, got {tol!r}")


def _check_chain_length(name: str, n: int, holder: str, n_a: int, n_b: int) -> None:
    """Refuse, naming the caller `name`, a chain length n below 2 or above n_a or n_b."""
    if n < 2:
        raise ValueError(f"{name} needs n >= 2")
    if n_a < n or n_b < n:
        raise ValueError(f"{name} with n={n} needs {n} settings per party, {holder} has ({n_a}, {n_b})")


def _check_prob_row(row, tol: float, party: str, key) -> None:
    # Both tests of each pair are false for NaN, so NaN is refused.
    if len(row) != 2:
        raise _row_error(party, key, f"expected a length-2 outcome row, got {row!r}")
    for p in row:
        if not (0 <= p <= 1 or -tol <= p <= 1 + tol):
            raise _row_error(party, key, f"probability {p!r} outside [0, 1]")
    total = row[0] + row[1]
    if not (total == 1 or abs(total - 1) <= tol):
        raise _row_error(party, key, f"outcome row sums to {total!r}, not 1")


@dataclass(frozen=True)
class LocalResponse:
    """One party's outcome rows, a read-only copy: `table` maps every (setting, hidden value)
    in range(n_settings) x `hidden_values` to a tuple (P(y=-1), P(y=+1))."""

    party: str
    n_settings: int
    hidden_values: tuple[Label, ...]
    table: Mapping[tuple[int, Label], tuple]

    def __post_init__(self) -> None:
        if self.party not in ("A", "B"):
            raise StructureError(f"party must be 'A' or 'B', got {self.party!r}")
        if self.n_settings < 1:
            raise StructureError("n_settings must be positive")
        if self.n_settings > _MAX_SETTINGS:
            raise StructureError(f"n_settings must be at most {_MAX_SETTINGS}")
        if not self.hidden_values:
            raise StructureError("hidden_values must be non-empty and finite")
        if len(set(self.hidden_values)) != len(self.hidden_values):
            raise StructureError("hidden_values contains duplicates")
        table = dict(self.table)
        object.__setattr__(self, "table", MappingProxyType(table))
        if len(table) != self.n_settings * len(self.hidden_values) or not all(
            map(table.__contains__, product(range(self.n_settings), self.hidden_values))
        ):
            expected = set(product(range(self.n_settings), self.hidden_values))
            missing = expected - set(table)
            extra = set(table) - expected
            raise StructureError(
                f"response table keys mismatch (missing {sorted(map(str, missing))[:4]}, "
                f"extra {sorted(map(str, extra))[:4]})"
            )
        previous = None
        for key, row in table.items():
            if row is not previous:
                if not isinstance(row, tuple):
                    raise _row_error(self.party, key, f"expected a tuple row, got {row!r}")
                _check_prob_row(row, DEFAULT_TOLERANCE, self.party, key)
                previous = row

    def row(self, x: int, lam: Label) -> tuple:
        if not 0 <= x < self.n_settings:
            raise IndexError(f"setting {x} out of range for {self.n_settings} settings")
        if lam not in self.hidden_values:
            raise KeyError(f"unknown hidden value {lam!r}")
        return self.table[(x, lam)]


def local_expectation(response: LocalResponse, x: int, lam: Label):
    """Expectation sum_y y P(y | x, lam) of the +-1 outcome at setting `x`, in [-1, 1]."""
    p_minus, p_plus = response.row(x, lam)
    return p_plus - p_minus


def _refuse_mixed_arithmetic(kinds: set[type]) -> None:
    """Refuse weight types that mix inexact (`float`) and exact non-integer
    (`Fraction`) numbers; integers go with either."""
    inexact = sorted(k.__name__ for k in kinds if not issubclass(k, numbers.Rational))
    exact = sorted(k.__name__ for k in kinds
                   if issubclass(k, numbers.Rational) and not issubclass(k, numbers.Integral))
    if inexact and exact:
        raise StructureError(f"weights mix {inexact[0]} and {exact[0]} arithmetic")


@dataclass(frozen=True)
class QuasiDist:
    """Signed weights summing to 1 over joint hidden-variable points, kept read-only.

    They must not mix `float` and `Fraction` (ints go with either; StructureError names
    both types).  A single hidden variable is the diagonal support (lam, lam) (`diagonal`)."""

    support: tuple[Point, ...]
    weights: Mapping[Point, object]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))
        if not self.support:
            raise StructureError("support must be non-empty")
        if len(set(self.support)) != len(self.support):
            raise StructureError("support contains duplicate points")
        if set(self.weights.keys()) != set(self.support):
            raise StructureError("weights keys must match support exactly")
        kinds = set(map(type, self.weights.values()))
        if len(kinds) > 1:
            _refuse_mixed_arithmetic(kinds)
        total = sum(self.weights[p] for p in self.support)
        if not (total == 1 or abs(total - 1) <= DEFAULT_TOLERANCE):
            raise StructureError(f"weights sum to {total!r}, not 1")

    @classmethod
    def diagonal(cls, weights: Mapping[Label, object]) -> "QuasiDist":
        """Build a distribution over a single hidden variable, stored as (lam, lam)."""
        support = tuple((lam, lam) for lam in weights)
        return cls(support=support, weights={(lam, lam): w for lam, w in weights.items()})

    def is_all_positive(self) -> bool:
        return all(self.weights[p] >= 0 for p in self.support)

    def negative_mass(self):
        """Total weight below zero: sum of max(0, -w)."""
        return sum(-w for w in self.weights.values() if w < 0)

    def total_variation(self):
        """Sum of absolute weights; 1 for ordinary distributions."""
        return sum(abs(w) for w in self.weights.values())


@dataclass(frozen=True)
class Model:
    """Two local response tables mixed by a signed weight table.

    A model is a value, so its mixed cells and default-tolerance behavior are kept on it
    when first needed; to change one, build a new one, e.g. with `dataclasses.replace`."""

    response_A: LocalResponse
    response_B: LocalResponse
    dist: QuasiDist

    def __post_init__(self) -> None:
        values_a = set(self.response_A.hidden_values)
        values_b = set(self.response_B.hidden_values)
        for lam_a, lam_b in self.dist.support:
            if lam_a not in values_a or lam_b not in values_b:
                raise StructureError(
                    f"support point ({lam_a!r}, {lam_b!r}) does not index both response tables"
                )

    @property
    def n_settings(self) -> int:
        """Settings available to both parties."""
        return min(self.response_A.n_settings, self.response_B.n_settings)

    @cached_property
    def _cells(self) -> dict[tuple[int, int], tuple]:
        """The mixed behavior table, computed on first use; not a field."""
        return _mix(self)

    @cached_property
    def _behavior(self) -> Behavior:
        """The default-tolerance behavior `assemble_behavior(model)` returns; not a field.
        A refusal is not kept: each use raises again."""
        return Behavior(self.response_A.n_settings, self.response_B.n_settings, self._cells)


@dataclass(frozen=True)
class Behavior:
    """Observable table P(y_A, y_B | x_A, x_B), rows ordered (--, -+, +-, ++), read-only.

    Rows are tuples normalized within `tolerance`, which must be non-negative and finite, so
    no entry is NaN or infinite.  Entries outside [0, 1] are allowed: signed mixtures
    produce them, and `validate_behavior` reports them."""

    n_settings_A: int
    n_settings_B: int
    table: Mapping[tuple[int, int], tuple]
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.n_settings_A < 1 or self.n_settings_B < 1:
            raise StructureError("setting counts must be positive")
        _check_tolerance(self.tolerance)
        table = dict(self.table)
        object.__setattr__(self, "table", MappingProxyType(table))
        # As many keys as pairs, and each pair a key: the keys are the pairs.
        n_a, n_b = self.n_settings_A, self.n_settings_B
        if len(table) != n_a * n_b or not all(
            map(table.__contains__, product(range(n_a), range(n_b)))
        ):
            raise StructureError("behavior table must have exactly one row per setting pair")
        items = table.items()
        if _shares_rows(table.values()):
            items = _first_occurrences(items)
        for pair, row in items:
            if not isinstance(row, tuple):
                raise StructureError(f"row {pair}: expected a tuple, got {row!r}")
            if len(row) != 4:
                raise StructureError(f"row {pair}: expected 4 outcome entries")
            total = sum(row)
            if not (total == 1 or abs(total - 1) <= self.tolerance):
                raise StructureError(f"row {pair} sums to {total!r}, not 1")

    def row(self, x_a: int, x_b: int) -> tuple:
        if not (0 <= x_a < self.n_settings_A and 0 <= x_b < self.n_settings_B):
            raise IndexError(f"setting pair ({x_a}, {x_b}) out of range")
        return self.table[(x_a, x_b)]

    def setting_pairs(self) -> list[tuple[int, int]]:
        return [
            (xa, xb) for xa in range(self.n_settings_A) for xb in range(self.n_settings_B)
        ]

    def to_json_dict(self) -> dict:
        """Rows as float lists keyed "x_a,x_b"; ValueError names a pair beyond float range."""
        return {f"{xa},{xb}": _floats(self.table[(xa, xb)], (xa, xb))
                for xa, xb in self.setting_pairs()}


def _floats(values, pair) -> list[float]:
    """`values` as floats; ValueError naming `pair` if one is beyond float range."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise ValueError(f"setting pair {pair} has an entry beyond float range") from None


@dataclass(frozen=True)
class ValidityReport:
    """Result of checking a behavior for entry validity and no-signalling."""

    is_valid: bool
    worst_entry: tuple[tuple[int, int], tuple[int, int], object]
    no_signalling_violation: object

    def to_json_dict(self) -> dict:
        """The report with float figures; ValueError if one is beyond float range."""
        (pair, outcomes, value) = self.worst_entry
        (value,) = _floats([value], pair)
        try:
            violation = float(self.no_signalling_violation)
        except OverflowError:
            raise ValueError("the no-signalling violation is beyond float range") from None
        return {
            "is_valid": self.is_valid,
            "worst_entry": {
                "settings": list(pair),
                "outcomes": list(outcomes),
                "value": value,
            },
            "no_signalling_violation": violation,
        }


def _shares_rows(rows) -> bool:
    """Whether some row object occurs more than once among `rows`."""
    # The rows stay alive in the caller's table, so their ids are not reused.
    return len(set(map(id, rows))) < len(rows)


def _first_occurrences(items):
    """The (key, row) `items` whose row object has not occurred before, in order."""
    first: dict[int, tuple] = {}
    for key, row in items:
        first.setdefault(id(row), (key, row))
    return first.values()


def _setting_reps(points: list, side: int) -> list[int] | None:
    """Each setting's first equivalent setting, or None when all differ: settings whose
    rows, Alice's (`side` 1) or Bob's (2), are the same objects at every point."""
    # The rows stay alive in `points`, so their ids are not reused here.
    n_settings = len(points[0][side])
    reps: list[int] = []
    seen: dict[tuple, int] = {}
    for x in range(n_settings):
        reps.append(seen.setdefault(tuple(id(point[side][x]) for point in points), x))
    return reps if len(seen) < n_settings else None


def assemble_behavior(model: Model, tolerance: float = DEFAULT_TOLERANCE) -> Behavior:
    """The model's behavior over its cells, mixed once (`_mix`), at `tolerance`.

    At the default tolerance every call returns the model's one behavior (`Model._behavior`);
    any other gets a new `Behavior` over the same rows, normalized at that tolerance."""
    if tolerance == DEFAULT_TOLERANCE:
        return model._behavior
    return Behavior(
        model.response_A.n_settings, model.response_B.n_settings, model._cells, tolerance
    )


def _mix(model: Model) -> dict[tuple[int, int], tuple]:
    """The behavior table of `model`: one row of four cells per setting pair.

    Each cell sums the products P_A(y_A | x_A, lam_A) P_B(y_B | x_B, lam_B) w
    over the support, so rows are normalized whatever the weights' signs.  A
    product with a zero factor is skipped, which changes neither the value nor
    the float bits of a sum that starts at the zero of the first point's
    arithmetic (`0 + a * b * w * 0`); an all-skipped cell then has the full
    sum's type whenever every product shares that arithmetic.  Settings whose
    rows are the same objects at every point share one cell, mixed once.
    """
    resp_a, resp_b = model.response_A, model.response_B
    table_a, table_b = resp_a.table, resp_b.table
    settings_a, settings_b = range(resp_a.n_settings), range(resp_b.n_settings)
    weights = model.dist.weights
    # Per support point: its weight, Alice's rows and Bob's rows by setting.
    points = [
        (
            weights[(lam_a, lam_b)],
            [table_a[(x, lam_a)] for x in settings_a],
            [table_b[(x, lam_b)] for x in settings_b],
        )
        for lam_a, lam_b in model.dist.support
    ]
    w, rows_a, rows_b = points[0]
    zero = 0 + rows_a[0][0] * rows_b[0][0] * w * 0
    # Equivalent settings share a row object at the first point, so one id set per party
    # settles the case with no shared rows.
    reps_a = reps_b = None
    if len(set(map(id, rows_a))) < len(rows_a):
        reps_a = _setting_reps(points, 1)
    if len(set(map(id, rows_b))) < len(rows_b):
        reps_b = _setting_reps(points, 2)
    cols_a = settings_a if reps_a is None else sorted(set(reps_a))
    cols_b = settings_b if reps_b is None else sorted(set(reps_b))
    table: dict[tuple[int, int], tuple] = {}
    for x_a in cols_a:
        for x_b in cols_b:
            mm = mp = pm = pp = zero
            for w, rows_a, rows_b in points:
                a_minus, a_plus = rows_a[x_a]
                b_minus, b_plus = rows_b[x_b]
                if a_minus:
                    if b_minus:
                        mm += a_minus * b_minus * w
                    if b_plus:
                        mp += a_minus * b_plus * w
                if a_plus:
                    if b_minus:
                        pm += a_plus * b_minus * w
                    if b_plus:
                        pp += a_plus * b_plus * w
            table[(x_a, x_b)] = (mm, mp, pm, pp)
    if reps_a is not None or reps_b is not None:
        reps_a = settings_a if reps_a is None else reps_a
        reps_b = settings_b if reps_b is None else reps_b
        table = {
            (x_a, x_b): table[(reps_a[x_a], reps_b[x_b])]
            for x_a in settings_a
            for x_b in settings_b
        }
    return table


def correlation(behavior: Behavior, x_a: int, x_b: int):
    """Correlator E(x_A, x_B) = sum_y y_A y_B P(y_A, y_B | x_A, x_B)."""
    return _row_correlation(behavior.row(x_a, x_b))


def _row_correlation(row):
    """The correlator of one behavior row (--, -+, +-, ++)."""
    mm, mp, pm, pp = row
    return mm - mp - pm + pp


def validate_behavior(behavior: Behavior, tol: float = DEFAULT_TOLERANCE) -> ValidityReport:
    """Check entry validity (every entry in [-tol, 1+tol]) and no-signalling.

    The no-signalling figure is the largest change of a single-party marginal when the other
    party switches settings.  A negative, infinite or NaN `tol` raises ValueError."""
    _check_tolerance(tol)
    # The worst excess max(-value, value - 1) is the smallest or the largest
    # entry's, found by one scan (first of each in row order); a repeated row
    # object could only tie later, so it is skipped.
    table = behavior.table
    pairs = behavior.setting_pairs()
    rows = list(map(table.__getitem__, pairs))
    lo = hi = rows[0][0]
    lo_at = hi_at = (pairs[0], 0)
    shared = _shares_rows(rows)
    scan = _first_occurrences(zip(pairs, rows)) if shared else zip(pairs, rows)
    for pair, row in scan:
        for k, value in enumerate(row):
            if value < lo:
                lo, lo_at = value, (pair, k)
            elif value > hi:
                hi, hi_at = value, (pair, k)
    low_excess, high_excess = -lo, hi - 1
    worst_excess = max(low_excess, high_excess)
    if high_excess < low_excess or (high_excess == low_excess and lo_at < hi_at):
        (pair, k), value = lo_at, lo
    else:
        (pair, k), value = hi_at, hi
    worst_entry = (pair, OUTCOME_PAIRS[k], value)
    if high_excess >= low_excess and hi >= 2**53:
        # Above 2**53, `value - 1` rounds, so a smaller entry can tie the largest.
        worst_entry = next(
            (pair, outcomes, value)
            for pair in pairs
            for outcomes, value in zip(OUTCOME_PAIRS, table[pair])
            if max(-value, value - 1) == worst_excess
        )
    is_valid = worst_excess <= tol

    # Alice's lines fix x_A and sum outcome pairs (0, 1) and (2, 3); Bob's fix
    # x_B and sum (0, 2) and (1, 3).  A repeated row or line adds copies of
    # marginals already seen, moving no max or min, so it is skipped.  Spreads
    # are folded party by party, setting by setting, outcome -1 first, so ties
    # keep the type they had with one list per outcome.
    violation = 0
    n_b = behavior.n_settings_B
    alice_lines = [rows[start:start + n_b] for start in range(0, len(rows), n_b)]
    for lines, (m1, m2, p1, p2) in (
        (alice_lines, (0, 1, 2, 3)),
        (zip(*alice_lines), (0, 2, 1, 3)),
    ):
        if shared:
            first: dict[tuple, tuple] = {}
            for line in lines:
                first.setdefault(tuple(map(id, line)), line)
            lines = first.values()
        for line in lines:
            minus, plus = [], []
            previous = None
            for row in line:
                if row is not previous:
                    previous = row
                    minus.append(row[m1] + row[m2])
                    plus.append(row[p1] + row[p2])
            violation = max(violation, max(minus) - min(minus))
            violation = max(violation, max(plus) - min(plus))

    return ValidityReport(
        is_valid=is_valid,
        worst_entry=worst_entry,
        no_signalling_violation=violation,
    )
