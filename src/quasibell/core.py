"""Core types for two-party Bell experiments with signed hidden-variable mixtures.

A model consists of one local response table per party and a normalized,
possibly signed, weight table over joint hidden-variable values.  Mixing the
per-value response tables with those weights yields the observable behavior
P(y_A, y_B | x_A, x_B).  Weights may be negative; the behavior is then not
guaranteed to be a valid probability table, which is why validity is a check
(`validate_behavior`) rather than a construction-time requirement.

All arithmetic is duck-typed: tables built from `float` entries stay in float,
tables built from `fractions.Fraction` entries stay exact.  Outcomes are
y in {-1, +1}; index 0 maps to -1 and index 1 to +1, so four-outcome rows are
ordered (--, -+, +-, ++).

Four habits keep the exact path cheap without a second code path.  Mixing
skips every product whose Alice or Bob factor is zero (each deterministic
row has one), which cannot change a sum's value, type or float bits.  Range
and normalization checks test the exact condition (`0 <= p <= 1`,
`total == 1`) first and compare against the float tolerance only when it
fails, so exact entries are rarely converted to compare with a float.
Shared row objects are mixed and checked once: settings whose rows are the
same objects at every support point share one mixed cell, and every check
skips a row that is the same object as any row before it.  Identity, not
value equality, decides this, so a shared cell is computed from the same
operands in the same order as each of its copies would have been, and a
skipped row's figures are those of its first occurrence.  Each model's
cells are mixed once and its default-tolerance behavior is built once:
`assemble_behavior` at the default tolerance, and every check that
assembles the behavior itself, gets that one `Behavior`, and any other
tolerance gets a new one over the same cells.  Sharing it is safe because
`LocalResponse`, `QuasiDist` and `Behavior` are values: each keeps a
read-only copy of the table it was given, so no table changes after it
was checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Hashable, Mapping

DEFAULT_TOLERANCE = 1e-9

#: Most settings a party may have.  A behavior has one row per setting pair,
#: so its table grows as the square: `saturate --n 1000` took 18 s and
#: peaked at 0.92 GB RSS on a 2-core machine, and a few thousand settings
#: would exhaust memory.
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
    """Per-hidden-value conditional outcome tables for one party.

    `table` maps (setting, hidden value) to a probability row, a tuple
    (P(y=-1), P(y=+1)).  Every setting in range(n_settings) must be paired
    with every hidden value.  The table is kept as a read-only copy.
    """

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
    """Expectation of the +-1 outcome at setting `x` in the local scenario `lam`.

    Returns sum_y y * P(y | x, lam), always in [-1, 1].
    """
    p_minus, p_plus = response.row(x, lam)
    return p_plus - p_minus


@dataclass(frozen=True)
class QuasiDist:
    """Signed, normalized weight table over joint hidden-variable points.

    Weights must sum to 1 but may be negative.  Single-hidden-variable models
    are represented with a diagonal support (lam, lam); see `diagonal`.
    The weights are kept as a read-only copy.
    """

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

    A model is a value: its response tables and weights are read-only, so
    the mixed cells and the default-tolerance behavior over them are kept
    on the model the first time they are needed.  To change a model, build
    a new one, for example with `dataclasses.replace`.
    """

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
        """The model's behavior at the default tolerance; not a field.

        `assemble_behavior(model)` returns it, and the checks that assemble
        the behavior themselves read it.  A refusal is not kept: each use
        raises again.
        """
        return Behavior(self.response_A.n_settings, self.response_B.n_settings, self._cells)


@dataclass(frozen=True)
class Behavior:
    """Observable table P(y_A, y_B | x_A, x_B), rows ordered (--, -+, +-, ++).

    Rows are tuples and must be normalized within `tolerance`, which must be
    non-negative and finite, so no entry is NaN or infinite; entry positivity
    is checked separately by `validate_behavior` because signed mixtures can
    produce normalized rows with entries outside [0, 1].  The table is kept
    as a read-only copy.
    """

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
        # As many keys as setting pairs, and every pair a key: the key set is
        # exactly the pairs, checked without building either set.
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
        """Rows as float lists keyed "x_a,x_b", in setting-pair order."""
        return {f"{xa},{xb}": [float(v) for v in self.table[(xa, xb)]]
                for xa, xb in self.setting_pairs()}


@dataclass(frozen=True)
class ValidityReport:
    """Result of checking a behavior for entry validity and no-signalling."""

    is_valid: bool
    worst_entry: tuple[tuple[int, int], tuple[int, int], object]
    no_signalling_violation: object

    def to_json_dict(self) -> dict:
        (pair, outcomes, value) = self.worst_entry
        return {
            "is_valid": self.is_valid,
            "worst_entry": {
                "settings": list(pair),
                "outcomes": list(outcomes),
                "value": float(value),
            },
            "no_signalling_violation": float(self.no_signalling_violation),
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
    """Each setting's first equivalent setting, or None when all differ.

    `side` picks Alice's (1) or Bob's (2) rows from each `points` entry.
    Two settings are equivalent when their rows are the same objects at
    every support point.
    """
    # The rows stay alive in `points`, so their ids are not reused here.
    n_settings = len(points[0][side])
    reps: list[int] = []
    seen: dict[tuple, int] = {}
    for x in range(n_settings):
        reps.append(seen.setdefault(tuple(id(point[side][x]) for point in points), x))
    return reps if len(seen) < n_settings else None


def assemble_behavior(model: Model, tolerance: float = DEFAULT_TOLERANCE) -> Behavior:
    """Mix the per-hidden-value response tables into the observable behavior.

    The cells are mixed once per model (see `_mix`) and kept on it.  At the
    default tolerance every call returns the model's one behavior over them
    (`Model._behavior`); any other `tolerance` gets a new `Behavior` over
    the same row tuples, with row normalization checked at that tolerance.
    """
    if tolerance == DEFAULT_TOLERANCE:
        return model._behavior
    return Behavior(
        model.response_A.n_settings, model.response_B.n_settings, model._cells, tolerance
    )


def _mix(model: Model) -> dict[tuple[int, int], tuple]:
    """The behavior table of `model`: one row of four cells per setting pair.

    Entry (y_A, y_B | x_A, x_B) sums P_A(y_A | x_A, lam_A) *
    P_B(y_B | x_B, lam_B) * weight over the support points.  Rows are
    normalized automatically regardless of weight signs; entries may still
    fall outside [0, 1], which `validate_behavior` reports.

    A product with a zero Alice or Bob factor is skipped: it is a zero, and
    adding a zero changes neither the value nor the float bits of a sum that
    starts at +0.0.  Each sum starts at the zero of the first support point's
    arithmetic (`0 + a * b * w * 0`), so a cell whose products are all
    skipped has the type the full sum would have had.  This holds whenever
    every product shares that arithmetic, as in every model this package
    builds or reads.

    Settings whose rows are the same objects at every support point give
    the same cell from the same operands, so the cell is mixed once for the
    first of them and every equivalent setting pair refers to that row.
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
    # Equivalent settings have one row object at the first point already, so
    # one set of ids per party settles the case with no shared rows.
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
    """Check entry validity (all entries in [-tol, 1+tol]) and no-signalling.

    The no-signalling figure is the largest change of any single-party
    marginal outcome probability when the other party switches settings.
    A `tol` that is negative, infinite or NaN is refused with ValueError.
    """
    _check_tolerance(tol)
    # The worst excess max(-value, value - 1) belongs to the smallest or the
    # largest entry, so one comparison-only scan finds both (the first of
    # each in row order).  A row that is the same object as an earlier one
    # holds entries the scan has already compared, and could only tie them
    # later, so it is skipped.
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

    # Alice's marginal P(y_A | x_A) must not depend on x_B: each of her lines
    # fixes x_A and sums outcome pairs (0, 1) and (2, 3).  Bob's marginal
    # P(y_B | x_B) must not depend on x_A: his lines fix x_B and sum (0, 2)
    # and (1, 3).  A repeated row would add a copy of a
    # marginal already in its list, which moves neither the max nor the
    # min; a line whose rows are the objects of an earlier line of its party
    # has that line's spreads, and `max` keeps the figure already folded in.
    # Spreads are folded into `violation` party by party, setting by
    # setting, outcome -1 first, so ties keep the type they had with one
    # list per outcome.
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
