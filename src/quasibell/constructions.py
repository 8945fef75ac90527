"""Explicit saturating model families for the witness-augmented Bell bounds.

The n-setting family mixes four deterministic symbol strategies, weights
(4+N)/12 on the three scoring 2n-2 and -N/4 on the one scoring 2n-6, for a
budget N in [0, 2]: score 2n-2+N with chained witness exactly N.  Its n=2
link is the CHSH family.  Budgets above 2 give invalid behaviors, so 2 is
also the no-signalling ceiling.  With `exact=True` the weights are
`Fraction`s over int 0/1 responses, and every behavior entry is an exact
twelfth.  Response rows are four shared immutable tuples, so settings that
answer alike share row objects, whose arithmetic the check path does once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import _MAX_SETTINGS, Label, LocalResponse, Model, QuasiDist

PLUS = "+"
MINUS = "-"

_SIGN_VALUE = {PLUS: +1, MINUS: -1}


@dataclass(frozen=True)
class SymbolStrategy:
    """A deterministic strategy pair: one outcome symbol per setting per party."""

    symbols_A: tuple[str, ...]
    symbols_B: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.symbols_A) != len(self.symbols_B):
            raise ValueError("both parties need one symbol per setting")
        if not self.symbols_A:
            raise ValueError("strategies need at least one setting")
        for sym in self.symbols_A + self.symbols_B:
            if sym not in _SIGN_VALUE:
                raise ValueError(f"symbols must be '+' or '-', got {sym!r}")

    @property
    def n_settings(self) -> int:
        return len(self.symbols_A)

    def signs_A(self) -> tuple[int, ...]:
        return tuple(_SIGN_VALUE[s] for s in self.symbols_A)

    def signs_B(self) -> tuple[int, ...]:
        return tuple(_SIGN_VALUE[s] for s in self.symbols_B)


#: The deterministic rows by (answers +1, exact).  Exact rows hold ints, so
#: only products with a `Fraction` weight are `Fraction`s.
_DETERMINISTIC_ROWS = {
    (True, False): (0.0, 1.0),
    (False, False): (1.0, 0.0),
    (True, True): (0, 1),
    (False, True): (1, 0),
}


def model_from_strategies(strategies: dict[Label, SymbolStrategy], weights: dict) -> Model:
    """Diagonal model mixing one deterministic strategy per hidden value."""
    if set(strategies) != set(weights):
        raise ValueError("strategies and weights must cover the same labels")
    labels = tuple(strategies)
    n_values = {s.n_settings for s in strategies.values()}
    if len(n_values) != 1:
        raise ValueError("all strategies must share a setting count")
    (n,) = n_values
    exact = any(isinstance(w, Fraction) for w in weights.values())
    table_a = {}
    table_b = {}
    for label in labels:
        strat = strategies[label]
        for x, s in enumerate(strat.signs_A()):
            table_a[(x, label)] = _DETERMINISTIC_ROWS[(s == +1, exact)]
        for x, s in enumerate(strat.signs_B()):
            table_b[(x, label)] = _DETERMINISTIC_ROWS[(s == +1, exact)]
    resp_a = LocalResponse(party="A", n_settings=n, hidden_values=labels, table=table_a)
    resp_b = LocalResponse(party="B", n_settings=n, hidden_values=labels, table=table_b)
    return Model(response_A=resp_a, response_B=resp_b, dist=QuasiDist.diagonal(weights))


def saturating_strategies(n: int) -> dict[Label, SymbolStrategy]:
    """The n-setting family's strategies: "1".."3" score 2n-2 and carry positive weight, and
    "4" scores 2n-6 and carries the negative weight."""
    if n < 2:
        raise ValueError("the saturating family needs n >= 2")
    if n > _MAX_SETTINGS:
        raise ValueError(f"the saturating family is limited to n <= {_MAX_SETTINGS}")
    all_minus = (MINUS,) * n
    all_plus = (PLUS,) * n
    minus_then_plus = (MINUS,) * (n - 1) + (PLUS,)
    plus_then_minus = (PLUS,) + (MINUS,) * (n - 1)
    return {
        "1": SymbolStrategy(all_minus, minus_then_plus),
        "2": SymbolStrategy(plus_then_minus, all_minus),
        "3": SymbolStrategy(all_plus, all_plus),
        "4": SymbolStrategy(plus_then_minus, minus_then_plus),
    }


def saturating_weights(negativity, exact: bool = False) -> dict:
    """Weights (4+N)/12 on labels "1".."3" and -N/4 on "4", summing to 1: `Fraction`s with
    `exact`, else floats, a budget beyond float range then raising ValueError."""
    if exact:
        n_val = Fraction(negativity)
    else:
        try:
            n_val = float(negativity)
        except OverflowError:
            raise ValueError("the negativity budget is beyond float range") from None
    positive = (4 + n_val) / 12
    negative = -n_val / 4
    return {"1": positive, "2": positive, "3": positive, "4": negative}


def chained_saturating_model(
    n: int, negativity, exact: bool = False, force: bool = False
) -> Model:
    """Four-strategy diagonal model saturating the n-setting bound at budget N.  A budget
    outside [0, 2], the validity ceiling, raises ValueError unless `force` builds it anyway."""
    if not force and not 0 <= negativity <= 2:
        raise ValueError(
            f"negativity budget {negativity!r} outside [0, 2]; pass force=True to "
            "build the invalid model anyway"
        )
    return model_from_strategies(
        saturating_strategies(n), saturating_weights(negativity, exact=exact)
    )


def chsh_saturating_model(negativity, exact: bool = False, force: bool = False) -> Model:
    """The 2-setting saturating family: score 2+N, case-selected witness N."""
    return chained_saturating_model(2, negativity, exact=exact, force=force)
