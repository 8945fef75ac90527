#!/usr/bin/env python3
"""Print one SHA-256 over the answers of a fixed grid of model checks.

The model-side twin of `lp_grid_digest.py`.  Two versions of the library
that print the same digest give byte-identical answers on the grid: the
`repr` of every behavior table as a dict (entry bits, types and row
order), every `validate_behavior(...).to_json_dict()`, and every
`check_quasi_bell(...).to_json_dict()` with the `repr` of its score, bound
and margin, which keeps exact answers exact.  The grid, 124 models at the
default `--max-n 12`:

* 40 random diagonal float models on 3 settings, 2-6 hidden values,
  signed weights, about one row in four a shared deterministic row;
* the `Fraction` saturating families at n = 2..max-n, N in {0, 1/2, 1, 2};
* 40 random joint-support float models on 3 settings, the full
  product of 2 Alice and 3 Bob hidden values.

Each model gets these calls: `assemble_behavior` at tolerance 1/2 and at
tolerance 0 (which may refuse a row that sums to 1 only within 1e-9; the
refusal is the answer), `validate_behavior` of the default-tolerance
behavior, and `check_quasi_bell` at n = 2 and at the model's largest n.
Each `--order` seed builds the grid afresh and makes every call once in its
own shuffled order, across and within models, so an answer that depends on
which call came first, such as a cell kept from an earlier call, shows as a
mismatch: the script then exits 1.  Each seed also makes every call, in
the same order, on two twins, and a twin's answers must be those of its
model, or the script exits 1:

* every model's unshared twin, whose response rows are distinct copies of
  the model's: the library does a shared row object's arithmetic once;
* every family model's `Fraction`-row twin, whose int 0/1 response rows are
  `Fraction` tuples, one per distinct row object, so the sharing is kept:
  int entries must give the exact answers, of the same types, that
  `Fraction` entries give.

The digest hashes the model's answers in grid order.

    python scripts/model_grid_digest.py --order 1 2 3
"""

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction

from quasibell import (
    LocalResponse,
    Model,
    QuasiDist,
    StructureError,
    assemble_behavior,
    chained_saturating_model,
    check_quasi_bell,
    validate_behavior,
)

SETTINGS = 3
#: Random models of each kind, diagonal and joint support.
RANDOM_MODELS = 40
FAMILY_BUDGETS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
#: Deterministic rows shared by every random model that draws one.
DETERMINISTIC = ((1.0, 0.0), (0.0, 1.0))


def random_row(rng: random.Random) -> tuple:
    if rng.random() < 0.25:
        return DETERMINISTIC[rng.randrange(2)]
    p = rng.random()
    return (1.0 - p, p)


def signed_weights(rng: random.Random, count: int) -> list[float]:
    """`count` weights summing to 1 within rounding; usually one is negative."""
    raw = [rng.random() for _ in range(count)]
    if rng.random() < 0.75:
        raw[rng.randrange(count)] = -rng.uniform(0.01, 0.3)
    total = sum(raw)
    return [w / total for w in raw]


def response(rng: random.Random, party: str, labels: tuple) -> LocalResponse:
    table = {(x, lam): random_row(rng) for lam in labels for x in range(SETTINGS)}
    return LocalResponse(party, SETTINGS, labels, table)


def diagonal_model(rng: random.Random) -> Model:
    labels = tuple(str(i) for i in range(rng.randint(2, 6)))
    dist = QuasiDist.diagonal(dict(zip(labels, signed_weights(rng, len(labels)))))
    return Model(response(rng, "A", labels), response(rng, "B", labels), dist)


def joint_model(rng: random.Random) -> Model:
    labels_a, labels_b = ("a0", "a1"), ("b0", "b1", "b2")
    support = tuple((a, b) for a in labels_a for b in labels_b)
    dist = QuasiDist(support, dict(zip(support, signed_weights(rng, len(support)))))
    return Model(response(rng, "A", labels_a), response(rng, "B", labels_b), dist)


def unshared(model: Model) -> Model:
    """`model` with every response row a distinct tuple object."""
    def copied(resp: LocalResponse) -> LocalResponse:
        table = {key: tuple(list(row)) for key, row in resp.table.items()}
        return LocalResponse(resp.party, resp.n_settings, resp.hidden_values, table)

    return Model(copied(model.response_A), copied(model.response_B), model.dist)


def fraction_rows(model: Model) -> Model:
    """`model` with each distinct response row object one tuple of `Fraction`s."""
    twins: dict[int, tuple] = {}

    def converted(resp: LocalResponse) -> LocalResponse:
        table = {}
        for key, row in resp.table.items():
            if id(row) not in twins:
                twins[id(row)] = tuple(map(Fraction, row))
            table[key] = twins[id(row)]
        return LocalResponse(resp.party, resp.n_settings, resp.hidden_values, table)

    return Model(converted(model.response_A), converted(model.response_B), model.dist)


def models(max_n: int) -> list[tuple[str, Model, int]]:
    """(name, model, largest chain length) for every model, in grid order."""
    rng = random.Random(20211)
    grid = [(f"diagonal {i}", diagonal_model(rng), SETTINGS) for i in range(RANDOM_MODELS)]
    grid += [(f"family n={n} N={budget}", chained_saturating_model(n, budget, exact=True), n)
             for n in range(2, max_n + 1) for budget in FAMILY_BUDGETS]
    grid += [(f"joint {i}", joint_model(rng), SETTINGS) for i in range(RANDOM_MODELS)]
    return grid


def assembled(model: Model, tolerance: float) -> str:
    try:
        return repr(dict(assemble_behavior(model, tolerance).table))
    except StructureError as error:
        return f"StructureError: {error}"


def validated(model: Model) -> str:
    behavior = assemble_behavior(model)
    report = json.dumps(validate_behavior(behavior).to_json_dict(), sort_keys=True,
                        allow_nan=False)
    return f"{report}\n{dict(behavior.table)!r}"


def checked(model: Model, n: int) -> str:
    report = check_quasi_bell(model, n)
    payload = json.dumps(report.to_json_dict(), sort_keys=True, allow_nan=False)
    return f"{payload}\n{(report.score, report.bound, report.margin)!r}"


def calls(grid: list) -> list:
    """(name, call) for every call on every model, in grid order."""
    result = []
    for name, model, max_chain in grid:
        result += [
            (f"{name} assemble tol=0.5", lambda m=model: assembled(m, 0.5)),
            (f"{name} assemble tol=0", lambda m=model: assembled(m, 0)),
            (f"{name} validate", lambda m=model: validated(m)),
        ]
        result += [(f"{name} check n={n}", lambda m=model, n=n: checked(m, n))
                   for n in sorted({2, max_chain})]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=12,
                        help="largest chain length of the Fraction families, 2..12")
    parser.add_argument("--order", type=int, nargs="+", default=[0],
                        help="seeds of the call orders; the grid runs once per seed")
    args = parser.parse_args()
    if not 2 <= args.max_n <= 12:
        parser.error("--max-n must be 2..12")

    digests = []
    for seed in args.order:
        grid = models(args.max_n)
        todo = calls(grid)
        twins = {
            "unshared": dict(calls([(name, unshared(model), n) for name, model, n in grid])),
            "Fraction-row": dict(calls([(name, fraction_rows(model), n)
                                        for name, model, n in grid
                                        if name.startswith("family ")])),
        }
        answers = [""] * len(todo)
        indices = list(range(len(todo)))
        random.Random(seed).shuffle(indices)
        for i in indices:
            answers[i] = f"{todo[i][0]}\n{todo[i][1]()}\n"
        for kind, twin_calls in twins.items():
            differ = [todo[i][0] for i in indices if todo[i][0] in twin_calls
                      and f"{todo[i][0]}\n{twin_calls[todo[i][0]]()}\n" != answers[i]]
            if differ:
                print(f"order {seed}: {len(differ)} answers differ on the {kind} twins, "
                      f"first {differ[0]}", file=sys.stderr)
                return 1
        digest = hashlib.sha256("".join(answers).encode()).hexdigest()
        print(f"order {seed}: {digest}")
        digests.append(digest)
    print(f"{len(grid)} models, {len(todo)} calls, {len(args.order)} orders")
    if len(set(digests)) != 1:
        print("answers depend on the call order", file=sys.stderr)
        return 1
    print(f"digest {digests[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
