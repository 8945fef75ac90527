#!/usr/bin/env python3
"""Print one SHA-256 over the answers of a fixed grid of LP oracle calls.

Two versions of the library that print the same digest give byte-identical
answers on the grid: every `LPResult.to_json_dict()` (status, score, mass,
iterations, HiGHS's status string, `primal_residual`, columns, rows) and
every weight, key and order included.  The grid, 72 LPs at the default
`--max-n 5`:

* `max_score_lp(n, B)` for n = 2..max-n and B in {0, 1/2, 1, 2, inf};
* `min_negativity_lp` of the saturating family at n = 2..max-n, N in {1/2, 1, 2};
* the singlet at the chained-optimal angles with 0, 1e-12, 1e-9, 1e-7, 2e-7
  or 1e-3 moved between two cells of row (1, 0), which makes it signal, so
  that from 1e-9 on it is INFEASIBLE before HiGHS;
* the singlet with 1e-9 moved into the correlator of row (0, 0), from -+ to
  -- and from +- to ++: no-signalling, and fixed by some relabellings only
  within the slack.  At n = 3 and 5 those are no group, so HiGHS gets all
  2 * 4^n columns;
* the Werner state at visibility 0.8, at the same angles;
* the N = 1 family with 1e-12 moved within row (1, n-2) or (0, n-1), n >= 3;
* a 2-setting target whose Bob marginal follows Alice's setting (INFEASIBLE);
* a 2-setting target with every row (1e300, -1e300, 1/2, 1/2): no-signalling,
  but HiGHS refuses its row bounds as a model error (FAILED).

Each `--order` seed runs the whole grid once in its own shuffled order, so
answers that depend on what was solved before show as a mismatch: the
script then exits 1.  The digest hashes the answers in grid order.

Before the digest it prints the total rows and columns handed to HiGHS
over the grid, so a change of program size shows without a dump.

`--dump PATH` also writes the first order's answers to PATH as JSON lines,
one per LP in grid order: its name, its `to_json_dict()` and its weights as
`[[s_a, s_b], w]` pairs, so two versions that print different digests can
be diffed field by field.  `--compare OLD` diffs them here: it prints
each LP of the first order whose dump line differs from OLD's, such a dump
of another version, with each field that differs, old value first, and
`weights` when any weight differs.  It counts the LPs that differ, then
ends with one line for each numeric `to_json_dict()` field that moved on
some LP present in both, with the number of LPs it moved on and its largest
|new - old| over the grid, fields in name order.  It exits 0 whatever they
are.

    python scripts/lp_grid_digest.py --order 1 2 3
    python scripts/lp_grid_digest.py --dump grid.jsonl
    python scripts/lp_grid_digest.py --compare grid.jsonl
"""

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from quasibell import (
    Behavior,
    assemble_behavior,
    chained_saturating_model,
    max_score_lp,
    min_negativity_lp,
    quantum_behavior,
    singlet_state,
)

BUDGETS = (0.0, 0.5, 1.0, 2.0, math.inf)
FAMILY_BUDGETS = (0.5, 1.0, 2.0)
MOVES = (0.0, 1e-12, 1e-9, 1e-7, 2e-7, 1e-3)


def singlet(n: int, visibility: float = 1.0) -> Behavior:
    """The Werner state v * singlet + (1 - v) * I/4 at Alice's i*pi/n and Bob's (j + 1/2)*pi/n."""
    return quantum_behavior(
        visibility * singlet_state() + (1 - visibility) * np.eye(4) / 4,
        [i * math.pi / n for i in range(n)],
        [(j + 0.5) * math.pi / n for j in range(n)],
    )


def move(target: Behavior, pair, source: int, sink: int, size: float, tolerance: float) -> Behavior:
    """`target` with `size` moved from cell `source` to cell `sink` of row `pair`."""
    table = dict(target.table)
    row = list(table[pair])
    row[source] -= size
    row[sink] += size
    table[pair] = tuple(row)
    return Behavior(target.n_settings_A, target.n_settings_B, table, tolerance=tolerance)


def grid(max_n: int) -> list:
    """(name, call) for every LP of the grid, in grid order."""
    chains = range(2, max_n + 1)
    calls = [(f"score n={n} B={b}", lambda n=n, b=b: max_score_lp(n, b))
             for n in chains for b in BUDGETS]
    for n in chains:
        for b in FAMILY_BUDGETS:
            target = assemble_behavior(chained_saturating_model(n, b))
            calls.append((f"family n={n} N={b}", lambda t=target: min_negativity_lp(t)))
    for n in chains:
        base = singlet(n)
        for size in MOVES:
            target = move(base, (1, 0), 2, 3, size, base.tolerance)
            calls.append((f"singlet n={n} moved={size:g}", lambda t=target: min_negativity_lp(t)))
        target = move(base, (0, 0), 1, 0, 1e-9, base.tolerance)
        target = move(target, (0, 0), 2, 3, 1e-9, base.tolerance)
        calls.append((f"singlet n={n} correlator moved=1e-09",
                      lambda t=target: min_negativity_lp(t)))
    for n in chains:
        calls.append((f"werner n={n} v=0.8", lambda t=singlet(n, 0.8): min_negativity_lp(t)))
    for n in chains:
        if n >= 3:
            family = assemble_behavior(chained_saturating_model(n, 1.0))
            for pair, source, sink in (((1, n - 2), 0, 3), ((0, n - 1), 1, 2)):
                target = move(family, pair, source, sink, 1e-12, 1e-9)
                calls.append((f"family n={n} N=1 moved in row {pair}",
                              lambda t=target: min_negativity_lp(t)))
    signalling = Behavior(2, 2, {(0, 0): (1.0, 0.0, 0.0, 0.0), (0, 1): (1.0, 0.0, 0.0, 0.0),
                                 (1, 0): (0.0, 1.0, 0.0, 0.0), (1, 1): (0.0, 1.0, 0.0, 0.0)})
    calls.append(("signalling", lambda: min_negativity_lp(signalling)))
    huge = Behavior(2, 2, {pair: (1e300, -1e300, 0.5, 0.5) for pair in signalling.table})
    calls.append(("model error", lambda: min_negativity_lp(huge)))
    return calls


def answer(result) -> bytes:
    """The result's JSON fields and its weights, as exact text."""
    payload = json.dumps(result.to_json_dict(), sort_keys=True, allow_nan=False)
    return f"{payload}\n{sorted(result.weights.items())!r}\n".encode()


def dump_line(name: str, result) -> str:
    """One JSON line: the LP's name, its JSON fields and its weights in key order."""
    return json.dumps({
        "name": name,
        "result": result.to_json_dict(),
        "weights": sorted(result.weights.items()),
    }, sort_keys=True, allow_nan=False) + "\n"


def differences(old: dict | None, new: dict | None) -> list[str]:
    """What differs between two parsed dump lines of one LP: JSON fields, then weights."""
    if old is None or new is None:
        return ["only in OLD" if new is None else "not in OLD"]
    fields = [f"{key} {old['result'].get(key)!r} -> {new['result'].get(key)!r}"
              for key in sorted(old["result"].keys() | new["result"].keys())
              if old["result"].get(key) != new["result"].get(key)]
    if old["weights"] != new["weights"]:
        fields.append(f"weights ({len(old['weights'])} -> {len(new['weights'])} entries)")
    return fields


def compare(path: str, calls: list, results: list) -> None:
    """Print each LP whose dump line differs from the one of its name in the dump at `path`."""
    with open(path) as lines:
        old = {entry["name"]: entry for entry in map(json.loads, lines)}
    new = {name: json.loads(dump_line(name, r)) for (name, _), r in zip(calls, results)}
    differing = 0
    for name in [*new, *(name for name in old if name not in new)]:
        fields = differences(old.get(name), new.get(name))
        if fields:
            differing += 1
            print(f"{name}: {'; '.join(fields)}")
    print(f"{differing} of {len(new)} LPs differ from {path}")
    moved = {}
    for name in new.keys() & old.keys():
        for key, value in new[name]["result"].items():
            before = old[name]["result"].get(key)
            if number(value) and number(before) and value != before:
                moved.setdefault(key, []).append(abs(value - before))
    for key, deltas in sorted(moved.items()):
        print(f"{key} moved on {len(deltas)} LPs, largest |delta| {max(deltas)!r}")


def number(value) -> bool:
    """Whether a parsed JSON value is a number, not a bool or null."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5, help="largest setting count, 2..5")
    parser.add_argument("--order", type=int, nargs="+", default=[0],
                        help="seeds of the call orders; the grid runs once per seed")
    parser.add_argument("--dump", metavar="PATH",
                        help="write the first order's answers to PATH as JSON lines")
    parser.add_argument("--compare", metavar="OLD",
                        help="print the first order's answers that differ from the dump OLD")
    args = parser.parse_args()
    if not 2 <= args.max_n <= 5:
        parser.error("--max-n must be 2..5")

    calls = grid(args.max_n)
    digests = []
    for seed in args.order:
        results = [None] * len(calls)
        for i in np.random.default_rng(seed).permutation(len(calls)).tolist():
            results[i] = calls[i][1]()
        if not digests:
            if args.compare is not None:
                compare(args.compare, calls, results)
            if args.dump is not None:
                with open(args.dump, "w") as out:
                    out.writelines(dump_line(name, r) for (name, _), r in zip(calls, results))
        digest = hashlib.sha256(b"".join(map(answer, results))).hexdigest()
        print(f"order {seed}: {digest}")
        digests.append(digest)
    print(f"{len(calls)} LPs, {len(args.order)} orders")
    if len(set(digests)) != 1:
        print("answers depend on the call order", file=sys.stderr)
        return 1
    # Every order gave the same answers, so the last order's sizes are all orders'.
    print(f"HiGHS rows {sum(r.rows for r in results)}, columns {sum(r.columns for r in results)}")
    print(f"digest {digests[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
