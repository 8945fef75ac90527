#!/usr/bin/env python3
"""Sweep the saturating families across chain lengths and negativity budgets.

For every (n, budget) pair the script assembles the four-strategy model,
evaluates score, witness, bound, and margin, validates the behavior, and
cross-checks the score against the brute-force classical bound plus budget.

    python scripts/saturation_sweep.py --max-n 5 --steps 9
"""

import argparse
import sys

from quasibell import (
    assemble_behavior,
    chained_saturating_model,
    check_quasi_bell,
    classical_bound_bruteforce,
    validate_behavior,
    witness_chained,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5, help="largest chain length")
    parser.add_argument("--steps", type=int, default=9, help="budget grid points in [0, 2]")
    args = parser.parse_args()

    print(f"{'n':>2} {'budget':>7} {'score':>9} {'bound':>9} {'margin':>10} "
          f"{'valid':>5} {'links':>24}")
    failures = 0
    for n in range(2, args.max_n + 1):
        classical = classical_bound_bruteforce(n)
        for step in range(args.steps):
            budget = 2.0 * step / (args.steps - 1)
            model = chained_saturating_model(n, budget)
            behavior = assemble_behavior(model)
            result = check_quasi_bell(model, n, behavior=behavior)
            chain = witness_chained(model, n, behavior)
            links = ",".join(f"{term.selected:.3f}" for term in chain.terms)
            valid = validate_behavior(behavior).is_valid
            ok = (
                valid
                and abs(result.margin) <= 1e-9
                and abs(result.score - (classical + budget)) <= 1e-9
            )
            failures += not ok
            print(f"{n:>2} {budget:>7.3f} {result.score:>9.6f} {result.bound:>9.6f} "
                  f"{result.margin:>10.2e} {str(valid):>5} {links:>24}"
                  + ("" if ok else "   <-- MISMATCH"))
    if failures:
        print(f"{failures} mismatches", file=sys.stderr)
        return 1
    print("all sweeps saturate their bounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
