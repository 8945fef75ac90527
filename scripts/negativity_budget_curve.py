#!/usr/bin/env python3
"""Trace the maximal Bell score as a function of the negativity budget.

Solves the strategy-mixture LP for a grid of faithful-witness budgets and
compares the curve against its closed form min(2n, (2n-2)(1 + budget/4)),
which at n=2 is the saturating family's min(4, 2 + budget/2).  Exits 1 if
the LP misses the closed form by more than 1e-6 anywhere.  Marks the
classical point (budget 0), the two-qubit maximum (score 2*sqrt(2) at n=2),
and the no-signalling ceiling.

    python scripts/negativity_budget_curve.py --n 2 --steps 13 --csv out.csv
"""

import argparse
import csv
import math
import sys

from quasibell import max_score_lp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2, help="settings per party")
    parser.add_argument("--max-budget", type=float, default=6.0)
    parser.add_argument("--steps", type=int, default=13)
    parser.add_argument("--csv", type=str, default=None, help="also write rows to this file")
    args = parser.parse_args()

    n = args.n
    ceiling = 2.0 * n
    closed_form = lambda b: min(ceiling, (2 * n - 2) * (1 + b / 4))
    rows = []
    print(f"{'budget':>8} {'lp_score':>10} {'closed':>10} {'gap':>10}")
    for step in range(args.steps):
        budget = args.max_budget * step / (args.steps - 1)
        result = max_score_lp(n, budget)
        gap = result.optimal_score - closed_form(budget)
        rows.append((budget, result.optimal_score, closed_form(budget), gap))
        marks = []
        if budget == 0:
            marks.append("classical")
        if n == 2 and abs(result.optimal_score - 2 * math.sqrt(2)) < 5e-3:
            marks.append("two-qubit max")
        if abs(result.optimal_score - ceiling) < 1e-7:
            marks.append("no-signalling ceiling")
        print(f"{budget:>8.3f} {result.optimal_score:>10.6f} {closed_form(budget):>10.6f} "
              f"{gap:>10.2e}  {' / '.join(marks)}")

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["budget", "lp_score", "closed_form_score", "gap"])
            writer.writerows(rows)
        print(f"wrote {args.csv}")

    if any(abs(gap) > 1e-6 for *_, gap in rows):
        print(f"LP missed the closed form at n={n}; investigate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
