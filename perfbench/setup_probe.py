"""Set-up probe: import quasibell, warm it up for one workload, print "ready".

The benchmark starts this script in a fresh interpreter and times it from
spawn to the "ready" line; that is the `setup_s` of the workload.  The probe
then prints the mean time of a `reference_work()` call in this interpreter,
which the benchmark uses to scale the set-up time to reference machine
speed.  Usage:

    PYTHONPATH=src python perfbench/setup_probe.py <workload>
"""

from __future__ import annotations

import sys
from time import perf_counter

#: `reference_work()` calls a probe times after it is ready.
REFERENCE_CALLS = 30


def reference_work() -> int:
    """Fixed pure-Python work, independent of quasibell, whose time tracks machine speed."""
    total = 0
    for i in range(20_000):
        total += i * i
    return total


def warm_up(workload: str) -> None:
    """Import what the workload's first op needs and pay its one-time costs."""
    if workload == "cli":
        import quasibell.cli

        quasibell.cli.build_parser()
        return
    import quasibell

    if workload == "oracle":
        quasibell.max_score_lp(2, 1.0)
    else:
        model = quasibell.chsh_saturating_model(1, exact=workload == "exact")
        quasibell.check_quasi_bell(model, 2)


if __name__ == "__main__":
    warm_up(sys.argv[1])
    print("ready", flush=True)
    start = perf_counter()
    for _ in range(REFERENCE_CALLS):
        reference_work()
    print((perf_counter() - start) / REFERENCE_CALLS, flush=True)
