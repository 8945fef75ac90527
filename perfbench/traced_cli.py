"""Run one quasibell CLI command with spans recorded, for the traced `cli` workload.

Usage (the benchmark adds ``-X importtime`` so the import can be split up):

    PYTHONPATH=src python -X importtime perfbench/traced_cli.py SPANS.json ARGV...

It times `import quasibell.cli`, wraps the library in spans, runs
`quasibell.cli.main(ARGV)` and writes the import time, the time in `main` and
the spans to SPANS.json, even when `main` raises.  Exit code, stdout and
stderr are those of `python -m quasibell.cli ARGV...`, apart from the
importtime lines on stderr.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import quasibell.cli

    import_s = perf_counter() - start
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    start = perf_counter()
    try:
        code = quasibell.cli.main(argv)
    finally:
        main_s = perf_counter() - start
        document = tracer.to_json_dict()
        document.update(import_s=import_s, main_s=main_s)
        with open(spans_path, "w") as handle:
            json.dump(document, handle)
    sys.exit(code)
