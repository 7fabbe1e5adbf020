#!/usr/bin/env python3
"""moesense benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload {train,detect,sweep} --seed S \\
        --seconds N --trace {0,1}

The program under test is imported from `./src`; nothing is installed or
built. Training streams come from seed S and the test pool from S+1. The last
line of standard output is the result, `{"correct", "attempted", "failed",
"metrics"}`, with every end-to-end metric under `--trace 0` and every
per-layer metric under `--trace 1`. The line before it is the run's record:
environment, sizes, operation counts per phase and per rate, digests, and the
end-to-end metrics as measured in this run. Traced runs also write their spans
to `.perfbench-out/`. See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Single-threaded load on a 2-core machine; must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

EXIT_NO_PROGRAM = 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train", "detect", "sweep"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = Path.cwd() / "src"
    if not (src / "moesense" / "__init__.py").is_file():
        print(f"error: no moesense sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(src))
    import moesense

    if Path(moesense.__file__).resolve().parent != (src / "moesense").resolve():
        print(f"error: imported moesense from {moesense.__file__}, not from {src}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    from workloads import run_workload

    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
