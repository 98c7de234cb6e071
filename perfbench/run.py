#!/usr/bin/env python3
"""Run one milnet benchmark workload and print its result.

From the repository root:

    python3 perfbench/run.py --workload desk_cv --seed 1 --seconds 12 --trace 0

The last line of standard output is the result, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value and
unit): the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the environment, the output
digests and each repetition.  perfbench/README.md describes the workloads
and every metric.
"""

import os

BLAS_THREADS = 1
# OpenBLAS reads its thread count once, when numpy loads, so it is fixed here
# before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_cv", "paper_train", "desk_eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (at least one repetition)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "milnet" / "cli.py").is_file():
        print(f"error: no milnet sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.size, work_root=ROOT / ".perfbench_work", spec=spec)


if __name__ == "__main__":
    sys.exit(main())
