"""Serving benchmark: one workload, one seed, end-to-end or per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload babi-mixed --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it carries the host fingerprint and the same-run reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro"
    if not (source / "__init__.py").is_file():
        print(f"perfbench: program source not found at {source}", file=sys.stderr)
        return 2
    # One process, one client thread plus the scheduler's deadline
    # thread: BLAS must not add threads of its own (set before numpy).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

    import repro

    if Path(repro.__file__).resolve().parent != source.resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from perfbench.harness import WORKLOADS, run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
