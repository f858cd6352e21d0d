"""ampsum benchmark entry point; see README.md.

Run from the root of a checkout::

    python3 bench/run.py --workload readout-20q --seed 1 --seconds 20 --trace 0

Arguments are parsed before numpy is imported, so that a workload's BLAS
thread setting takes effect; the harness itself is ``harness.py``.
"""

from __future__ import annotations

import argparse
import os
import sys

WORKLOADS = ("verify-sweep", "readout-20q", "cli-files")

# cli-files runs one-shot CLI commands back to back in one process.  After a
# command's few BLAS calls, OpenBLAS's second thread keeps spinning on the
# other core, which slowed the next command's JSON parsing by up to 40% and
# made it vary as much between runs.  A one-shot CLI process never pays that,
# so this workload runs with one BLAS thread; the others keep the default,
# since their BLAS calls use both threads.  A caller's own setting wins.
BLAS_THREADS = {"cli-files": "1"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one ampsum benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload in BLAS_THREADS:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS[args.workload])

    import harness  # loads numpy, after the BLAS setting above

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
