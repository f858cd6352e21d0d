"""Layer timings for the float64 first-row sweep, old and new side by side.

    python scripts/bench_layers.py --src parent=PATH/TO/OLD/src --src change=src > BENCH_6.json
    python scripts/bench_layers.py --src change=src --quick

Each ``--src LABEL=PATH`` names a source tree holding the ``ampsum`` package.
Each of five rounds starts one fresh worker process per tree, in alternating
order, and each worker reports the best of five timings per layer:

- ``extract_unitary``: 355 weighted n=8 circuits, one unitary each;
- ``first_rows_n8`` / ``first_rows_n10``: 25-column first-row batches at n=8
  (every M that is not a power of two) and n=10 (every 8th such M);
- ``run_sweep_7``: ``verify.run_sweep(7)``, the whole invariant sweep.

Inputs are built outside the timed region, from the same seed on every tree.
The JSON printed keeps every round's best and, per layer and tree, the median
with the spread (min and max over rounds); ``--quick`` runs one round of one
timing on small inputs, as a smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SEED = 606
TRIALS = 25
ROUNDS = 5
REPEAT = 5


def _batches(build, n: int, stride: int, rng):
    """(m, (T, k) weights) for every ``stride``-th M in [3, 2**n) that is not a power of two."""
    ms = [m for m in range(3, 2**n) if m & (m - 1)][::stride]
    return [(m, rng.uniform(-1.0, 1.0, size=(TRIALS, build.decompose(m, n).k))) for m in ms]


def _best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def worker(src: str, repeat: int, quick: bool) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np
    from ampsum import build, simulate, verify

    rng = np.random.default_rng(SEED)
    n_unitary, stride8, stride10, sweep_n = (4, 16, 256, 3) if quick else (355, 1, 8, 7)
    pool = _batches(build, 8, 1, rng)
    circuits = [build.build_weighted_circuit(m, 8, build.WeightSpec(tuple(w[0])))
                for m, w in (pool * 2)[:n_unitary]]

    def row_reads(n: int, stride: int):
        calls = [(build.build_weighted_circuit(m, n, build.WeightSpec(tuple(w[0]))),
                  build.cascade_angles(w)) for m, w in _batches(build, n, stride, rng)]
        return lambda: [simulate.first_rows(*args) for args in calls]

    layers = {
        "extract_unitary": lambda: [simulate.extract_unitary(c) for c in circuits],
        "first_rows_n8": row_reads(8, stride8),
        "first_rows_n10": row_reads(10, stride10),
        f"run_sweep_{sweep_n}": lambda: verify.run_sweep(sweep_n, report=lambda line: None),
    }
    return {name: _best(fn, repeat) for name, fn in layers.items()}


def _commit(src: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=PATH")
    parser.add_argument("--quick", action="store_true", help="small inputs, one round, one timing")
    parser.add_argument("--worker", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    rounds, repeat = (1, 1) if args.quick else (ROUNDS, REPEAT)
    if args.worker:
        print(json.dumps(worker(args.worker, repeat, args.quick)))
        return 0
    if not args.src or not all("=" in spec for spec in args.src):
        parser.error("give each source tree as --src LABEL=PATH")

    trees = dict(spec.split("=", 1) for spec in args.src)
    runs: dict[str, list[dict]] = {label: [] for label in trees}
    for r in range(rounds):
        for label in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
            cmd = [sys.executable, __file__, "--worker", trees[label]] + (["--quick"] if args.quick else [])
            done = subprocess.run(cmd, capture_output=True, text=True, check=True)
            runs[label].append(json.loads(done.stdout))

    def summary(values: list[float]) -> dict:
        return {"median_s": statistics.median(values), "min_s": min(values), "max_s": max(values),
                "per_round_s": values}

    result = {
        "script": "scripts/bench_layers.py",
        "config": {"rounds": rounds, "repeat": repeat, "quick": args.quick,
                   "trials_per_batch": TRIALS, "seed": SEED},
        "env": {"python": platform.python_version(), "numpy": __import__("numpy").__version__,
                "machine": platform.machine(), "cpus": os.cpu_count()},
        "trees": {label: {"commit": _commit(path)} for label, path in trees.items()},
        "layers": {label: {name: summary([rnd[name] for rnd in runs[label]])
                           for name in runs[label][0]} for label in trees},
    }
    labels = list(trees)
    if len(labels) == 2:
        old, new = (result["layers"][label] for label in labels)
        result["ratio_median"] = {name: new[name]["median_s"] / old[name]["median_s"] for name in old}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
