"""Layer timings for first-row sweeps and 20-qubit readouts, old and new side by side.

    python scripts/bench_layers.py --src parent=PATH/TO/OLD/src --src change=src > BENCH_8.json
    python scripts/bench_layers.py --src change=src --quick

Each ``--src LABEL=PATH`` names a source tree holding the ``ampsum`` package.
Each of five rounds starts one fresh worker process per tree, in alternating
order, and each worker reports the best of five timings per layer:

- ``extract_unitary``: 355 weighted n=8 circuits, one unitary each;
- ``first_rows_n8`` / ``first_rows_n10``: 25-column first-row batches at n=8
  (every M that is not a power of two) and n=10 (every 8th such M);
- ``run_sweep_7``: ``verify.run_sweep(7)``, the whole invariant sweep;
- ``apply_circuit_n7``: ``simulate.apply_circuit`` of the partial-sum circuit of
  every M in [2, 128] to one random 7-qubit state, the pattern ``verify`` uses,
  all on arrays small enough for the sweep's two-call step;
- ``apply_circuit_n20``: one ``simulate.apply_circuit`` of the M = 2**20 - 1
  circuit on a random 20-qubit state, all on the blocked kernel;
- ``amplitude_pow2_n20`` / ``amplitude_low4_n20`` / ``amplitude_half_n20`` /
  ``amplitude_full_n20``: one ``simulate.amplitude`` readout of the partial-sum
  circuit on a random 20-qubit state, for M = 2**19, M = 2**19 + 15 (bits 0-3 set),
  a random M with its top bit at 19 and half of its bits set, and M = 2**20 - 1;
- ``normalize_n20``: ``state_from_amplitudes(normalize=True)`` on 2**20 real samples;
- ``integrate_n20``: ``apps.integrate_midpoint`` on those samples, with the half-full M
  above: normalising, the input check and the readout, the benchmark's slowest readout;
- ``tensor2_n20``: ``apps.tensor_weighted_sum`` with a random 2x2 unitary V;
- ``even_odd_n20``: ``apps.even_odd_partial_sum`` of odd parity, for a random M
  with its top bit at 18 and half of its bits set;
- ``amplitude_small``: the readouts ``verify``'s apps check makes at n = 2-7, where
  per-call overhead dominates: for three random (n+1)-qubit states per n, each with
  a random M in [2, 2**n], an even and an odd sum and tensor readouts with V = I, X
  and H, drawn from a generator of their own (the same inputs under ``--quick``);
- ``synthesis_n20``: ``build.build_partial_sum_circuit`` for every power of two
  up to 2**20 and for 200 random M in [2, 2**20], drawn from a generator of their
  own so the other layers' inputs do not move.

Four more layers each run in a fresh worker process of their own, so the heap
that the layers above leave behind does not touch them:

- ``cli_build_inprocess``: 50 in-process ``cli.main`` calls of ``build --n 12
  --out FILE``, as the benchmark's ``cli-files`` workload makes them;
- ``load_state_json_n18`` / ``load_state_npy_n20``: ``formats.load_state_file``
  on a random state saved as JSON (n=18) or ``.npy`` (n=20); a tree that cannot
  read ``.npy`` reports null;
- ``sin_pi_samples_n20``: the in-process command ``integrate --function sin-pi
  --n 20``, whose time is mostly taking the 2**20 samples.

Inputs are built outside the timed region, from the same seed on every tree.
The JSON printed keeps every round's best and, per layer and tree, the median
with the spread (min and max over rounds); ``--quick`` runs one round of one
timing on small inputs (readouts, synthesis, loads and samples at n=10), as a
smoke test.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

SEED = 606
TRIALS = 25
ROUNDS = 5
REPEAT = 5
BUILD_CALLS = 50
FRESH = ("cli_build_inprocess", "load_state_json", "load_state_npy", "sin_pi_samples")


def _batches(build, n: int, stride: int, rng):
    """(m, (T, k) weights) for every ``stride``-th M in [3, 2**n) that is not a power of two."""
    ms = [m for m in range(3, 2**n) if m & (m - 1)][::stride]
    return [(m, rng.uniform(-1.0, 1.0, size=(TRIALS, build.decompose(m, n).k))) for m in ms]


def _half_full(rng, bits: int) -> int:
    """A random M with its top bit at ``bits - 1`` and ``ceil(bits / 2)`` set bits."""
    low = rng.choice(bits - 1, size=(bits + 1) // 2 - 1, replace=False)
    return 1 << (bits - 1) | sum(1 << int(b) for b in low)


def _synthesis_ms(rng, n: int) -> list[int]:
    """Every power of two in [2, 2**n], then 200 random M in [2, 2**n]."""
    return [1 << r for r in range(1, n + 1)] + [int(m) for m in rng.integers(2, 2**n, size=200, endpoint=True)]


def _small_readouts(apps, core, np) -> list:
    """The 90 even/odd and tensor readouts of ``amplitude_small``, each a call with its inputs bound."""
    rng = np.random.default_rng(SEED)  # its own draws: other inputs stay put
    vs = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    reads = []
    for n in range(2, 8):
        for _ in range(3):
            amps = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
            state, m = core.state_from_amplitudes(amps, normalize=True), int(rng.integers(2, 2**n + 1))
            reads += [lambda s=state, m=m, p=p: apps.even_odd_partial_sum(s, m, p) for p in ("even", "odd")]
            reads += [lambda s=state, m=m, v=v: apps.tensor_weighted_sum(s, m, v) for v in vs]
    return reads


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
    from ampsum import apps, build, core, simulate, verify

    rng = np.random.default_rng(SEED)
    n_unitary, stride8, stride10, sweep_n = (4, 16, 256, 3) if quick else (355, 1, 8, 7)
    pool = _batches(build, 8, 1, rng)
    circuits = [build.build_weighted_circuit(m, 8, build.WeightSpec(tuple(w[0])))
                for m, w in (pool * 2)[:n_unitary]]

    def row_reads(n: int, stride: int):
        calls = [(build.build_weighted_circuit(m, n, build.WeightSpec(tuple(w[0]))),
                  build.cascade_angles(w)) for m, w in _batches(build, n, stride, rng)]
        return lambda: [simulate.first_rows(*args) for args in calls]

    n = 10 if quick else 20
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state = core.state_from_amplitudes(amps, normalize=True)
    samples = rng.uniform(0.1, 1.0, size=2**n)
    v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    synthesis_ms = _synthesis_ms(np.random.default_rng(SEED), n)  # its own draws: other inputs stay put
    rng7 = np.random.default_rng(SEED)  # its own draws: other inputs stay put
    state7 = core.state_from_amplitudes(rng7.normal(size=2**7) + 1j * rng7.normal(size=2**7), normalize=True)
    circuits7 = [build.build_partial_sum_circuit(m, 7) for m in range(2, 2**7 + 1)]
    readouts = {"pow2": 1 << (n - 1), "low4": 1 << (n - 1) | 0b1111, "half": _half_full(rng, n),
                "full": (1 << n) - 1}
    small_reads = _small_readouts(apps, core, np)

    layers = {
        "extract_unitary": lambda: [simulate.extract_unitary(c) for c in circuits],
        "first_rows_n8": row_reads(8, stride8),
        "first_rows_n10": row_reads(10, stride10),
        f"run_sweep_{sweep_n}": lambda: verify.run_sweep(sweep_n, report=lambda line: None),
        "apply_circuit_n7": lambda: [simulate.apply_circuit(c, state7) for c in circuits7],
        f"apply_circuit_n{n}": (lambda c=build.build_partial_sum_circuit(readouts["full"], n):
                                simulate.apply_circuit(c, state)),
        **{f"amplitude_{name}_n{n}": (lambda c=build.build_partial_sum_circuit(m, n): simulate.amplitude(c, state))
           for name, m in readouts.items()},
        f"normalize_n{n}": lambda: core.state_from_amplitudes(samples, normalize=True),
        f"integrate_n{n}": lambda spec=apps.IntegrationSpec(n, readouts["half"], samples): apps.integrate_midpoint(spec),
        f"tensor2_n{n}": lambda m=_half_full(rng, n - 1): apps.tensor_weighted_sum(state, m, v),
        f"even_odd_n{n}": lambda m=_half_full(rng, n - 1): apps.even_odd_partial_sum(state, m, "odd"),
        f"synthesis_n{n}": lambda: [build.build_partial_sum_circuit(m, n) for m in synthesis_ms],
        "amplitude_small": lambda: [read() for read in small_reads],
    }
    return {name: _best(fn, repeat) for name, fn in layers.items()}


def fresh_worker(src: str, layer: str, repeat: int, quick: bool) -> dict:
    """Time one of the ``FRESH`` layers in this process, which has run nothing else."""
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np
    from ampsum import cli, core, formats

    rng = np.random.default_rng(SEED)
    quiet = contextlib.redirect_stdout(io.StringIO())
    with tempfile.TemporaryDirectory() as tmp, quiet:
        path = os.path.join(tmp, "input")
        if layer == "cli_build_inprocess":
            argv = ["build", "--m", str(_half_full(rng, 12)), "--n", "12", "--out", path]
            name, fn = layer, lambda: [cli.main(argv) for _ in range(BUILD_CALLS)]
        elif layer == "sin_pi_samples":
            n = 10 if quick else 20
            argv = ["integrate", "--function", "sin-pi", "--n", str(n), "--m", str(_half_full(rng, n))]
            name, fn = f"{layer}_n{n}", lambda: cli.main(argv)
        else:
            n = 10 if quick else {"load_state_json": 18, "load_state_npy": 20}[layer]
            amps = core.state_from_amplitudes(rng.normal(size=2**n) + 1j * rng.normal(size=2**n), normalize=True).amps
            if layer == "load_state_json":
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"n": n, "amplitudes": np.stack([amps.real, amps.imag], axis=1).tolist()}, fh)
            else:
                path += ".npy"
                np.save(path, amps)
            name, fn = f"{layer}_n{n}", lambda: formats.load_state_file(path)
        try:
            return {name: _best(fn, repeat)}
        except ValueError:  # a tree from before .npy files could be read
            return {name: None}


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
    parser.add_argument("--fresh", choices=FRESH, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    rounds, repeat = (1, 1) if args.quick else (ROUNDS, REPEAT)
    if args.worker:
        result = fresh_worker(args.worker, args.fresh, repeat, args.quick) if args.fresh \
            else worker(args.worker, repeat, args.quick)
        print(json.dumps(result))
        return 0
    if not args.src or not all("=" in spec for spec in args.src):
        parser.error("give each source tree as --src LABEL=PATH")

    trees = dict(spec.split("=", 1) for spec in args.src)
    runs: dict[str, list[dict]] = {label: [] for label in trees}
    for r in range(rounds):
        for label in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
            cmd = [sys.executable, __file__, "--worker", trees[label]] + (["--quick"] if args.quick else [])
            timings = {}
            for extra in [[]] + [["--fresh", layer] for layer in FRESH]:
                done = subprocess.run(cmd + extra, capture_output=True, text=True, check=True)
                timings.update(json.loads(done.stdout))
            runs[label].append(timings)

    def summary(values: list) -> dict:
        timed = [v for v in values if v is not None]
        if not timed:
            return {"median_s": None, "per_round_s": values}
        return {"median_s": statistics.median(timed), "min_s": min(timed), "max_s": max(timed),
                "per_round_s": values}

    result = {
        "script": "scripts/bench_layers.py",
        "config": {"rounds": rounds, "repeat": repeat, "quick": args.quick,
                   "trials_per_batch": TRIALS, "build_calls": BUILD_CALLS,
                   "seed": SEED},
        "env": {"python": platform.python_version(), "numpy": __import__("numpy").__version__,
                "machine": platform.machine(), "cpus": os.cpu_count()},
        "trees": {label: {"commit": _commit(path)} for label, path in trees.items()},
        "layers": {label: {name: summary([rnd[name] for rnd in runs[label]])
                           for name in runs[label][0]} for label in trees},
    }
    labels = list(trees)
    if len(labels) == 2:
        old, new = (result["layers"][label] for label in labels)
        result["ratio_median"] = {name: new[name]["median_s"] / old[name]["median_s"] for name in old
                                  if old[name]["median_s"] and new[name]["median_s"]}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
