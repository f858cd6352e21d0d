"""Layer timings for first-row sweeps and 20-qubit readouts, old and new side by side.

    python scripts/bench_layers.py --src parent=PATH/TO/OLD/src --src change=src > BENCH_8.json
    python scripts/bench_layers.py --src change=src --quick

Each ``--src LABEL=PATH`` names a source tree holding the ``ampsum`` package.
Each of five rounds runs every layer once per tree, the trees in alternating
order from round to round.  Each run is a worker process of its own that
builds only that layer's inputs, from a generator seeded with ``SEED``, and
reports the best of three timings, so no layer sees another's inputs or heap:

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
- ``integrate_n20``: ``apps.integrate_midpoint`` on such samples, with a half-full M
  as above: normalising, the input check and the readout;
- ``tensor2_n20``: ``apps.tensor_weighted_sum`` with a random 2x2 unitary V;
- ``even_odd_n20``: ``apps.even_odd_partial_sum`` of odd parity, for a random M
  with its top bit at 18 and half of its bits set;
- ``synthesis_n20``: ``build.build_partial_sum_circuit`` for every power of two
  up to 2**20 and for 200 random M in [2, 2**20];
- ``amplitude_small``: the readouts ``verify``'s apps check makes at n = 2-7, where
  per-call overhead dominates: for three random (n+1)-qubit states per n, each with
  a random M in [2, 2**n], an even and an odd sum and tensor readouts with V = I, X
  and H (the same inputs under ``--quick``);
- ``cli_build_inprocess``: 50 in-process ``cli.main`` calls of ``build --n 12
  --out FILE``, as the benchmark's ``cli-files`` workload makes them;
- ``load_state_json_n18`` / ``load_state_npy_n20``: ``formats.load_state_file``
  on a random state saved as JSON (n=18) or ``.npy`` (n=20); a tree that cannot
  read ``.npy`` reports null;
- ``sin_pi_samples_n20``: the in-process command ``integrate --function sin-pi
  --n 20``, whose time is mostly taking the 2**20 samples.

Inputs are built outside the timed region, from the same seed on every tree.
The JSON printed keeps, per layer and tree, every round's timing, the best over
rounds (``best_s``, the statistic), the median and the worst; with two trees,
``ratio_best`` is the second tree's best over the first's.  ``--quick`` runs one
round of one timing on small inputs (readouts, synthesis, loads and samples at
n=10), as a smoke test.
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
from functools import partial
from types import SimpleNamespace

import numpy as np

SEED = 606
TRIALS = 25
ROUNDS = 5
REPEAT = 3
BUILD_CALLS = 50


def _weighted(w, n: int, stride: int) -> list:
    """(circuit, angle rows) for every ``stride``-th M in [3, 2**n) that is not a power of two: ``TRIALS`` random
    weight rows each, the circuit built from the first."""
    ms = [m for m in range(3, 2**n) if m & (m - 1)][::stride]
    rows = [w.rng.uniform(-1.0, 1.0, size=(TRIALS, w.build.decompose(m, n).k)) for m in ms]
    return [(w.build.build_weighted_circuit(m, n, w.build.WeightSpec(tuple(b[0]))), w.build.cascade_angles(b))
            for m, b in zip(ms, rows)]


def _half_full(w, bits: int) -> int:
    """A random M with its top bit at ``bits - 1`` and ``ceil(bits / 2)`` set bits."""
    low = w.rng.choice(bits - 1, size=(bits + 1) // 2 - 1, replace=False)
    return 1 << (bits - 1) | sum(1 << int(b) for b in low)


def _state(w, n: int):
    return w.core.state_from_amplitudes(w.rng.normal(size=2**n) + 1j * w.rng.normal(size=2**n), normalize=True)


def _small_readouts(w) -> list:
    """The 90 even/odd and tensor readouts of ``amplitude_small``, each a call with its inputs bound."""
    vs = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    reads = []
    for n in range(2, 8):
        for _ in range(3):
            state, m = _state(w, n + 1), int(w.rng.integers(2, 2**n + 1))
            reads += [partial(w.apps.even_odd_partial_sum, state, m, p) for p in ("even", "odd")]
            reads += [partial(w.apps.tensor_weighted_sum, state, m, v) for v in vs]
    return reads


def _layers(quick: bool) -> dict:
    """Each layer's name and set-up.  ``setup(w)`` makes the layer's inputs from the worker's namespace ``w``,
    which holds the ``ampsum`` modules, a generator ``rng`` seeded from ``SEED`` and a scratch file ``path``, and
    returns the call to time, or None where the tree cannot run the layer."""
    n, json_n, sweep_n = (10, 10, 3) if quick else (20, 18, 7)
    n_unitary, stride8, stride10 = (4, 16, 256) if quick else (355, 1, 8)

    def each(calls: list):
        return lambda: [call() for call in calls]

    def on_state(run: str, m_of):
        """``simulate.<run>`` of the partial-sum circuit of M = ``m_of(w)`` on a random n-qubit state."""
        return lambda w: partial(getattr(w.simulate, run), w.build.build_partial_sum_circuit(m_of(w), n), _state(w, n))

    def apply_small(w):
        state = _state(w, 7)
        return each([partial(w.simulate.apply_circuit, w.build.build_partial_sum_circuit(m, 7), state)
                      for m in range(2, 129)])

    def synthesis(w):
        ms = [1 << r for r in range(1, n + 1)] + [int(m) for m in w.rng.integers(2, 2**n, size=200, endpoint=True)]
        return each([partial(w.build.build_partial_sum_circuit, m, n) for m in ms])

    def load_json(w):
        amps = _state(w, json_n).amps
        with open(w.path, "w", encoding="utf-8") as fh:
            json.dump({"n": json_n, "amplitudes": np.stack([amps.real, amps.imag], axis=1).tolist()}, fh)
        return partial(w.formats.load_state_file, w.path)

    def load_npy(w):
        np.save(w.path + ".npy", _state(w, n).amps)
        try:
            w.formats.load_state_file(w.path + ".npy")
        except ValueError:  # a tree from before .npy files could be read
            return None
        return partial(w.formats.load_state_file, w.path + ".npy")

    return {
        "extract_unitary": lambda w: each([partial(w.simulate.extract_unitary, c)
                                            for c, _ in (_weighted(w, 8, 1) * 2)[:n_unitary]]),
        "first_rows_n8": lambda w: each([partial(w.simulate.first_rows, *a) for a in _weighted(w, 8, stride8)]),
        "first_rows_n10": lambda w: each([partial(w.simulate.first_rows, *a) for a in _weighted(w, 10, stride10)]),
        f"run_sweep_{sweep_n}": lambda w: partial(w.verify.run_sweep, sweep_n, report=lambda line: None),
        "apply_circuit_n7": apply_small,
        f"apply_circuit_n{n}": on_state("apply_circuit", lambda w: (1 << n) - 1),
        f"amplitude_pow2_n{n}": on_state("amplitude", lambda w: 1 << (n - 1)),
        f"amplitude_low4_n{n}": on_state("amplitude", lambda w: 1 << (n - 1) | 0b1111),
        f"amplitude_half_n{n}": on_state("amplitude", lambda w: _half_full(w, n)),
        f"amplitude_full_n{n}": on_state("amplitude", lambda w: (1 << n) - 1),
        f"normalize_n{n}": lambda w: partial(
            w.core.state_from_amplitudes, w.rng.uniform(0.1, 1.0, 2**n), normalize=True),
        f"integrate_n{n}": lambda w: partial(
            w.apps.integrate_midpoint, w.apps.IntegrationSpec(n, _half_full(w, n), w.rng.uniform(0.1, 1.0, 2**n))),
        f"tensor2_n{n}": lambda w: partial(w.apps.tensor_weighted_sum, _state(w, n), _half_full(w, n - 1),
                                           np.linalg.qr(w.rng.normal(size=(2, 2)) + 1j * w.rng.normal(size=(2, 2)))[0]),
        f"even_odd_n{n}": lambda w: partial(w.apps.even_odd_partial_sum, _state(w, n), _half_full(w, n - 1), "odd"),
        f"synthesis_n{n}": synthesis,
        "amplitude_small": lambda w: each(_small_readouts(w)),
        "cli_build_inprocess": lambda w: each([partial(w.cli.main, [
            "build", "--m", str(_half_full(w, 12)), "--n", "12", "--out", w.path])] * BUILD_CALLS),
        f"load_state_json_n{json_n}": load_json,
        f"load_state_npy_n{n}": load_npy,
        f"sin_pi_samples_n{n}": lambda w: partial(
            w.cli.main, ["integrate", "--function", "sin-pi", "--n", str(n), "--m", str(_half_full(w, n))]),
    }


def _best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def worker(src: str, layer: str, quick: bool) -> float | None:
    """Build and time ``layer`` alone in this process; None where the tree cannot run it."""
    sys.path.insert(0, os.path.abspath(src))
    import ampsum.cli  # binds ``ampsum``, with every submodule loaded
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        w = SimpleNamespace(**vars(ampsum), rng=np.random.default_rng(SEED), path=os.path.join(tmp, "input"))
        fn = _layers(quick)[layer](w)
        return None if fn is None else _best(fn, 1 if quick else REPEAT)


def _commit(src: str) -> str | None:
    done = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"], capture_output=True, text=True)
    return done.stdout.strip() or None  # None outside a git checkout


def _summary(values: list) -> dict:
    timed = [v for v in values if v is not None]
    stats = {"best_s": min(timed), "median_s": statistics.median(timed), "max_s": max(timed)} if timed else {}
    return {"best_s": None, **stats, "per_round_s": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=PATH")
    parser.add_argument("--quick", action="store_true", help="small inputs, one round, one timing")
    parser.add_argument("--worker", metavar="LAYER", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.src or not all("=" in spec for spec in args.src):
        parser.error("give each source tree as --src LABEL=PATH")
    trees = dict(spec.split("=", 1) for spec in args.src)
    if args.worker:
        print(json.dumps(worker(next(iter(trees.values())), args.worker, args.quick)))
        return 0

    rounds, layers, labels = 1 if args.quick else ROUNDS, list(_layers(args.quick)), list(trees)
    runs = {label: {name: [] for name in layers} for label in labels}
    for r in range(rounds):
        for name in layers:
            for label in labels if r % 2 == 0 else labels[::-1]:
                cmd = [sys.executable, __file__, "--worker", name, "--src", f"{label}={trees[label]}"]
                done = subprocess.run(cmd + ["--quick"] * args.quick, capture_output=True, text=True, check=True)
                runs[label][name].append(json.loads(done.stdout))

    result = {
        "script": "scripts/bench_layers.py",
        "config": {"rounds": rounds, "repeat": 1 if args.quick else REPEAT, "quick": args.quick,
                   "trials_per_batch": TRIALS, "build_calls": BUILD_CALLS, "seed": SEED},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine(), "cpus": os.cpu_count()},
        "trees": {label: {"commit": _commit(path)} for label, path in trees.items()},
        "layers": {label: {name: _summary(values) for name, values in runs[label].items()} for label in labels},
    }
    if len(labels) == 2:
        old, new = (result["layers"][label] for label in labels)
        result["ratio_best"] = {name: new[name]["best_s"] / old[name]["best_s"] for name in layers
                                if old[name]["best_s"] and new[name]["best_s"]}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
