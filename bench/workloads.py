"""The three benchmark workloads: seeded inputs, op schedules, reference checks.

Inputs are generated from the seed with numpy alone, before ampsum is
imported.  ``bind`` turns them into ampsum objects, ``first_op`` is the
untimed op that set-up time includes, and ``round_ops()`` is the round the
timed loop repeats: the same seed always gives the same ops.  Each op's
``check`` compares its output with an independent numpy reference, after
the round and outside its timing, and returns ``(attempted, failed,
extra)``; ``extra`` carries per-layer numbers taken from the output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Readouts must match the numpy slice sum to this absolute tolerance.
READOUT_ATOL = 1e-10


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int, dict]]


def _pass(ok: bool) -> tuple[int, int, dict]:
    return 1, 0 if ok else 1, {}


def close(value: complex, reference: complex, atol: float = READOUT_ATOL) -> bool:
    """``value`` matches ``reference`` within ``atol`` scaled by its size above 1."""
    return abs(value - reference) <= atol * max(1.0, abs(reference))


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gate_count(m: int, n: int) -> int:
    """The paper's gate budget: r for m == 2**r, else high_bit + 2*(popcount-1)."""
    if m & (m - 1) == 0:
        return m.bit_length() - 1
    return m.bit_length() - 1 + 2 * (bin(m).count("1") - 1)


def weighted_row(m: int, n: int, b: np.ndarray) -> np.ndarray:
    """First row of the weighted circuit from its closed form.

    Set bit j of m owns a block of width 2**bit_j; blocks sit in descending
    width from index 0.  Block j < k carries ``prod(a[:j]) * b[j]`` and the
    highest block ``prod(a)``, each over the square root of the width, with
    ``a = sqrt(1 - b**2)``.
    """
    bits = [i for i in range(m.bit_length()) if (m >> i) & 1]
    k = len(bits) - 1
    running = np.concatenate(([1.0], np.cumprod(np.sqrt(1.0 - b * b))))
    coeffs = [running[j] * (b[j] if j < k else 1.0) / math.sqrt(2 ** bits[j]) for j in range(k + 1)]
    row = np.zeros(2**n)
    start = 0
    for j in range(k, -1, -1):
        row[start:start + 2 ** bits[j]] = coeffs[j]
        start += 2 ** bits[j]
    return row


def half_full_m(rng: np.random.Generator, bits: int) -> int:
    """A random M with its top bit at ``bits - 1`` and ``ceil(bits / 2)`` set bits.

    Every seed then asks for the same gate count, ``bits - 1 + 2 * (ceil(bits/2) - 1)``,
    so seeds change the data but not the amount of work.
    """
    low = rng.choice(bits - 1, size=(bits + 1) // 2 - 1, replace=False)
    return (1 << (bits - 1)) | sum(1 << int(b) for b in low)


def random_weighted_m(rng: np.random.Generator, n: int) -> int:
    """An M that takes weights: 2 < M < 2**n and not a power of two."""
    while True:
        m = int(rng.integers(3, 2**n))
        if m & (m - 1):
            return m


# ---------------------------------------------------------------------------


class VerifySweep:
    """``verify.run_sweep(n_max=7)``: one op is one whole sweep."""

    name = "verify-sweep"
    N_MAX = 7
    TRIALS = 25
    LINE = re.compile(r"ran (\d+) checks, (\d+) failures")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.mods = None

    def bind(self, mods) -> None:
        self.mods = mods

    def _op(self, n_max: int, trials: int, seed: int) -> Op:
        def run():
            lines: list[str] = []
            stamps: list[float] = []
            clock = time.perf_counter

            def report(line: str) -> None:
                stamps.append(clock())
                lines.append(line)

            start = clock()
            failures = self.mods.verify.run_sweep(n_max, weighted_trials=trials, seed=seed,
                                                  report=report)
            return failures, lines, stamps, start

        def check(out):
            failures, lines, stamps, start = out
            match = self.LINE.fullmatch(lines[-1]) if lines else None
            if match is None:
                return 1, 1, {}
            ran, failed = int(match[1]), max(int(match[2]), len(failures))
            extra, prev = {}, start
            for line, stamp in zip(lines, stamps):
                level = re.match(r"n=(\d+): swept", line)
                if level:
                    extra[f"verify.level_s.n{level[1]}"] = stamp - prev
                    prev = stamp
            extra["verify.checks"] = ran
            return ran, failed, extra

        return Op(f"sweep.n{n_max}", run, check)

    def first_op(self) -> Op:
        # A small sweep runs every kind of check once; a full sweep would
        # make set-up as long as a round.
        return self._op(3, 2, self.seed)

    def round_ops(self) -> list[Op]:
        return [self._op(self.N_MAX, self.TRIALS, self.seed)]


class Readout20q:
    """Readouts on in-memory 18-20 qubit states; one op is one readout.

    Per n, eight readouts: partial sums with M = 2**n - 1, 2**(n-1) and a
    random M, an even and an odd sum, tensor readouts with a random 2x2 and
    4x4 unitary V, and one integration.
    """

    name = "readout-20q"

    def __init__(self, seed: int, workdir: Path, ns: tuple[int, ...] = (18, 19, 20)):
        self.seed = seed
        self.ns = ns
        rng = np.random.default_rng([seed, 1 << 20])
        self.amps = {n: random_state(rng, n) for n in ns}
        self.samples = {n: rng.uniform(0.1, 1.0, size=2**n) for n in ns}
        self.v = {dim: random_unitary(rng, dim) for dim in (2, 4)}
        self.mods = None
        self.states: dict = {}

    def bind(self, mods) -> None:
        self.mods = mods
        self.states = {n: mods.core.state_from_amplitudes(self.amps[n]) for n in self.ns}

    def _partial_sum(self, n: int, m: int) -> Op:
        amps, state = self.amps[n], self.states[n]
        return Op(f"partial_sum.n{n}",
                  lambda: self.mods.apps.partial_sum_via_circuit(state, m),
                  lambda out: _pass(close(out[1], amps[:m].sum())))

    def _even_odd(self, n: int, m: int, parity: str) -> Op:
        amps, state = self.amps[n], self.states[n]
        low = 0 if parity == "even" else 1
        return Op(f"even_odd.n{n}",
                  lambda: self.mods.apps.even_odd_partial_sum(state, m, parity),
                  lambda out: _pass(close(out[1], amps[low:2 * m:2].sum())))

    def _tensor(self, n: int, m: int, dim: int) -> Op:
        amps, state, v = self.amps[n], self.states[n], self.v[dim]
        return Op(f"tensor{dim}.n{n}",
                  lambda: self.mods.apps.tensor_weighted_sum(state, m, v),
                  lambda out: _pass(close(
                      out, (amps[:m * dim].reshape(m, dim) @ v[0]).sum() / math.sqrt(m))))

    def _integrate(self, n: int, m: int) -> Op:
        samples = self.samples[n]
        spec = self.mods.apps.IntegrationSpec(n, m, samples)
        return Op(f"integrate.n{n}",
                  lambda: self.mods.apps.integrate_midpoint(spec),
                  lambda out: _pass(close(out, samples[:m].sum() / 2**n)))

    def first_op(self) -> Op:
        n = self.ns[0]
        return self._partial_sum(n, 2**n - 1)

    def round_ops(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 1])
        ops = []
        for n in self.ns:
            ops += [
                self._partial_sum(n, 2**n - 1),
                self._partial_sum(n, 2 ** (n - 1)),
                self._partial_sum(n, half_full_m(rng, n)),
                self._even_odd(n, half_full_m(rng, n - 1), "even"),
                self._even_odd(n, half_full_m(rng, n - 1), "odd"),
                self._tensor(n, half_full_m(rng, n - 1), 2),
                self._tensor(n, half_full_m(rng, n - 2), 4),
                self._integrate(n, half_full_m(rng, n)),
            ]
        return ops


class CliFiles:
    """In-process ``cli.main`` on seeded files; one op is one CLI command.

    Every round runs the same commands on the same files.  A ``build``
    that writes text is followed, inside the op, by parsing the file back
    with ``formats.circuit_from_text``.
    """

    name = "cli-files"
    SUM_NS = (12, 14, 16, 18)
    WEIGHTED_SUM_NS = (14, 16)
    SAMPLE_NS = (12, 16)
    # (n, format, weighted)
    BUILDS = ((8, "text", False), (12, "qasm", False), (12, "text", True),
              (16, "text", False), (16, "qasm", True), (20, "text", False),
              (20, "qasm", False), (20, "text", True), (20, "qasm", True))

    def __init__(self, seed: int, workdir: Path, sum_ns=SUM_NS, weighted_sum_ns=WEIGHTED_SUM_NS,
                 sample_ns=SAMPLE_NS, builds=BUILDS):
        self.workdir = workdir
        self.mods = None
        rng = np.random.default_rng([seed, 1 << 21])
        self.amps = {}
        self.commands: list[tuple] = []  # (kind, argv, reference)
        for n in sorted(set(sum_ns) | set(weighted_sum_ns)):
            self.amps[n] = random_state(rng, n)
            pairs = np.stack([self.amps[n].real, self.amps[n].imag], axis=1).tolist()
            self._write(f"state{n}.json", {"n": n, "amplitudes": pairs, "normalized": True})
        for n in sum_ns:
            m = int(rng.integers(2, 2**n + 1))
            self.commands.append((f"sum.n{n}", ["sum", "--state", self._path(f"state{n}.json"),
                                                "--m", str(m)], self.amps[n][:m].sum()))
        for n in weighted_sum_ns:
            m = random_weighted_m(rng, n)
            b = rng.uniform(-1.0, 1.0, size=bin(m).count("1") - 1)
            self._write(f"weights{n}.json", b.tolist())
            ref = math.sqrt(m) * np.dot(weighted_row(m, n, b), self.amps[n])
            self.commands.append((f"sum_weighted.n{n}",
                                  ["sum", "--state", self._path(f"state{n}.json"), "--m", str(m),
                                   "--weights", self._path(f"weights{n}.json")], ref))
        for n in sample_ns:
            samples = rng.uniform(0.1, 1.0, size=2**n)
            m = int(rng.integers(2, 2**n + 1))
            self._write(f"samples{n}.json", samples.tolist())
            self.commands.append((f"integrate.n{n}",
                                  ["integrate", "--samples", self._path(f"samples{n}.json"),
                                   "--m", str(m)], samples[:m].sum() / 2**n))
        for i, (n, fmt, weighted) in enumerate(builds):
            m = random_weighted_m(rng, n) if weighted else int(rng.integers(2, 2**n + 1))
            argv = ["build", "--m", str(m), "--n", str(n), "--format", fmt,
                    "--out", self._path(f"out{i}.{fmt}")]
            weights = None
            if weighted:
                weights = rng.uniform(-1.0, 1.0, size=bin(m).count("1") - 1)
                self._write(f"bweights{i}.json", weights.tolist())
                argv += ["--weights", self._path(f"bweights{i}.json")]
            self.commands.append((f"build_{fmt}.n{n}", argv, (m, n, weights)))

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def _write(self, name: str, doc) -> None:
        (self.workdir / name).write_text(json.dumps(doc), encoding="utf-8")

    def bind(self, mods) -> None:
        self.mods = mods

    def _main(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mods.cli.main(argv)
        return code, out.getvalue() + err.getvalue()

    def _op(self, kind: str, argv: list[str], reference) -> Op:
        if kind.startswith("build_text"):
            path = Path(argv[argv.index("--out") + 1])

            def run():
                code, text = self._main(argv)
                return code, text, self.mods.formats.circuit_from_text(
                    path.read_text(encoding="utf-8"))

            return Op(kind, run, lambda out: self._check_build(out, reference))
        if kind.startswith("build_qasm"):
            path = Path(argv[argv.index("--out") + 1])
            return Op(kind, lambda: self._main(argv) + (path.read_text(encoding="utf-8"),),
                      lambda out: self._check_build(out, reference))
        label = "estimate" if kind.startswith("integrate") else "S_M"
        return Op(kind, lambda: self._main(argv),
                  lambda out: self._check_value(out, label, reference))

    @staticmethod
    def _check_value(out, label: str, reference: complex):
        code, text = out
        match = re.search(rf"^{label} = (\S+)(?: (\S+))?$", text, re.M)
        if code != 0 or match is None:
            return _pass(False)
        value = complex(float(match[1]), float(match[2] or 0.0))
        return _pass(close(value, reference))

    def _check_build(self, out, reference):
        code, _text, result = out
        m, n, weights = reference
        count = gate_count(m, n)
        if code != 0:
            return _pass(False)
        if isinstance(result, str):  # QASM: the header keeps the pre-lowering gate count
            match = re.search(r"^// gate count before negative-control lowering: (\d+)$",
                              result, re.M)
            return _pass(match is not None
                         and int(match[1]) == count == self.mods.build.expected_gate_count(m, n))
        build = self.mods.build
        expected = build.build_partial_sum_circuit(m, n) if weights is None else \
            build.build_weighted_circuit(m, n, build.WeightSpec(tuple(weights)))
        return _pass(result == expected and len(result.gates) == count)

    def first_op(self) -> Op:
        return self._op(*self.commands[0])

    def round_ops(self) -> list[Op]:
        return [self._op(*command) for command in self.commands]


WORKLOADS = {w.name: w for w in (VerifySweep, Readout20q, CliFiles)}
