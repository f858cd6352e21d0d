"""Invariant sweep behind the ``verify`` CLI command.

Runs every library invariant over all M in [2, 2**n] for n = 2..n_max: decomposition
arithmetic, gate budgets and depth bounds, analytic first rows against extracted unitaries,
inverse/uniform-superposition behavior, weighted-circuit oracles on seeded random weight
vectors, the application layer (partial sums, even/odd sums, tensor readouts, quadrature
identity), circuit-text round trips, and a binomial sampling check.

Every check runs to n_max (capped at 10) except the unitarity spot check, the one user of
unitary extraction, which stops at n = 6.  Each M's circuit is synthesized about once, but
``decompose`` runs 5-18 times per M (8 on average at n = 6): in the sweep, twice in
``build_partial_sum_circuit``, and in ``expected_gate_count`` and each ``predicted_first_row``.
Weighted trials are ``(T, k)`` arrays; one ``simulate.first_rows`` sweep reads the plain row and
every trial's.  The segment-sum identity is linear in f, so one random f per M serves every trial.
All randomness flows from one seeded generator: output is byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import apps, formats, oracle
from .build import (BitDecomposition, WeightSpec, build_partial_sum_circuit, cascade_angles,
                    decompose, expected_gate_count)
from .core import (MAX_APPLY_QUBITS, Circuit, GateKind, StateVector, basis_state, check_int, h, ry,
                   state_from_amplitudes, x)
from .simulate import apply_circuit, extract_unitary, first_rows, sample_measurements

MAX_SWEEP_QUBITS = 10
MAX_WEIGHTED_TRIALS = 2 ** (MAX_APPLY_QUBITS - MAX_SWEEP_QUBITS) - 1  # T + 1 rows of 2**10 fit one dense state
_UNITARITY_N_CAP = 6


@dataclass(frozen=True)
class Failure:
    m: int
    n: int
    invariant: str
    deviation: float


class _Recorder:
    def __init__(self, report: Callable[[str], None]):
        self.failures: list[Failure] = []
        self.checks = 0
        self._report = report

    def check(self, m: int, n: int, invariant: str, deviation: float, tol: float) -> None:
        self.checks += 1
        if not deviation <= tol:  # catches NaN as well
            self.failures.append(Failure(m, n, invariant, float(deviation)))
            self._report(f"FAIL (M={m}, n={n}, {invariant}, max deviation {deviation:.3e})")


def _random_state(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return state_from_amplitudes(amps, normalize=True)


def _random_circuit(rng: np.random.Generator, n: int, n_gates: int) -> Circuit:
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(0, 3)
        target = int(rng.integers(0, n))
        control = None
        control_value = 1
        if n > 1 and rng.random() < 0.5:
            control = int(rng.integers(0, n - 1))
            if control >= target:
                control += 1
            control_value = int(rng.integers(0, 2))
        if kind == 2:
            gates.append(ry(rng.uniform(0, 2 * math.pi), target, control=control,
                            control_value=control_value))
        else:
            gates.append((h, x)[kind](target, control=control, control_value=control_value))
    return Circuit(n, tuple(gates))


def _check_static(rec: _Recorder, decomp: BitDecomposition, circuit: Circuit) -> None:
    m, n = decomp.m, decomp.n
    rec.check(m, n, "decompose-bit-sum", abs(sum(2**b for b in decomp.set_bits) - m), 0)
    running = dev = 0
    for j, total in enumerate(decomp.prefix_sums):
        running += 2 ** decomp.set_bits[j]
        dev = max(dev, abs(total - running))
    rec.check(m, n, "decompose-prefix-sums", dev, 0)
    if decomp.k >= 1:
        rec.check(m, n, "decompose-lowest-power",
                  abs(decomp.prefix_sums[0] - 2 ** decomp.set_bits[0]), 0)
        # acos arguments stay in [0, 1]: each power fits in what remains of m
        domain_ok = decomp.prefix_sums[0] <= m and all(
            2 ** decomp.set_bits[j] <= m - decomp.prefix_sums[j - 1]
            for j in range(1, decomp.k)
        )
        rec.check(m, n, "angle-domain", 0 if domain_ok else 1, 0)

    rec.check(m, n, "gate-count", abs(len(circuit.gates) - expected_gate_count(m, n)), 0)
    depth_ok = circuit.depth() <= len(circuit.gates) <= 2 * n + 2 * (decomp.k + 1)  # k + 1 set bits
    rec.check(m, n, "depth-bound", 0 if depth_ok else 1, 0)
    thetas = [g.theta for g in circuit.gates if g.kind is GateKind.RY]
    rec.check(m, n, "angle-range", 0 if all(0.0 <= t <= math.pi for t in thetas) else 1, 0)

    rec.check(m, n, "text-round-trip",
              0 if formats.circuit_from_text(formats.circuit_to_text(circuit)) == circuit else 1, 0)

    if decomp.k >= 1:
        # closed form: the RY of set bit j keeps 2**bit_j of the m - (lower powers) indices left
        closed = [2.0 * math.acos(math.sqrt(2**b / (m - sum(2**c for c in decomp.set_bits[:j]))))
                  for j, b in enumerate(decomp.set_bits[:-1])][::-1]
        dev = max(abs(t - c) for t, c in zip(thetas, closed)) if len(thetas) == len(closed) else math.inf
        rec.check(m, n, "restricted-weights-match-plain", dev, 1e-12)


def _check_oracle(rec: _Recorder, rng: np.random.Generator, decomp: BitDecomposition,
                  row: np.ndarray, trials: int) -> None:
    m, n = decomp.m, decomp.n
    rec.check(m, n, "oracle-row-norm", abs(np.dot(row, row) - 1.0), 1e-12)
    rec.check(m, n, "oracle-zero-tail", float(np.abs(row[m:]).max(initial=0.0)), 0)

    if decomp.k == 0:
        return
    restricted = oracle.predicted_first_row(m, n, WeightSpec.uniform(decomp))
    rec.check(m, n, "oracle-restricted-row", float(np.abs(restricted - row).max()), 1e-12)
    edges = oracle.segment_boundaries(decomp)
    rec.check(m, n, "segment-edges",
              0 if (edges[-1] == m and all(a < b for a, b in zip(edges, edges[1:]))) else 1, 0)
    weights = rng.uniform(-1.0, 1.0, size=(trials, decomp.k))
    # linear in f: a wrong row or segment leaves d_t with d_t . f != 0 for almost every f, so one f serves all
    f = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    wrows = oracle.predicted_first_row(m, n, weights)
    coeffs = oracle.segment_weights(decomp, weights)
    by_segment = sum(coeffs[:, decomp.k - r] * f[edges[r]:edges[r + 1]].sum() for r in range(decomp.k + 1))
    # a stacked matmul takes one BLAS dot per row, the value np.dot gives a single trial
    norm_dev = np.abs(np.matmul(wrows[:, None], wrows[..., None])[:, 0, 0] - 1.0)
    sum_dev = np.abs(wrows @ f - by_segment)
    for t in range(trials):
        rec.check(m, n, "oracle-weighted-norm", norm_dev[t], 1e-12)
        rec.check(m, n, "oracle-segment-sum", sum_dev[t], 1e-10)


def _check_simulator(rec: _Recorder, rng: np.random.Generator, decomp: BitDecomposition,
                     circuit: Circuit, predicted: np.ndarray, trials: int) -> None:
    m, n = decomp.m, decomp.n
    f = _random_state(rng, n)
    weights = rng.uniform(-1.0, 1.0, size=(trials, decomp.k))  # after f; k = 0 draws nothing
    # one sweep reads the circuit's row on its own angles and each trial's; a power of two sweeps one column
    angles = [[g.theta for g in circuit.gates if g.kind is GateKind.RY]] + cascade_angles(weights) if decomp.k else None
    rows = first_rows(circuit, angles)
    rec.check(m, n, "first-row", float(np.abs(rows[0].real - predicted).max()), 1e-10)
    rec.check(m, n, "first-row-imag", float(np.abs(rows[0].imag).max()), 1e-10)

    if n <= _UNITARITY_N_CAP:
        unitary = extract_unitary(circuit)
        gram = unitary @ unitary.conj().T
        rec.check(m, n, "unitarity", float(np.abs(gram - np.eye(2**n)).max()), 1e-10)

    # dagger on |0> prepares the uniform superposition over the first m states
    dagger = circuit.dagger()
    uniform = apply_circuit(dagger, basis_state(n))
    rec.check(m, n, "dagger-uniform", float(np.abs(uniform.amps - predicted).max()), 1e-10)

    out = apply_circuit(circuit, f)
    rec.check(m, n, "norm-preservation", abs(np.linalg.norm(out.amps) - 1.0), 1e-12)
    restored = apply_circuit(dagger, out)
    rec.check(m, n, "inverse-composition", float(np.abs(restored.amps - f.amps).max()), 1e-10)
    c0 = complex(out.amps[0])
    rec.check(m, n, "linearity", abs(c0 - np.dot(predicted, f.amps)), 1e-10)
    brute = oracle.brute_force_partial_sum(f, m)
    rec.check(m, n, "scaled-partial-sum", abs(math.sqrt(m) * c0 - brute), 1e-10)

    if decomp.k == 0:
        return
    wrows = oracle.predicted_first_row(m, n, weights)
    devs = np.maximum(np.abs(rows[1:].real - wrows).max(axis=1), np.abs(rows[1:].imag).max(axis=1))
    for dev in devs:
        rec.check(m, n, "weighted-first-row", dev, 1e-10)


def _check_random_circuits(rec: _Recorder, rng: np.random.Generator, n: int) -> None:
    for _ in range(3):
        circuit = _random_circuit(rng, n, 50)
        state = _random_state(rng, n)
        out = apply_circuit(circuit, state)
        rec.check(0, n, "random-circuit-norm", abs(np.linalg.norm(out.amps) - 1.0), 1e-12)
        back = apply_circuit(circuit.dagger(), out)
        rec.check(0, n, "random-circuit-inverse",
                  float(np.abs(back.amps - state.amps).max()), 1e-10)


def _check_apps(rec: _Recorder, rng: np.random.Generator, n: int) -> None:
    # even/odd sums on states over n+1 qubits
    for _ in range(3):
        state = _random_state(rng, n + 1)
        m = int(rng.integers(2, 2**n + 1))
        _, even = apps.even_odd_partial_sum(state, m, apps.Parity.EVEN)
        _, odd = apps.even_odd_partial_sum(state, m, apps.Parity.ODD)
        rec.check(m, n, "even-sum", abs(even - state.amps[0:2 * m:2].sum()), 1e-10)
        rec.check(m, n, "odd-sum", abs(odd - state.amps[1:2 * m:2].sum()), 1e-10)
        rec.check(m, n, "even-plus-odd",
                  abs((even + odd) - oracle.brute_force_partial_sum(state, 2 * m)), 1e-10)

        c0_i = apps.tensor_weighted_sum(state, m, np.eye(2))
        c0_x = apps.tensor_weighted_sum(state, m, np.array([[0, 1], [1, 0]], dtype=complex))
        had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        c0_h = apps.tensor_weighted_sum(state, m, had)
        root_m = math.sqrt(m)
        rec.check(m, n, "tensor-identity", abs(c0_i - state.amps[0:2 * m:2].sum() / root_m), 1e-10)
        rec.check(m, n, "tensor-x", abs(c0_x - state.amps[1:2 * m:2].sum() / root_m), 1e-10)
        rec.check(m, n, "tensor-h",
                  abs(c0_h - state.amps[:2 * m].sum() / (root_m * math.sqrt(2))), 1e-10)

    # full-prefix quadrature reduces to the plain midpoint rule
    samples = rng.uniform(0.1, 1.0, size=2**n)
    spec = apps.IntegrationSpec(n, 2**n, samples)
    rec.check(2**n, n, "full-interval-quadrature",
              abs(apps.integrate_midpoint(spec) - spec.dx * samples.sum()), 1e-12)
    m = int(rng.integers(2, 2**n + 1))
    ones = apps.IntegrationSpec(n, m, np.ones(2**n))
    rec.check(m, n, "constant-quadrature",
              abs(apps.integrate_midpoint(ones) - m / 2**n), 1e-12)


def _plateau_state() -> StateVector:
    """16 amplitudes on dyadic plateaus of 8, 4, 2 and 1 entries, then a 0 (exactly unit norm)."""
    levels = [1.0 / math.sqrt(64.0), 1.0 / math.sqrt(32.0), 1.0 / math.sqrt(8.0), 1.0 / math.sqrt(2.0), 0.0]
    return StateVector(np.repeat(levels, [8, 4, 2, 1, 1]))


def _check_sampling(rec: _Recorder, seed: int) -> None:
    state = _plateau_state()
    out = apply_circuit(build_partial_sum_circuit(10, 4), state)
    p = abs(complex(out.amps[0])) ** 2
    shots = 16_000_000  # 5 sigma here is 4.8e-4, and a correct sampler fails about once in 1.7 million seeds
    counts = sample_measurements(out, shots, seed=seed)
    freq = counts.get(0, 0) / shots
    sigma = math.sqrt(p * (1.0 - p) / shots)
    rec.check(10, 4, "sampling-five-sigma", abs(freq - p), 5.0 * sigma)


def run_sweep(
    n_max: int,
    weighted_trials: int = 25,
    seed: int = 2024,
    report: Callable[[str], None] = print,
) -> list[Failure]:
    """Run the whole invariant sweep; returns the list of failures."""
    if not 2 <= check_int(n_max, "n-max") <= MAX_SWEEP_QUBITS:
        raise ValueError(f"n-max must satisfy 2 <= n-max <= {MAX_SWEEP_QUBITS}, got {n_max}")
    if check_int(weighted_trials, "weighted-trials") < 0:
        raise ValueError(f"weighted-trials must be non-negative, got {weighted_trials}")
    if weighted_trials > MAX_WEIGHTED_TRIALS:
        raise ValueError(f"weighted-trials must be at most {MAX_WEIGHTED_TRIALS}, got {weighted_trials}")
    if check_int(seed, "seed") < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rec = _Recorder(report)
    rng = np.random.default_rng(seed)
    for n in range(2, n_max + 1):
        for m in range(2, 2**n + 1):
            decomp = decompose(m, n)
            circuit = build_partial_sum_circuit(m, n)
            row = oracle.predicted_first_row(m, n)
            _check_static(rec, decomp, circuit)
            _check_oracle(rec, rng, decomp, row, weighted_trials)
            _check_simulator(rec, rng, decomp, circuit, row, weighted_trials)
        _check_random_circuits(rec, rng, n)
        _check_apps(rec, rng, n)
        report(f"n={n}: swept M=2..{2**n}, cumulative failures: {len(rec.failures)}")
    _check_sampling(rec, seed)
    report(f"ran {rec.checks} checks, {len(rec.failures)} failures")
    return rec.failures
