"""Acceptance suite: one test per release criterion.

Each test pins its tolerance inline and prints a PASS line on success;
a pytest failure is the FAIL line.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import math
import time

import numpy as np
import pytest

from conftest import plateau_amplitudes

from ampsum.apps import (
    IntegrationSpec,
    Parity,
    even_odd_partial_sum,
    integrate_midpoint,
    partial_sum_via_circuit,
    tensor_weighted_sum,
)
from ampsum.build import (
    WeightSpec,
    build_partial_sum_circuit,
    build_weighted_circuit,
    decompose,
)
from ampsum.cli import main
from ampsum.core import StateVector, basis_state, state_from_amplitudes
from ampsum.oracle import (
    brute_force_partial_sum,
    predicted_first_row,
    segment_boundaries,
    segment_weights,
)
from ampsum.simulate import (
    apply_circuit,
    extract_unitary,
    sample_measurements,
)


def _passed(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {detail}")


def test_01_first_row_reproduction():
    start = time.monotonic()
    worst = 0.0
    for n in range(2, 9):
        for m in range(2, 2**n + 1):
            unitary = extract_unitary(build_partial_sum_circuit(m, n))
            expect = np.zeros(2**n)
            expect[:m] = 1.0 / math.sqrt(m)
            dev = max(np.abs(unitary[0].real - expect).max(), np.abs(unitary[0].imag).max())
            worst = max(worst, float(dev))
            assert dev <= 1e-10, f"first row off by {dev} at M={m}, n={n}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _passed(1, f"first rows for n=2..8 within 1e-10 (worst {worst:.2e}, {elapsed:.1f}s)")


def test_02_gate_count_formula():
    for m in range(2, 1025):
        circuit = build_partial_sum_circuit(m, 10)
        ones = [i for i in range(m.bit_length()) if (m >> i) & 1]
        expect = ones[0] if len(ones) == 1 else ones[-1] + 2 * (len(ones) - 1)
        assert len(circuit.gates) == expect, f"gate count mismatch at M={m}"
    _passed(2, "gate counts exact for all M <= 2**10")


def test_03_plateau_partial_sum_m10():
    state = StateVector(plateau_amplitudes())
    c0, total = partial_sum_via_circuit(state, 10)
    expect = 1.0 + 1.0 / math.sqrt(8.0)
    assert abs(total - expect) <= 1e-12
    assert abs(c0 - expect / math.sqrt(10.0)) <= 1e-12
    _passed(3, f"M=10 partial sum = 1 + 1/sqrt(8) within 1e-12 (got {total.real:.15f})")


def test_04_plateau_partial_sum_m13():
    state = StateVector(plateau_amplitudes())
    _, total = partial_sum_via_circuit(state, 13)
    expect = 1.0 + 1.0 / math.sqrt(2.0) + 1.0 / math.sqrt(8.0)
    assert abs(total - expect) <= 1e-12
    _passed(4, f"M=13 partial sum = 1 + 1/sqrt(2) + 1/sqrt(8) within 1e-12 (got {total.real:.15f})")


def test_05_sine_integration_value():
    spec = IntegrationSpec.from_function(lambda t: math.sin(math.pi * t), 4, 12)
    estimate = integrate_midpoint(spec)
    assert abs(estimate - 0.5442628374252914) <= 1e-12
    exact = (1.0 + math.sqrt(2.0) / 2.0) / math.pi
    assert abs(estimate - exact) < 1e-2
    _passed(5, f"sin-pi n=4 M=12 estimate {estimate:.16f}, error vs closed form "
               f"{abs(estimate - exact):.2e}")


def test_06_dagger_prepares_uniform_superposition():
    worst = 0.0
    for m in range(2, 257):
        circuit = build_partial_sum_circuit(m, 8)
        out = apply_circuit(circuit.dagger(), basis_state(8))
        expect = np.zeros(256, dtype=complex)
        expect[:m] = 1.0 / math.sqrt(m)
        dev = float(np.abs(out.amps - expect).max())
        worst = max(worst, dev)
        assert dev <= 1e-10, f"uniform superposition off by {dev} at M={m}"
    _passed(6, f"dagger circuit on |0> uniform for all M <= 2**8 (worst {worst:.2e})")


def test_07_weighted_oracle_equivalence():
    rng = np.random.default_rng(777)
    n = 8
    worst_row = 0.0
    worst_dot = 0.0
    for m in range(3, 2**n):
        if m & (m - 1) == 0:
            continue
        d = decompose(m, n)
        edges = segment_boundaries(d)
        for _ in range(25):
            weights = WeightSpec(tuple(rng.uniform(-1.0, 1.0, size=d.k)))
            row = predicted_first_row(m, n, weights)
            unitary = extract_unitary(build_weighted_circuit(m, n, weights))
            dev = max(np.abs(unitary[0].real - row).max(), np.abs(unitary[0].imag).max())
            worst_row = max(worst_row, float(dev))
            assert dev <= 1e-10, f"weighted first row off by {dev} at M={m}"

            f = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            coeffs = segment_weights(d, weights)
            by_segment = sum(
                coeffs[d.k - r] * f[edges[r]:edges[r + 1]].sum() for r in range(d.k + 1)
            )
            dot_dev = abs(np.dot(row, f) - by_segment)
            worst_dot = max(worst_dot, float(dot_dev))
            assert dot_dev <= 1e-10
    _passed(7, f"25 weighted trials per non-power M <= 2**8: rows within 1e-10 "
               f"(worst {worst_row:.2e}), segment sums within 1e-10 (worst {worst_dot:.2e})")


def test_08_restricted_weights_reproduce_plain_circuit():
    for m in range(3, 1025):
        if m & (m - 1) == 0:
            continue
        plain = build_partial_sum_circuit(m, 10)
        weighted = build_weighted_circuit(m, 10, WeightSpec.uniform(decompose(m, 10)))
        assert len(plain.gates) == len(weighted.gates)
        for g1, g2 in zip(plain.gates, weighted.gates):
            assert (g1.kind, g1.target, g1.control, g1.control_value) == (
                g2.kind, g2.target, g2.control, g2.control_value), f"skeleton differs at M={m}"
            assert abs(g1.theta - g2.theta) <= 1e-12, f"angle differs at M={m}"
    _passed(8, "restricted weights rebuild the plain circuit gate-for-gate, angles within 1e-12")


def test_09_even_odd_and_tensor_generalizations():
    rng = np.random.default_rng(909)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        amps = rng.normal(size=2**(n + 1)) + 1j * rng.normal(size=2**(n + 1))
        state = state_from_amplitudes(amps, normalize=True)
        m = int(rng.integers(2, 2**n + 1))
        _, even = even_odd_partial_sum(state, m, Parity.EVEN)
        _, odd = even_odd_partial_sum(state, m, Parity.ODD)
        assert abs(even - state.amps[0:2 * m:2].sum()) <= 1e-10
        assert abs(odd - state.amps[1:2 * m:2].sum()) <= 1e-10

    had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        amps = rng.normal(size=2**(n + 1)) + 1j * rng.normal(size=2**(n + 1))
        state = state_from_amplitudes(amps, normalize=True)
        m = int(rng.integers(2, 2**n + 1))
        root_m = math.sqrt(m)
        assert abs(tensor_weighted_sum(state, m, np.eye(2))
                   - state.amps[0:2 * m:2].sum() / root_m) <= 1e-10
        assert abs(tensor_weighted_sum(state, m, pauli_x)
                   - state.amps[1:2 * m:2].sum() / root_m) <= 1e-10
        assert abs(tensor_weighted_sum(state, m, had)
                   - state.amps[:2 * m].sum() / (root_m * math.sqrt(2.0))) <= 1e-10
    _passed(9, "even/odd sums on 100 random states and I/X/H tensor readouts within 1e-10")


def test_10_full_verify_sweep_and_sampling(capsys):
    start = time.monotonic()
    rc = main(["verify", "--n-max", "8"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert rc == 0, f"verify sweep failed:\n{out}"
    assert elapsed < 600.0

    state = StateVector(plateau_amplitudes())
    out_state = apply_circuit(build_partial_sum_circuit(10, 4), state)
    p = abs(complex(out_state.amps[0])) ** 2
    shots = 1_000_000
    counts = sample_measurements(out_state, shots, seed=1234)
    sigma = math.sqrt(p * (1.0 - p) / shots)
    dev = abs(counts.get(0, 0) / shots - p)
    assert dev <= 3.0 * sigma
    _passed(10, f"verify --n-max 8 exit 0 in {elapsed:.1f}s; sampling deviation "
                f"{dev:.2e} <= 3 sigma ({3 * sigma:.2e})")
