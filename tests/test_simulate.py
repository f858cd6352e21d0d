import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kron_unitary, random_circuit, random_state

from ampsum.build import (
    WeightSpec,
    build_partial_sum_circuit,
    build_weighted_circuit,
    cascade_angles,
    decompose,
)
from ampsum.core import Circuit, Gate, GateKind, StateVector, basis_state, h, ry, state_from_amplitudes, x
from ampsum.formats import lower_negative_controls
from ampsum.oracle import brute_force_partial_sum, predicted_first_row
from ampsum.simulate import (
    _apply_gate,
    amplitude,
    apply_circuit,
    extract_unitary,
    first_rows,
    sample_measurements,
)


class TestApplyCircuit:
    def test_empty_circuit_is_identity(self):
        s = state_from_amplitudes([0.5, 0.5, 0.5, 0.5])
        out = apply_circuit(Circuit(2), s)
        assert np.array_equal(out.amps, s.amps)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="qubits"):
            apply_circuit(Circuit(3, (h(0),)), basis_state(2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_kron_reference_on_random_circuits(self, n):
        # the independent Kronecker route checks every gate/control path
        rng = np.random.default_rng(100 + n)
        for _ in range(8):
            circuit = random_circuit(rng, n, 25)
            state = random_state(rng, n)
            out = apply_circuit(circuit, state)
            expect = kron_unitary(circuit) @ state.amps
            assert np.abs(out.amps - expect).max() <= 1e-12

    def test_norm_preserved_on_long_random_circuits(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            circuit = random_circuit(rng, n, 50)
            out = apply_circuit(circuit, random_state(rng, n))
            assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-12

    def test_dagger_undoes_circuit(self):
        rng = np.random.default_rng(8)
        for n in (2, 4, 6):
            circuit = random_circuit(rng, n, 30)
            state = random_state(rng, n)
            back = apply_circuit(circuit.dagger(), apply_circuit(circuit, state))
            assert np.abs(back.amps - state.amps).max() <= 1e-10

    def test_plateau_amplitude_m13(self, plateau_state):
        out = apply_circuit(build_partial_sum_circuit(13, 4), plateau_state)
        expect = (1.0 + 1.0 / math.sqrt(2.0) + 1.0 / math.sqrt(8.0)) / math.sqrt(13.0)
        assert complex(out.amps[0]) == pytest.approx(expect, abs=1e-12)
        assert complex(out.amps[0]).real == pytest.approx(0.5715243008198905, abs=1e-12)

    def test_dagger_prepares_uniform_superposition(self):
        for n in (3, 6):
            for m in range(2, 2**n + 1):
                circuit = build_partial_sum_circuit(m, n)
                out = apply_circuit(circuit.dagger(), basis_state(n))
                expect = np.zeros(2**n, dtype=complex)
                expect[:m] = 1.0 / math.sqrt(m)
                assert np.abs(out.amps - expect).max() <= 1e-10

    def test_zero_amplitude_is_linear_in_input(self):
        rng = np.random.default_rng(9)
        for m, n in ((5, 3), (13, 4), (200, 8)):
            state = random_state(rng, n)
            c0 = complex(apply_circuit(build_partial_sum_circuit(m, n), state).amps[0])
            row = predicted_first_row(m, n)
            assert abs(c0 - np.dot(row, state.amps)) <= 1e-10
            assert abs(math.sqrt(m) * c0 - brute_force_partial_sum(state, m)) <= 1e-10


def _readout_circuit(rng: np.random.Generator, n: int) -> Circuit:
    """Random circuit on a random subset of the register, often ending in X gates."""
    used = [q for q in range(n) if rng.random() < 0.7] or [0]
    gates = [g for g in random_circuit(rng, n, int(rng.integers(0, 15))).gates
             if set(g.qubits) <= set(used)]
    if rng.random() < 0.5:
        gates += [x(int(q)) for q in rng.choice(used, size=int(rng.integers(1, 4)))]
    return Circuit(n, tuple(gates))


class TestAmplitude:
    def _assert_every_index_matches(self, circuit, state):
        out = apply_circuit(circuit, state).amps
        for i in range(2**circuit.n_qubits):
            assert amplitude(circuit, state, i) == out[i]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_index_equals_full_simulation(self, n):
        # both control polarities, trailing X, untouched qubits, empty circuits
        rng = np.random.default_rng(300 + n)
        for _ in range(30):
            self._assert_every_index_matches(_readout_circuit(rng, n), random_state(rng, n))
        self._assert_every_index_matches(Circuit(n), random_state(rng, n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_synthesized_circuits_equal_full_simulation(self, n):
        rng = np.random.default_rng(400 + n)
        state = random_state(rng, n)
        indices = range(2**n) if n <= 5 else (0, 1, 2**n - 1)
        for m in range(2, 2**n + 1):
            circuits = [build_partial_sum_circuit(m, n)]
            k = decompose(m, n).k
            if k and m < 2**n:
                circuits.append(build_weighted_circuit(m, n, WeightSpec(tuple(rng.uniform(-1, 1, k)))))
            for circuit in circuits:
                out = apply_circuit(circuit, state).amps
                for i in indices:
                    assert amplitude(circuit, state, i) == out[i]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    def test_property_equals_full_simulation(self, n, seed, data):
        rng = np.random.default_rng(seed)
        circuit, state = _readout_circuit(rng, n), random_state(rng, n)
        index = data.draw(st.integers(0, 2**n - 1))
        assert amplitude(circuit, state, index) == apply_circuit(circuit, state).amps[index]

    def test_dimension_mismatch_rejected_like_apply(self):
        for run in (apply_circuit, amplitude):
            with pytest.raises(ValueError, match="circuit acts on 3 qubits but the state has 2"):
                run(Circuit(3, (h(0),)), basis_state(2))

    def test_qubit_cap_enforced_like_apply(self):
        state = StateVector(np.eye(1, 2**21, dtype=complex)[0])
        for run in (apply_circuit, amplitude):
            with pytest.raises(ValueError, match="at most 20 qubits, got 21"):
                run(Circuit(21), state)

    @pytest.mark.parametrize("where", [0, 5, 6])
    def test_corrupted_state_rejected_like_apply(self, where):
        # a NaN must reach the output check whichever slice carries it
        circuit = build_partial_sum_circuit(5, 3)
        state = random_state(np.random.default_rng(60), 3)
        state.amps[where] = math.nan
        for run in (apply_circuit, amplitude):
            with pytest.raises(ValueError, match="finite"):
                run(circuit, state)

    def test_denormalized_state_rejected_like_apply(self):
        state = basis_state(3)
        state.amps[7] = 0.5
        for run in (apply_circuit, amplitude):
            with pytest.raises(ValueError, match="not normalized"):
                run(build_partial_sum_circuit(5, 3), state)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            amplitude(Circuit(2), basis_state(2), 4)

    @pytest.mark.parametrize("n", [10, 11, 12, 13, 14])
    def test_readout_circuits_equal_full_simulation_at_larger_n(self, n):
        # the last gate on a target below the leading axis runs on a fresh copy of the live slices
        rng = np.random.default_rng(800 + n)
        state = random_state(rng, n)
        state.amps.flags.writeable = False  # amplitude reads the input state and never writes it
        top = 1 << (n - 1)
        half = top | sum(1 << int(b) for b in rng.choice(n - 1, size=(n - 1) // 2, replace=False))
        weighted = build_weighted_circuit(half, n, WeightSpec(tuple(rng.uniform(-1, 1, decompose(half, n).k))))
        flipped = Circuit(n, tuple(g if g.control is None else replace(g, control_value=1) for g in weighted.gates))
        circuits = [build_partial_sum_circuit(m, n) for m in (top, top | 0b1111, half)]
        for circuit in circuits + [weighted, flipped, lower_negative_controls(weighted)]:
            out = apply_circuit(circuit, state).amps
            for i in (0, 1, 2**n - 1):
                assert amplitude(circuit, state, i) == out[i]

    @pytest.mark.parametrize("bad, message", [(math.nan, "finite"), (0.5, "not normalized")])
    def test_slice_dropped_by_a_fresh_copy_reaches_the_check(self, bad, message):
        # M = 2**(n-1) + 1 opens with H(n-2) controlled on qubit n-1 being 0, the last gate on qubit n-2,
        # and index 0 keeps qubit n-2 at 0: entry 2**(n-1) + 2**(n-2) sits where that control is idle,
        # so it passes unmixed into the dropped slice and reaches the output check through its norm alone
        n = 10
        state = basis_state(n)
        state.amps[2 ** (n - 1) + 2 ** (n - 2)] = bad
        for run in (apply_circuit, amplitude):
            with pytest.raises(ValueError, match=message):
                run(build_partial_sum_circuit(2 ** (n - 1) + 1, n), state)


class TestExtractUnitary:
    def test_single_hadamard(self):
        u = extract_unitary(Circuit(1, (h(0),)))
        assert np.allclose(u, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15)

    def test_first_row_m3(self):
        u = extract_unitary(build_partial_sum_circuit(3, 2))
        assert np.allclose(u[0], np.array([1, 1, 1, 0]) / math.sqrt(3), atol=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_first_row_power_of_two(self, r):
        u = extract_unitary(build_partial_sum_circuit(2**r, 4))
        expect = np.zeros(16)
        expect[: 2**r] = 1.0 / math.sqrt(2**r)
        assert np.abs(u[0] - expect).max() <= 1e-12

    def test_matches_kron_reference(self):
        rng = np.random.default_rng(12)
        circuit = random_circuit(rng, 3, 20)
        assert np.abs(extract_unitary(circuit) - kron_unitary(circuit)).max() <= 1e-12

    def test_synthesized_circuits_are_unitary(self):
        for n in range(2, 7):
            for m in range(2, 2**n + 1):
                u = extract_unitary(build_partial_sum_circuit(m, n))
                assert np.abs(u @ u.conj().T - np.eye(2**n)).max() <= 1e-10

    def test_weighted_first_row_matches_oracle(self):
        rng = np.random.default_rng(13)
        for m, n in ((6, 3), (13, 4), (42, 6), (201, 8)):
            k = bin(m).count("1") - 1
            for _ in range(5):
                w = WeightSpec(tuple(rng.uniform(-1, 1, k)))
                u = extract_unitary(build_weighted_circuit(m, n, w))
                row = predicted_first_row(m, n, w)
                assert np.abs(u[0].real - row).max() <= 1e-10
                assert np.abs(u[0].imag).max() <= 1e-10

    def test_qubit_cap_enforced(self):
        with pytest.raises(ValueError, match="at most 12"):
            extract_unitary(Circuit(13, (h(0),)))


def _whole_slice_gate(view: np.ndarray, g, axis, coeffs=None) -> None:
    """The kernel as it ran before it worked in blocks, on whole slices: the reference."""
    sel: list = [slice(None)] * view.ndim + [Ellipsis]
    if g.control is not None:
        sel[axis(g.control)] = g.control_value
    sel[axis(g.target)] = 0
    a0 = view[tuple(sel)]
    sel[axis(g.target)] = 1
    a1 = view[tuple(sel)]
    (m00, m01), (m10, m11) = g.coeffs if coeffs is None else coeffs
    old0 = a0 * m10
    a0 *= m00
    a0 += m01 * a1
    a1 *= m11
    a1 += old0


class TestBlockedKernel:
    # slices above the block size are mixed a block at a time; every bit must match whole slices
    @pytest.mark.parametrize("n", [16, 17])
    @pytest.mark.parametrize("kind", ["h", "ry"])
    @pytest.mark.parametrize("control_value", [None, 0, 1])
    def test_large_state_equals_whole_slices(self, n, kind, control_value):
        rng = np.random.default_rng(n)
        amps = random_state(rng, n).amps
        amps[:3] = [5e-324, 1e-300, -1e-300]
        control = None if control_value is None else n - 2
        for target in (0, n // 2, n - 1):
            polarity = 1 if control_value is None else control_value
            gate = (h(target, control, polarity) if kind == "h"
                    else ry(rng.uniform(0, 2 * math.pi), target, control, polarity))
            got, want = amps.copy(), amps.copy()
            _apply_gate(got.reshape([2] * n), gate, lambda q: n - 1 - q)
            _whole_slice_gate(want.reshape([2] * n), gate, lambda q: n - 1 - q)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n, t, gates", [
        (10, 64, (ry(0.0, 3), ry(0.0, 9, 4, 0), h(0, 9, 1))),  # 2**9 * 64 amplitudes per slice
        (1, 2**14 + 3, (ry(0.0, 0), h(0))),  # one batch axis longer than a block, never split
    ])
    def test_batch_axis_with_per_column_coeffs_equals_whole_slices(self, n, t, gates):
        rng = np.random.default_rng(7)
        work = rng.normal(size=(2**n, t))
        (c, ms), (s, _) = Gate.ry_coeffs(rng.uniform(0, 2 * math.pi, t))
        coeffs = ((c, ms), (s, c))
        for gate in gates:
            got, want = work.copy(), work.copy()
            per_column = coeffs if gate.kind is GateKind.RY else None
            _apply_gate(got.reshape([2] * n + [-1]), gate, lambda q: n - 1 - q, per_column)
            _whole_slice_gate(want.reshape([2] * n + [-1]), gate, lambda q: n - 1 - q, per_column)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _complex_unitary(circuit: Circuit) -> np.ndarray:
    """The complex128 loop ``extract_unitary`` ran before its float64 sweep: the reference."""
    n = circuit.n_qubits
    mat = np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        _apply_gate(mat.reshape([2] * n + [2**n]), g, lambda q: n - 1 - q)
    return mat


def _complex_first_rows(circuits: list[Circuit]) -> np.ndarray:
    """The complex128 loop ``first_rows`` ran over a list of built circuits: the reference."""
    n = circuits[0].n_qubits
    work = np.zeros((2**n, len(circuits)), dtype=complex)
    work[0] = 1.0
    for column in reversed(list(zip(*(c.gates for c in circuits)))):
        coeffs = None
        if column[0].kind is GateKind.RY:
            half = np.array([g.theta for g in column]) / 2.0
            c, s = np.cos(half), np.sin(half)
            coeffs = ((c, s), (-s, c))
        _apply_gate(work.reshape([2] * n + [-1]), column[0], lambda q: n - 1 - q, coeffs)
    return work.T.conj()


def _weighted_batch(rng: np.random.Generator, m: int, n: int, size: int) -> np.ndarray:
    return rng.uniform(-1, 1, size=(size, decompose(m, n).k))


class TestFirstRows:
    def _assert_equals_references(self, m, n, weights):
        # the float64 sweep over one skeleton equals the complex128 loop over built circuits
        skeleton = build_weighted_circuit(m, n, WeightSpec(tuple(weights[0])))
        rows = first_rows(skeleton, cascade_angles(weights))
        circuits = [build_weighted_circuit(m, n, WeightSpec(tuple(b))) for b in weights]
        assert rows.dtype == complex and rows.shape == (len(weights), 2**n)
        assert np.array_equal(rows, _complex_first_rows(circuits))
        for circuit, row in zip(circuits, rows):
            assert np.abs(row - extract_unitary(circuit)[0]).max() <= 1e-14

    def test_plain_circuits_match_unitary_row(self):
        for n in range(2, 9):
            for m in range(2, 2**n + 1):
                circuit = build_partial_sum_circuit(m, n)
                row = first_rows(circuit)
                unitary = extract_unitary(circuit)
                assert np.array_equal(row, _complex_first_rows([circuit]))
                assert np.array_equal(unitary, _complex_unitary(circuit))
                assert np.abs(row[0] - unitary[0]).max() <= 1e-14

    def test_weighted_batches_match_unitary_rows(self):
        rng = np.random.default_rng(14)
        for n in range(2, 9):
            for m in range(3, 2**n):
                if m & (m - 1):
                    self._assert_equals_references(m, n, _weighted_batch(rng, m, n, 2 if n == 8 else 3))

    def test_weighted_unitaries_equal_complex_reference(self):
        rng = np.random.default_rng(16)
        for n in range(2, 7):
            for m in range(3, 2**n):
                if m & (m - 1):
                    circuit = build_weighted_circuit(m, n, WeightSpec(tuple(_weighted_batch(rng, m, n, 1)[0])))
                    assert np.array_equal(extract_unitary(circuit), _complex_unitary(circuit))

    def test_plain_circuit_batches_with_weighted_ones_of_same_m(self):
        # for M not a power of two the plain circuit is the cascade with uniform weights
        d = decompose(13, 4)
        weights = np.vstack([WeightSpec.uniform(d).b, _weighted_batch(np.random.default_rng(15), 13, 4, 2)])
        rows = first_rows(build_weighted_circuit(13, 4, WeightSpec(tuple(weights[1]))), cascade_angles(weights))
        assert np.array_equal(rows[0], first_rows(build_partial_sum_circuit(13, 4))[0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 8), st.data())
    def test_property_weighted_batch(self, n, size, data):
        m = data.draw(st.integers(3, 2**n - 1).filter(lambda v: v & (v - 1)))
        k = decompose(m, n).k
        weights = st.lists(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k),
                           min_size=size, max_size=size)
        self._assert_equals_references(m, n, np.array(data.draw(weights)))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match=r"angles must form a \(T, 2\) array with T >= 1"):
            first_rows(build_partial_sum_circuit(13, 4), np.empty((0, 2)))

    @pytest.mark.parametrize("angles", [
        [0.3, 0.4],              # 1-D
        [[[0.3, 0.4]]],          # 3-D
        [[0.3]],                 # too few columns
        [[0.3, 0.4, 0.5]],       # too many columns
    ])
    def test_angle_array_shape_rejected(self, angles):
        with pytest.raises(ValueError, match=r"angles must form a \(T, 2\) array with T >= 1"):
            first_rows(build_partial_sum_circuit(13, 4), angles)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(ValueError, match="RY angles must all be finite"):
            first_rows(build_partial_sum_circuit(13, 4), [[0.3, 0.4], [0.5, bad]])

    def test_qubit_cap_enforced_like_apply(self):
        with pytest.raises(ValueError, match="at most 20 qubits, got 21"):
            first_rows(Circuit(21))

    def test_non_finite_row_rejected_like_apply(self):
        gate = ry(0.3, 0, control=1)
        object.__setattr__(gate, "theta", math.nan)  # bypass Gate's own check
        circuit = Circuit(2, (gate,))
        for run in (lambda: apply_circuit(circuit, basis_state(2)), lambda: first_rows(circuit)):
            with pytest.raises(ValueError, match="amplitudes must all be finite"):
                run()


class TestSampling:
    def test_basis_state_all_shots_on_one_index(self):
        counts = sample_measurements(basis_state(3, 5), shots=1000, seed=1)
        assert counts == {5: 1000}

    def test_uniform_single_qubit_within_three_sigma(self):
        s = state_from_amplitudes([1, 1], normalize=True)
        shots = 1_000_000
        counts = sample_measurements(s, shots, seed=42)
        sigma = math.sqrt(0.25 / shots)
        assert abs(counts[0] / shots - 0.5) <= 3 * sigma
        assert counts[0] + counts[1] == shots

    def test_fixed_seed_is_deterministic(self):
        s = state_from_amplitudes([1, 1j, -1, 2], normalize=True)
        assert sample_measurements(s, 5000, seed=7) == sample_measurements(s, 5000, seed=7)

    def test_partial_sum_pipeline_frequency(self, plateau_state):
        out = apply_circuit(build_partial_sum_circuit(10, 4), plateau_state)
        p = abs(complex(out.amps[0])) ** 2
        shots = 1_000_000
        counts = sample_measurements(out, shots, seed=2024)
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(counts.get(0, 0) / shots - p) <= 3 * sigma

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            sample_measurements(basis_state(1), shots=0, seed=0)
