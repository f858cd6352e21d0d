import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kron_unitary, random_circuit, random_state

from ampsum.apps import IntegrationSpec, integrate_midpoint, tensor_weighted_sum
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
from ampsum import simulate
from ampsum.simulate import (
    amplitude,
    apply_circuit,
    extract_unitary,
    first_rows,
    row_dot,
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


READOUT_TOL = 4e-15  # amplitude against apply_circuit: about 8x the worst deviation measured on these inputs
UNNORMALIZED = 3 - 4j  # row_dot is linear: this multiple of a state reads as the multiple of its amplitude


def _assert_reads(circuit, state, index, want):
    got = amplitude(circuit, state, index)
    assert type(got) is complex and abs(got - want) <= READOUT_TOL
    got = row_dot(circuit, UNNORMALIZED * state.amps, index)
    assert type(got) is complex and abs(got - UNNORMALIZED * want) <= abs(UNNORMALIZED) * READOUT_TOL


def _tensor_read(circuit, state):
    """``tensor_weighted_sum`` with V = I and M = 2, run beside ``apply_circuit`` and ``amplitude``: it reads
    entries 0 and 2 alone, so only its input check sees an entry that these tests corrupt."""
    return tensor_weighted_sum(state, 2, np.eye(2))


class TestAmplitude:
    def _assert_every_index_matches(self, circuit, state):
        out = apply_circuit(circuit, state).amps
        for i in range(2**circuit.n_qubits):
            _assert_reads(circuit, state, i, out[i])

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
                    _assert_reads(circuit, state, i, out[i])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    def test_property_equals_full_simulation(self, n, seed, data):
        rng = np.random.default_rng(seed)
        circuit, state = _readout_circuit(rng, n), random_state(rng, n)
        index = data.draw(st.integers(0, 2**n - 1))
        _assert_reads(circuit, state, index, apply_circuit(circuit, state).amps[index])

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
        for run in (apply_circuit, amplitude, _tensor_read):
            with pytest.raises(ValueError, match="not normalized"):
                run(build_partial_sum_circuit(5, 3), state)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            amplitude(Circuit(2), basis_state(2), 4)

    @pytest.mark.parametrize("n", [10, 11, 12, 13, 14])
    def test_readout_circuits_equal_full_simulation_at_larger_n(self, n):
        # plain, weighted (both control polarities, and lowered to positive controls) and even/odd cascades
        rng = np.random.default_rng(800 + n)
        state = random_state(rng, n)
        state.amps.flags.writeable = False  # amplitude reads the input state and never writes it
        top = 1 << (n - 1)
        half = top | sum(1 << int(b) for b in rng.choice(n - 1, size=(n - 1) // 2, replace=False))
        weighted = build_weighted_circuit(half, n, WeightSpec(tuple(rng.uniform(-1, 1, decompose(half, n).k))))
        flipped = Circuit(n, tuple(g if g.control is None else replace(g, control_value=1) for g in weighted.gates))
        circuits = [build_partial_sum_circuit(m, n) for m in (top, top | 0b1111, half)]
        lifted = [build_partial_sum_circuit(m, n - 1).lifted(n, offset=1) for m in (top >> 1, half >> 1)]  # even/odd
        for circuit in circuits + lifted + [weighted, flipped, lower_negative_controls(weighted)]:
            out = apply_circuit(circuit, state).amps
            for i in (0, 1, 2**n - 2, 2**n - 1):
                _assert_reads(circuit, state, i, out[i])

    @pytest.mark.parametrize("bad, message", [(math.nan, "finite"), (0.5, "not normalized")])
    def test_entry_outside_every_term_block_reaches_the_input_check(self, bad, message):
        # M = 2**(n-1) + 1 reads entries 0 to 2**(n-1) alone: entry 2**(n-1) + 2**(n-2) lies in no term's
        # block, so only the check of the input state sees it
        n = 10
        state = basis_state(n)
        state.amps[2 ** (n - 1) + 2 ** (n - 2)] = bad
        for run in (apply_circuit, amplitude, _tensor_read):
            with pytest.raises(ValueError, match=message):
                run(build_partial_sum_circuit(2 ** (n - 1) + 1, n), state)

    @pytest.mark.parametrize("bad, message", [(math.nan, "finite"), (0.5, "not normalized")])
    def test_entry_above_an_untouched_qubit_reaches_the_input_check(self, bad, message):
        # M = 2**(n-1) leaves qubit n-1 untouched, so index 0 never reads the upper half: only the
        # check of the input state sees an entry there
        n = 10
        state = basis_state(n)
        state.amps[2 ** (n - 1) + 3] = bad
        for run in (apply_circuit, amplitude, _tensor_read):
            with pytest.raises(ValueError, match=message):
                run(build_partial_sum_circuit(2 ** (n - 1), n), state)

    @pytest.mark.parametrize("m, states", [
        (2**17, 0.375),
        (2**17 + 0x5555, 0.75),
        (2**18 - 1, 1.0),
    ])
    def test_peak_allocation_within_the_readout_bound(self, m, states):
        # no copy of the state: each term's block, up to half the state, is summed as a view of the input,
        # well inside these bounds, which also allow 512 KB of temporaries and 64 KB of small objects
        n = 18
        circuit, state = build_partial_sum_circuit(m, n), random_state(np.random.default_rng(m), n)
        tracemalloc.start()
        try:
            amplitude(circuit, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= states * state.amps.nbytes + 2**19 + 2**16

    @pytest.mark.parametrize("m, offset, index", [(2**18 - 1, 0, 0), (2**17 - 1, 1, 1)])
    def test_uniform_terms_allocate_no_block_sized_array(self, m, offset, index):
        # every term of a partial sum at index 0, or of the odd read of one lifted by a qubit, is uniform, so
        # each block is one numpy sum of a view of the read-only input: no array a fraction of the state in
        # size, within 64 KB of temporaries and 64 KB of small objects (a 4 MB state, whose quarter a
        # level-by-level halving would allocate, and which a fallback to apply_circuit would copy)
        n = 18
        circuit = build_partial_sum_circuit(m, n - offset).lifted(n, offset)
        state = random_state(np.random.default_rng(m), n)
        state.amps.flags.writeable = False
        tracemalloc.start()
        try:
            amplitude(circuit, state, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**16 + 2**16


def _pair_circuit(n: int, v: int, w: int, *, between=(), after=(), second=None, opening=()) -> Circuit:
    """H on t = 3 controlled by c = 7 being v, then RY on c controlled by t being w (c's last gate unless
    ``after`` touches c), then gates that mix every qubit, t among them."""
    t, c = 3, 7
    pair = (h(t, c, v),) + tuple(between) + (second or ry(0.9, c, t, w),)
    closing = (ry(0.4, t, 0, 1), h(t)) + tuple(h(q) for q in range(n) if q not in (t, c))
    return Circuit(n, tuple(opening) + pair + tuple(after) + closing)


class TestControlledPairs:
    # a gate on t controlled by c = v, followed at once by a gate on c controlled by t = w, the controlled
    # pair every cascade level holds, and its near misses.  Each case reads all four patterns of the two
    # qubits' index bits from a read-only state, against apply_circuit.

    @staticmethod
    def _check(circuit, n, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, n)
        state.amps.flags.writeable = False
        out = apply_circuit(circuit, state).amps
        base = int(rng.integers(2**n)) & ~(1 << 3 | 1 << 7)
        for bit_c in (0, 1):
            for bit_t in (0, 1):
                index = base | bit_c << 7 | bit_t << 3
                _assert_reads(circuit, state, index, out[index])

    @pytest.mark.parametrize("n", [10, 12, 14])
    @pytest.mark.parametrize("v", [0, 1])
    @pytest.mark.parametrize("w", [0, 1])
    @pytest.mark.parametrize("opening", [(), (h(1), h(2, 1, 0))], ids=["from-input", "in-place"])
    def test_pair_that_splits_a_term_reads_as_apply_circuit(self, n, v, w, opening):
        self._check(_pair_circuit(n, v, w, opening=opening), n, n + 2 * v + w)

    @pytest.mark.parametrize("n, between", [
        (10, (h(3, 0, 1),)),  # a gate on t between the pair
        (13, (x(5),)),  # a gate on neither qubit
    ])
    @pytest.mark.parametrize("v, w", [(0, 0), (1, 0), (0, 1)])
    def test_a_gate_between_the_pair_reads_as_apply_circuit(self, n, between, v, w):
        self._check(_pair_circuit(n, v, w, between=between), n, 20 + n + v + 2 * w)

    @pytest.mark.parametrize("n", [11, 14])
    @pytest.mark.parametrize("v, w", [(0, 0), (1, 1)])
    def test_control_mixed_again_reads_as_apply_circuit(self, n, v, w):
        self._check(_pair_circuit(n, v, w, after=(h(7, 0, 1),)), n, 40 + n + v + w)  # c is mixed again

    @pytest.mark.parametrize("second", [ry(0.9, 7, 0, 0), ry(0.9, 5, 3, 0), h(7)],
                             ids=["other-control", "other-target", "uncontrolled"])
    def test_second_gate_off_the_pair_reads_as_apply_circuit(self, second):
        self._check(_pair_circuit(12, 0, 0, second=second), 12, 60)

    @pytest.mark.parametrize("n", [10, 12, 14])
    def test_lifted_even_odd_circuit_at_index_one(self, n):
        # every cascade level holds the pair: H(bits[j]) controlled by bits[j+1] = 0, then bits[j+1]'s RY
        rng = np.random.default_rng(70 + n)
        state = random_state(rng, n)
        state.amps.flags.writeable = False
        m = (1 << (n - 2)) | (1 << (n - 3)) | 0b1011  # bit n-3 set: the cascade opens on the pair
        lifted = build_partial_sum_circuit(m, n - 1).lifted(n, offset=1)
        _assert_reads(lifted, state, 1, apply_circuit(lifted, state).amps[1])


def _half_full(rng: np.random.Generator, bits: int) -> int:
    """A random M with its top bit at ``bits - 1`` and ``ceil(bits / 2)`` set bits."""
    low = rng.choice(bits - 1, size=(bits + 1) // 2 - 1, replace=False)
    return 1 << (bits - 1) | sum(1 << int(b) for b in low)


def _dyadic_blocks(terms: list) -> list[tuple[int, int, float]]:
    """Each term as (start, log2 of its width, value), sorted, once it is checked to be a dyadic block:
    uniform pairs on its lowest qubits and basis vectors above them."""
    blocks = []
    for term in terms:
        free = [q for q, (a, b) in enumerate(term) if a and b]
        j = len(free)
        assert free == list(range(j)) and all(a == b for a, b in term[:j])
        start = sum(int(not a) << q for q, (a, b) in enumerate(term) if q >= j)
        blocks.append((start, j, math.prod(a or b for a, b in term)))
    return sorted(blocks)


class TestRowTerms:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_plain_cascade_is_one_uniform_term_per_dyadic_segment(self, n):
        # U^dagger |0> is (1/sqrt(M)) times the indicator of [0, M): set bit j of M, from the highest down,
        # owns the next 2**j indices, and its term holds basis qubits above j and uniform pairs below.  Every
        # read a command makes is such a block sum: a weighted cascade at index 0, whose terms carry the
        # oracle's segment coefficients, and a cascade lifted by one qubit (even/odd, tensor) at index 0 or 1,
        # whose qubit 0 is that index's basis vector
        rng = np.random.default_rng(2400 + n)
        for m in range(2, 2**n + 1):
            bits = [j for j in range(n + 1) if m >> j & 1][::-1]
            starts = [m >> (j + 1) << (j + 1) for j in bits]  # the set bits above j
            segments = sorted(zip(starts, bits))
            plain = build_partial_sum_circuit(m, n)
            reads, lifted = [simulate._row_terms(plain.gates, n, 0)], plain.lifted(n + 1, offset=1)
            for p in (0, 1):
                terms = simulate._row_terms(lifted.gates, n + 1, p)
                assert all(term[0] == ((1.0, 0.0), (0.0, 1.0))[p] for term in terms)
                reads.append([term[1:] for term in terms])
            for terms in reads:
                blocks = _dyadic_blocks(terms)
                assert [block[:2] for block in blocks] == segments
                assert all(abs(value * math.sqrt(m) - 1.0) <= 1e-14 for *_, value in blocks)
            weights = WeightSpec(tuple(rng.uniform(-1.0, 1.0, size=decompose(m, n).k)))
            row = predicted_first_row(m, n, weights)
            blocks = _dyadic_blocks(simulate._row_terms(build_weighted_circuit(m, n, weights).gates, n, 0))
            assert [block[:2] for block in blocks] == segments
            assert all(abs(value - row[start]) <= 1e-14 for start, _, value in blocks)

    def test_more_terms_than_gates_fall_back(self):
        # read last gate first, each H(0) puts qubit 0 back in superposition and the next H(1) controlled
        # by it splits every term: 1, 2, 4 and 8 terms after 0, 2, 4 and 6 gates
        four = (h(1, 0), h(0)) * 2
        assert len(simulate._row_terms(four, 2, 0)) == 4
        assert simulate._row_terms((h(1, 0), h(0)) + four, 2, 0) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_fall_back_to_full_simulation(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = 6
        circuit, state = random_circuit(rng, n, 50), random_state(rng, n)
        out = apply_circuit(circuit, state).amps
        for index in (0, int(rng.integers(2**n))):
            assert simulate._row_terms(circuit.gates, n, index) is None
            got = amplitude(circuit, state, index)
            assert type(got) is complex and got == out[index]

    @pytest.mark.parametrize("m", [2**9 + 1, 2**9 + 15, 700])
    def test_unequal_pairs_fall_back_to_full_simulation(self, m):
        # near the last index a cascade's terms hold unequal pairs (a, b), which no block sum reads: such a read
        # is apply_circuit's amplitude to the bit
        n = 10
        circuit, state = build_partial_sum_circuit(m, n), random_state(np.random.default_rng(2500), n)
        out = apply_circuit(circuit, state).amps
        for index in (2**n - 1, 2**n - 2):
            terms = simulate._row_terms(circuit.gates, n, index)
            assert any(a and b and a != b for term in terms for a, b in term)
            got = amplitude(circuit, state, index)
            assert type(got) is complex and got == out[index]


class TestReadoutAccuracy:
    # sums of 2**16 to 2**20 amplitudes against math.fsum, the exactly rounded sum: numpy's pairwise sum of
    # each term's block keeps the error under 3e-15, where one flat dot product over the block exceeds 1e-14
    @pytest.mark.parametrize("n", [18, 19, 20])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_tensor_readouts_are_within_1e_14_of_the_exact_sum(self, n, dim):
        rng = np.random.default_rng(2200 + 8 * n + dim)
        state = random_state(rng, n)
        v, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        m = _half_full(rng, n - int(math.log2(dim)))
        # sum_k v[0][k % dim] * amps[k] over k < m * dim, one exactly rounded sum per column of V's row
        cols = [state.amps[j:m * dim:dim] for j in range(dim)]
        want = sum(v[0, j] * complex(math.fsum(c.real.tolist()), math.fsum(c.imag.tolist()))
                   for j, c in enumerate(cols))
        got = math.sqrt(m) * tensor_weighted_sum(state, m, v)
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("n", [18, 19, 20])
    def test_integration_is_within_1e_14_of_the_exact_sum(self, n):
        rng = np.random.default_rng(2300 + n)
        samples = rng.normal(size=2**n)
        for m in (2**n - 1, _half_full(rng, n)):
            want = math.fsum(samples[:m].tolist()) / 2**n
            got = integrate_midpoint(IntegrationSpec(n, m, samples))
            assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("n", [18, 19, 20])
    def test_readouts_are_within_1e_14_of_the_exact_sum(self, n):
        rng = np.random.default_rng(2100 + n)
        state = random_state(rng, n)
        re, im = state.amps.real.tolist(), state.amps.imag.tolist()
        reads = [(build_partial_sum_circuit(m, n), 0, m, 0, 1) for m in (2**n - 1, 2 ** (n - 1), _half_full(rng, n))]
        for parity in (0, 1):  # even, odd: the cascade on the high n-1 qubits, output index 0 or 1
            m = _half_full(rng, n - 1)
            reads.append((build_partial_sum_circuit(m, n - 1).lifted(n, offset=1), parity, m, parity, 2))
        for circuit, index, m, start, step in reads:
            want = complex(math.fsum(re[start:step * m:step]), math.fsum(im[start:step * m:step]))
            got = math.sqrt(m) * amplitude(circuit, state, index)
            assert abs(got - want) <= 1e-14 * abs(want)


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


def _whole_slice_gate(work: np.ndarray, g, coeffs=None) -> None:
    """One gate in place on whole slices of a qubit-per-axis view of ``work``, with no blocks: the reference.
    X swaps the target's two slices; H and RY mix them with ``coeffs``, the gate's own or one per column."""
    n = work.shape[0].bit_length() - 1
    view = work.reshape([2] * n + [-1])  # axis 0 is the most significant qubit; the last holds the columns
    sel: list = [slice(None)] * view.ndim
    if g.control is not None:
        sel[n - 1 - g.control] = g.control_value
    sel[n - 1 - g.target] = 0
    a0 = view[tuple(sel)]
    sel[n - 1 - g.target] = 1
    a1 = view[tuple(sel)]
    if g.kind is GateKind.X:
        a0[...], a1[...] = a1.copy(), a0.copy()
        return
    (m00, m01), (m10, m11) = g.coeffs if coeffs is None else coeffs
    old0 = a0 * m10
    a0 *= m00
    a0 += m01 * a1
    a1 *= m11
    a1 += old0


class TestBlockedKernel:
    # a sweep above simulate._SMALL bytes mixes slices above the block size a block at a time; every bit
    # must match whole slices
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
            assert got.nbytes > simulate._SMALL
            simulate._sweep(got, (gate,))
            _whole_slice_gate(want, gate)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("gate", [x(0), x(5), x(5, 17, 0), x(17, 2, 1)])
    def test_x_swaps_a_block_at_a_time(self, gate):
        # the peak is apply_circuit's output copy, one copied block and the block numpy copies when the two
        # slices' bounds overlap, and 64 KB of small objects; every entry moves to its partner unchanged
        n = 18
        state = random_state(np.random.default_rng(5), n)
        tracemalloc.start()
        try:
            out = apply_circuit(Circuit(n, (gate,)), state).amps
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= state.amps.nbytes + 2 * simulate._BLOCK * state.amps.itemsize + 2**16
        i = np.arange(2**n)
        fires = (i >> gate.control & 1) == gate.control_value if gate.control is not None else True
        partner = np.where(fires, i ^ 1 << gate.target, i)
        assert np.array_equal(out.view(np.int64), state.amps[partner].view(np.int64))

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
            assert got.nbytes > simulate._SMALL
            per_column = coeffs if gate.kind is GateKind.RY else None
            simulate._sweep(got, (gate,), [np.array(coeffs)])  # an H leaves the RY entry unread
            _whole_slice_gate(want, gate, per_column)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _complex_unitary(circuit: Circuit) -> np.ndarray:
    """The complex128 loop ``extract_unitary`` ran before its float64 sweep: the reference."""
    n = circuit.n_qubits
    mat = np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        _whole_slice_gate(mat, g)
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
        _whole_slice_gate(work, column[0], coeffs)
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


class TestSmallArrayStep:
    # a swept array of at most simulate._SMALL bytes takes each gate as one multiply and one add on a
    # target-first view; larger ones keep the blocked kernel.  Both must give the whole-slice reference's bits.

    @pytest.mark.parametrize("n", range(6, 15))
    def test_apply_circuit_equals_gate_by_gate_kernel(self, n):
        rng = np.random.default_rng(60 + n)
        circuit, state = random_circuit(rng, n, 60), random_state(rng, n)
        middle = circuit.gates[1:-1]
        assert {g.control_value for g in middle if g.control is not None} == {0, 1}
        assert any(g.kind is GateKind.X and g.control is not None for g in middle)
        want = state.amps.copy()
        for g in circuit.gates:
            _whole_slice_gate(want, g)
        assert np.array_equal(apply_circuit(circuit, state).amps.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n, t, small", [(4, 256, True), (4, 257, False), (6, 64, True), (6, 65, False),
                                             (7, 32, True), (7, 33, False), (8, 16, True), (8, 17, False)])
    def test_first_rows_batches_equal_complex_reference(self, n, t, small):
        assert (2**n * t * 8 <= simulate._SMALL) == small  # float64 columns: at the constant, or one past it
        m = 2**n - 3  # every level of the cascade, with a controlled RY on each
        weights = _weighted_batch(np.random.default_rng(n), m, n, t)
        circuits = [build_weighted_circuit(m, n, WeightSpec(tuple(b))) for b in weights]
        rows = first_rows(circuits[0], cascade_angles(weights))
        assert np.array_equal(rows, _complex_first_rows(circuits))

    def test_large_sweeps_keep_block_sized_temporaries(self):
        # the two-call step's temporary is twice the state, which a large sweep must never make: the peak is
        # the output copy plus the blocked kernel's temporaries.  X is left out, as its in-place swap copies
        # one of its slices whole.
        n = 18
        rng = np.random.default_rng(18)
        circuit = Circuit(n, tuple(g for g in random_circuit(rng, n, 60).gates if g.kind is not GateKind.X))
        state = random_state(rng, n)
        tracemalloc.start()
        try:
            apply_circuit(circuit, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= state.amps.nbytes + 4 * simulate._BLOCK * state.amps.itemsize


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
