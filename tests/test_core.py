import math
import re
import warnings

import numpy as np
import pytest

from conftest import random_circuit

from ampsum.build import WeightSpec, build_partial_sum_circuit, build_weighted_circuit, decompose
from ampsum.core import (
    NORM_ATOL,
    Circuit,
    Gate,
    GateKind,
    StateVector,
    basis_state,
    check_dense,
    check_register,
    check_unit_rows,
    h,
    qubit_count,
    ry,
    state_from_amplitudes,
    x,
)
from ampsum.simulate import amplitude


class TestGateCoeffs:
    # the simulator references compare within tolerances or run through the same kernel,
    # so only these exact pins see a one-ulp change of a coefficient

    def test_hadamard_coefficient_is_one_over_sqrt_two(self):
        r = 1 / math.sqrt(2.0)  # math.sqrt(0.5) is one ulp higher
        assert r != math.sqrt(0.5)
        for g in (h(0), h(0, control=1, control_value=0)):
            assert g.coeffs == ((r, r), (r, -r))

    def test_pauli_x_coefficients(self):
        assert x(0).coeffs == ((0.0, 1.0), (1.0, 0.0))

    def test_scalar_ry_equals_batched_bit_for_bit(self):
        two_pi = 2 * math.pi
        sweep = np.concatenate([[0.0, -0.0, two_pi, -two_pi, math.pi, -math.pi],
                                np.random.default_rng(12).uniform(-2 * two_pi, 2 * two_pi, 4090)])
        bits = lambda coeffs: np.array(coeffs, dtype=float).view(np.uint64)
        batched = bits(Gate.ry_coeffs(sweep))
        for i, t in enumerate(sweep):
            assert np.array_equal(bits(ry(t, 0).coeffs), batched[..., i]), t
        # first_rows' form: RY(-t) over a transposed (gates, T) block
        block = sweep.reshape(-1, 8)
        inverted = bits(Gate.ry_coeffs(-block[:, ::-1].T))
        for (j, t), _ in np.ndenumerate(block):
            assert np.array_equal(bits(ry(-block[j, t], 0).coeffs), inverted[:, :, 7 - t, j])


class TestGateValidation:
    def test_control_equal_target_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            h(2, control=2)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ry(math.nan, 0)

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError, match="control_value"):
            x(0, control=1, control_value=2)

    def test_fields_the_text_format_cannot_write_rejected(self):
        # each one made a gate that did not parse back from its own circuit text
        with pytest.raises(ValueError, match="control_value 0 needs a control qubit"):
            h(0, control_value=0)
        with pytest.raises(ValueError, match="only an RY gate takes an angle, got 0.5 on x"):
            Gate(GateKind.X, 0, 0.5)

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            h(-1)


class TestCircuit:
    def test_gate_outside_register_rejected(self):
        with pytest.raises(ValueError, match="register has 2"):
            Circuit(2, (h(2),))

    def test_control_outside_register_rejected(self):
        with pytest.raises(ValueError, match="register has 2"):
            Circuit(2, (h(0, control=5),))

    def test_dagger_empty(self):
        assert Circuit(1).dagger() == Circuit(1)

    def test_dagger_hadamard_self_inverse(self):
        c = Circuit(1, (h(0),))
        assert c.dagger() == c

    def test_dagger_reverses_and_negates(self):
        c = Circuit(2, (ry(0.3, 1), x(0)))
        assert c.dagger() == Circuit(2, (x(0), ry(-0.3, 1)))

    def test_dagger_preserves_controls(self):
        c = Circuit(3, (ry(1.1, 2, control=0, control_value=0),))
        back = c.dagger().gates[0]
        assert (back.control, back.control_value, back.theta) == (0, 0, -1.1)

    def test_dagger_involution(self):
        c = Circuit(3, (h(0), ry(0.4, 1, control=2, control_value=0), x(2)))
        assert c.dagger().dagger() == c

    def test_depth_counts_chains_not_gates(self):
        c = Circuit(3, (h(0), h(1), x(0), h(2, control=0)))
        # layers: {h0, h1}, {x0}, {ch on 0,2}
        assert c.depth() == 3
        assert len(c.gates) == 4

    def test_depth_equals_a_list_over_every_qubit(self):
        # the reference keeps one level per register qubit; depth() keeps only the touched ones
        def reference(c):
            level = [0] * c.n_qubits
            for g in c.gates:
                d = 1 + max(level[q] for q in g.qubits)
                for q in g.qubits:
                    level[q] = d
            return max(level)

        rng = np.random.default_rng(91)
        circuits = [Circuit(3), Circuit(5, (x(4),))]
        for n in range(1, 9):
            for m in range(2, 2**n + 1):
                circuits.append(build_partial_sum_circuit(m, n))
                k = decompose(m, n).k
                if k:
                    circuits.append(build_weighted_circuit(m, n, WeightSpec(tuple(rng.uniform(-1, 1, k)))))
        circuits += [random_circuit(rng, int(rng.integers(1, 13)), int(rng.integers(0, 40))) for _ in range(500)]
        assert [c.depth() for c in circuits] == [reference(c) for c in circuits]

    def test_depth_of_a_huge_register(self):
        c = Circuit(10**12, (h(0), ry(0.5, 10**12 - 1, control=0), x(7)))
        assert c.depth() == 2

    def test_lifted_shifts_all_indices(self):
        c = Circuit(2, (h(0, control=1, control_value=0),))
        lifted = c.lifted(4, offset=2)
        g = lifted.gates[0]
        assert (lifted.n_qubits, g.target, g.control, g.control_value) == (4, 2, 3, 0)

    def test_lifted_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="register has 2"):
            Circuit(2, (h(1),)).lifted(2, offset=1)


class TestStateConstruction:
    def test_basis_from_amplitudes(self):
        s = state_from_amplitudes([1, 0, 0, 0])
        assert s.n_qubits == 2
        assert np.array_equal(s.amps, [1, 0, 0, 0])

    def test_normalize_uniform(self):
        s = state_from_amplitudes([1, 1, 1, 1], normalize=True)
        assert np.allclose(s.amps, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_plateau_vector_accepted_without_normalize(self, plateau_state):
        assert abs(np.linalg.norm(plateau_state.amps) - 1.0) < 1e-15

    def test_non_power_of_two_length_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            state_from_amplitudes([1, 0, 0])

    def test_zero_norm_rejected_when_normalizing(self):
        with pytest.raises(ValueError, match="zero norm"):
            state_from_amplitudes([0, 0, 0, 0], normalize=True)

    def test_unnormalized_rejected_without_flag(self):
        with pytest.raises(ValueError, match="not normalized"):
            state_from_amplitudes([1, 1])

    def test_slightly_off_norm_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(np.array([1.0 + 1e-6, 0.0], dtype=complex))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            state_from_amplitudes([math.inf, 0], normalize=True)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("values, message", [
        ([[1, 0], [0, 0]], "amplitudes must form a one-dimensional sequence"),
        ([[0, 0], [0, 0]], "amplitudes must form a one-dimensional sequence"),
        ([1, 0, 0], "amplitude count must be a power of two >= 2, got 3"),
        ([0, 0, 0], "amplitude count must be a power of two >= 2, got 3"),
        ([1], "amplitude count must be a power of two >= 2, got 1"),
        ([math.inf, 0], "amplitudes must all be finite"),
        ([1, complex(0, -math.inf)], "amplitudes must all be finite"),
        ([math.nan, 1], "amplitudes must all be finite"),
        ([1, complex(math.nan, 0), 0, 0], "amplitudes must all be finite"),
    ])
    def test_invalid_input_message(self, values, normalize, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            state_from_amplitudes(values, normalize=normalize)

    @pytest.mark.parametrize("values, normalize, message", [
        ([0, 0], True, "cannot normalize an amplitude vector of zero norm"),
        ([0, 0], False, "state is not normalized: norm is "),
        ([1, 1], False, "state is not normalized: norm is "),
    ])
    def test_norm_message(self, values, normalize, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            state_from_amplitudes(values, normalize=normalize)

    @pytest.mark.parametrize("values, flow", [
        ([1e-200] * 4, "underflows"),
        ([1e200] * 4, "overflows"),
        ([complex(0, -1e160), 1e-300], "overflows"),
        ([5e-324, 0], "underflows"),
    ])
    def test_squared_norm_out_of_float64_range_is_named(self, values, flow):
        message = f"cannot normalize an amplitude vector whose squared norm {flow} float64"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow in the norm must not warn first
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                state_from_amplitudes(values, normalize=True)

    @pytest.mark.parametrize("scale", [1e-157, 1e-160, 1e-300])
    def test_subnormal_squared_norm_is_named_as_an_underflow(self, scale):
        # 1e-160 once named a norm the input never had (1.0000055664551362), 1e-157 normalised to 1.8e-11 off
        message = "cannot normalize an amplitude vector whose squared norm underflows float64"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            state_from_amplitudes([scale] * 4, normalize=True)

    @pytest.mark.parametrize("scale", [2.0**-512, 1e-154])
    def test_squared_norm_at_the_normal_floor_normalizes_exactly(self, scale):
        # [2**-512] * 4 has squared norm 2**-1022, the smallest normal float64
        assert np.array_equal(state_from_amplitudes([scale] * 4, normalize=True).amps, np.full(4, 0.5))

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_squared_norm_inside_float64_range_still_normalizes(self, scale):
        arr = np.full(4, scale, dtype=complex)
        assert np.array_equal(state_from_amplitudes(arr.copy(), normalize=True).amps, arr / np.linalg.norm(arr))

    def test_norm_message_names_the_norm_exactly(self):
        # the 1-D vector keeps np.linalg.norm's whole-vector value, as StateVector always had
        amps = np.array([0.6, 0.8j, 1e-3, -2e-3])
        with pytest.raises(ValueError, match=f"^state is not normalized: norm is {re.escape(repr(float(np.linalg.norm(amps))))}$"):
            StateVector(amps)

    @pytest.mark.parametrize("size", [2, 2**20])
    def test_one_pass_norm_accepts_exactly_the_two_sum_rule(self, size):
        # norms a few ulps either side of 1 +- NORM_ATOL, and of the one-pass early bound inside it: each
        # vector passes exactly when np.linalg.norm is within NORM_ATOL of 1, else its message names that norm
        # (a random tail of norm 1e-3 closed by one large entry, summed last, so each norm lands on its target)
        rng = np.random.default_rng(size)
        tail = rng.normal(size=size) + 1j * rng.normal(size=size)
        tail *= 1e-3 / np.linalg.norm(tail[:-1])
        outcomes = set()
        for edge in (NORM_ATOL, NORM_ATOL - 2 * (size + 1) * 2.0**-52):
            for sign in (1, -1):
                for ulps in range(-4, 5):
                    amps = tail.copy()
                    amps[-1] = math.sqrt((1.0 + sign * edge + ulps * 2.0**-52) ** 2 - 1e-6)
                    norm = float(np.linalg.norm(amps))
                    ok = abs(norm - 1.0) <= NORM_ATOL
                    outcomes.add((edge, sign, ok))
                    if ok:
                        check_unit_rows(amps)
                    else:
                        with pytest.raises(ValueError, match=f"^state is not normalized: norm is {re.escape(repr(norm))}$"):
                            check_unit_rows(amps)
        assert {(NORM_ATOL, sign, ok) for sign in (1, -1) for ok in (True, False)} <= outcomes  # both sides reached

    @pytest.mark.parametrize("bad_row, message", [
        ([1.0, 1.0, 0.0, 0.0], "state is not normalized: norm is "),
        ([math.nan, 1.0, 0.0, 0.0], "amplitudes must all be finite"),
        ([1.0, math.inf, 0.0, 0.0], "amplitudes must all be finite"),
    ])
    def test_row_block_checks_every_row(self, bad_row, message):
        check_unit_rows(np.full((5, 4), 0.5 + 0j))
        block = np.full((5, 4), 0.5)  # real, as first_rows checks its rows
        check_unit_rows(block)
        block[3] = bad_row
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            check_unit_rows(block)
        if message.startswith("state"):
            with pytest.raises(ValueError, match=re.escape(f"norm is {float(np.linalg.norm(block[3]))}")):
                check_unit_rows(block)

    @pytest.mark.parametrize("bad, message", [
        (complex(math.inf, 0.0), "amplitudes must all be finite"),
        (complex(0.0, -math.inf), "amplitudes must all be finite"),
        (complex(math.nan, 1.0), "amplitudes must all be finite"),
        (complex(1e200, 0.0), "state is not normalized: norm is inf"),
    ])
    def test_complex_row_block_raises_without_a_warning(self, bad, message):
        block = np.full((3, 4), 0.5 + 0j)
        block[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's row norm must not warn first
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check_unit_rows(block)

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_normalize_equals_complex_division(self, complex_input):
        # the real multiply by 1/norm against the complex division it replaced, the reference
        rng = np.random.default_rng(17)
        for n in (2, 5, 12, 16):
            values = rng.normal(size=2**n) + (1j * rng.normal(size=2**n) if complex_input else 0)
            values[:3] = [5e-324, 1e-300, -1e-300]
            arr = np.array(values, dtype=complex)
            want = arr / np.linalg.norm(arr)
            assert np.array_equal(state_from_amplitudes(values, normalize=True).amps, want)

    def test_normalize_keeps_the_sign_of_a_negative_zero(self):
        # complex division turns a -0.0 real part over a non-negative imaginary one into +0.0
        amps = state_from_amplitudes([complex(-0.0, 1.0), 1.0], normalize=True).amps
        assert np.signbit(amps[0].real) and not np.signbit((np.array([complex(-0.0, 1.0)]) / 2.0)[0].real)

    def test_normalized_copy_leaves_input_alone(self):
        values = np.array([0.0, 2.0], dtype=complex)
        s = state_from_amplitudes(values, normalize=True)
        assert np.array_equal(s.amps, [0.0, 1.0])
        assert np.array_equal(values, [0.0, 2.0])

    def test_basis_state_bounds(self):
        assert basis_state(3, 5).amps[5] == 1.0
        with pytest.raises(ValueError, match="out of range"):
            basis_state(2, 4)


class TestRegisterSizeRules:
    @pytest.mark.parametrize("size, n", [(2, 1), (4, 2), (2**20, 20), (2**400, 400)])
    def test_qubit_count_of_a_power_of_two(self, size, n):
        assert qubit_count(size, "amplitude count") == n

    @pytest.mark.parametrize("size", [-4, 0, 1, 3, 6, 2**400 + 2**399])
    def test_qubit_count_names_the_length(self, size):
        with pytest.raises(ValueError) as info:
            qubit_count(size, "sample count")
        assert str(info.value) == f"sample count must be a power of two >= 2, got {size}"

    @pytest.mark.parametrize("make", [
        check_register,
        lambda n: Circuit(n),
        lambda n: basis_state(n),
        lambda n: decompose(2, n),
    ])
    @pytest.mark.parametrize("n", [0, -3])
    def test_one_message_for_an_empty_register(self, make, n):
        with pytest.raises(ValueError) as info:
            make(n)
        assert str(info.value) == f"need at least one qubit, got n={n}"

    @pytest.mark.parametrize("make", [check_dense, basis_state])
    @pytest.mark.parametrize("n", [21, 10**12])
    def test_dense_cap_comes_before_any_2_to_the_n(self, make, n):
        # basis_state(10**12) once formed 2**n for its index check and ran into a MemoryError
        with pytest.raises(ValueError) as info:
            make(n)
        assert str(info.value) == f"circuit application supports at most 20 qubits, got {n}"

    @pytest.mark.parametrize("index", [-1, 8, 2**64])
    def test_one_message_for_a_basis_index_out_of_range(self, index):
        for read in (lambda: basis_state(3, index), lambda: amplitude(Circuit(3), basis_state(3), index)):
            with pytest.raises(ValueError) as info:
                read()
            assert str(info.value) == f"basis index {index} out of range for 3 qubits"
