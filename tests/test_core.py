import math
import re

import numpy as np
import pytest

from ampsum.core import (
    Circuit,
    StateVector,
    basis_state,
    check_unit_rows,
    gate_matrix,
    h,
    ry,
    state_from_amplitudes,
    x,
)


class TestGateMatrix:
    def test_ry_zero_is_identity(self):
        assert np.allclose(gate_matrix(ry(0.0, 0)), np.eye(2), atol=1e-15)

    def test_ry_pi(self):
        assert np.allclose(gate_matrix(ry(math.pi, 0)), [[0, -1], [1, 0]], atol=1e-15)

    def test_hadamard(self):
        expect = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(gate_matrix(h(0)), expect, atol=1e-15)

    def test_pauli_x(self):
        assert np.array_equal(gate_matrix(x(0)), [[0, 1], [1, 0]])

    def test_controlled_on_one_places_block_high(self):
        cnot = gate_matrix(x(0, control=1, control_value=1))
        assert np.array_equal(cnot, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])

    def test_controlled_on_zero_places_block_low(self):
        anti = gate_matrix(x(0, control=1, control_value=0))
        assert np.array_equal(anti, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

    @pytest.mark.parametrize("theta", [-2.0, 0.7, math.pi, 5.5])
    def test_controlled_ry_is_unitary(self, theta):
        m = gate_matrix(ry(theta, 1, control=0, control_value=0))
        assert np.allclose(m @ m.conj().T, np.eye(4), atol=1e-14)


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

    def test_norm_message_names_the_norm_exactly(self):
        # the 1-D vector keeps np.linalg.norm's whole-vector value, as StateVector always had
        amps = np.array([0.6, 0.8j, 1e-3, -2e-3])
        with pytest.raises(ValueError, match=f"^state is not normalized: norm is {re.escape(repr(np.linalg.norm(amps)))}$"):
            StateVector(amps)

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
            with pytest.raises(ValueError, match=re.escape(repr(np.linalg.norm(block[3])))):
                check_unit_rows(block)

    def test_normalized_copy_leaves_input_alone(self):
        values = np.array([0.0, 2.0], dtype=complex)
        s = state_from_amplitudes(values, normalize=True)
        assert np.array_equal(s.amps, [0.0, 1.0])
        assert np.array_equal(values, [0.0, 2.0])

    def test_basis_state_bounds(self):
        assert basis_state(3, 5).amps[5] == 1.0
        with pytest.raises(ValueError, match="out of range"):
            basis_state(2, 4)
