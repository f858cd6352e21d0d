import math
import warnings

import numpy as np
import pytest

from conftest import random_state

from ampsum.apps import (
    IntegrationSpec,
    Parity,
    even_odd_partial_sum,
    integrate_midpoint,
    midpoints,
    partial_sum_via_circuit,
    tensor_weighted_sum,
)
from ampsum import apps, core, simulate
from ampsum.core import StateVector, basis_state, check_unit_rows, state_from_amplitudes
from ampsum.oracle import brute_force_partial_sum


class TestPartialSumViaCircuit:
    def test_plateau_m10(self, plateau_state):
        c0, total = partial_sum_via_circuit(plateau_state, 10)
        expect = 1.0 + 1.0 / math.sqrt(8.0)
        assert total == pytest.approx(expect, abs=1e-12)
        assert c0 == pytest.approx(expect / math.sqrt(10.0), abs=1e-12)

    def test_plateau_m13(self, plateau_state):
        _, total = partial_sum_via_circuit(plateau_state, 13)
        assert total == pytest.approx(
            1.0 + 1.0 / math.sqrt(2.0) + 1.0 / math.sqrt(8.0), abs=1e-12
        )

    def test_full_sum_of_uniform_state(self):
        n = 5
        s = state_from_amplitudes(np.ones(2**n), normalize=True)
        c0, total = partial_sum_via_circuit(s, 2**n)
        assert c0 == pytest.approx(1.0, abs=1e-12)
        assert total == pytest.approx(math.sqrt(2**n), abs=1e-11)

    def test_matches_brute_force_on_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 2**n + 1))
            state = random_state(rng, n)
            _, total = partial_sum_via_circuit(state, m)
            assert abs(total - brute_force_partial_sum(state, m)) <= 1e-10


class TestIntegrateMidpoint:
    def test_sine_prefix_value(self):
        spec = IntegrationSpec.from_function(lambda t: math.sin(math.pi * t), 4, 12)
        assert integrate_midpoint(spec) == pytest.approx(0.5442628374252914, abs=1e-12)

    def test_sine_close_to_closed_form(self):
        spec = IntegrationSpec.from_function(lambda t: math.sin(math.pi * t), 4, 12)
        exact = (1.0 + math.sqrt(2.0) / 2.0) / math.pi
        assert abs(integrate_midpoint(spec) - exact) < 1e-2

    def test_constant_integrand(self):
        for n, m in ((3, 5), (4, 16), (5, 2)):
            spec = IntegrationSpec(n, m, np.ones(2**n))
            assert integrate_midpoint(spec) == pytest.approx(m / 2**n, abs=1e-12)

    def test_full_prefix_equals_plain_midpoint_rule(self):
        rng = np.random.default_rng(30)
        for n in (3, 5, 7):
            samples = rng.uniform(-1.0, 2.0, size=2**n)
            spec = IntegrationSpec(n, 2**n, samples)
            assert integrate_midpoint(spec) == pytest.approx(
                samples.sum() / 2**n, abs=1e-12
            )

    def test_midpoints_interior_and_increasing(self):
        xs = midpoints(4)
        assert xs[0] > 0.0 and xs[-1] < 1.0
        assert np.all(np.diff(xs) > 0)
        assert xs[0] == pytest.approx(1.0 / 32.0)

    def test_sample_count_must_match(self):
        with pytest.raises(ValueError, match="expected 2\\*\\*3 samples"):
            IntegrationSpec(3, 4, np.ones(4))

    @pytest.mark.parametrize("size", [6, 0, 12])
    def test_sample_count_must_be_a_power_of_two(self, size):
        # the message of core.qubit_count, as integrate --samples gives it
        with pytest.raises(ValueError) as info:
            IntegrationSpec(3, 4, np.ones(size))
        assert str(info.value) == f"sample count must be a power of two >= 2, got {size}"

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            IntegrationSpec(3, 4, np.zeros(8))

    def test_m_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="2 <= M <= 2\\*\\*n"):
            IntegrationSpec(3, 9, np.ones(8))

    def test_function_is_not_sampled_past_the_qubit_cap(self):
        def never(t):
            raise AssertionError("sampled")

        with pytest.raises(ValueError, match="at most 20 qubits, got 21"):
            IntegrationSpec.from_function(never, 21, 3)

    @pytest.mark.parametrize("n", [10**12, 63, 2, 0, -1, -10**12])
    def test_declared_n_checked_against_the_sample_count(self, n):
        with pytest.raises(ValueError) as info:
            IntegrationSpec(n, 3, np.ones(4 if n != 2 else 8))
        assert str(info.value).startswith(f"expected 2**{n} samples, got shape (")


class TestEvenOddPartialSum:
    def test_even_picks_index_zero(self):
        _, total = even_odd_partial_sum(basis_state(4, 0), 2, Parity.EVEN)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_odd_picks_index_one(self):
        _, total = even_odd_partial_sum(basis_state(4, 1), 2, Parity.ODD)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_parity_accepts_strings(self, plateau_state):
        _, by_enum = even_odd_partial_sum(plateau_state, 4, Parity.EVEN)
        _, by_name = even_odd_partial_sum(plateau_state, 4, "even")
        assert by_enum == by_name

    def test_matches_brute_force_interleaved(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            state = random_state(rng, 4)
            m = int(rng.integers(2, 9))
            _, even = even_odd_partial_sum(state, m, Parity.EVEN)
            _, odd = even_odd_partial_sum(state, m, Parity.ODD)
            assert abs(even - state.amps[0:2 * m:2].sum()) <= 1e-10
            assert abs(odd - state.amps[1:2 * m:2].sum()) <= 1e-10
            assert abs(even + odd - brute_force_partial_sum(state, 2 * m)) <= 1e-10

    def test_m_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="2 <= M <= 2\\*\\*n"):
            even_odd_partial_sum(basis_state(3), 5, Parity.EVEN)

    def test_one_qubit_state_rejected(self):
        with pytest.raises(ValueError, match="state must span at least two qubits"):
            even_odd_partial_sum(basis_state(1), 2, Parity.ODD)


class TestTensorWeightedSum:
    def test_identity_block_reduces_to_even_case(self):
        rng = np.random.default_rng(50)
        state = random_state(rng, 5)
        c0_even, _ = even_odd_partial_sum(state, 6, Parity.EVEN)
        assert tensor_weighted_sum(state, 6, np.eye(2)) == pytest.approx(c0_even, abs=1e-12)

    def test_pauli_x_block_selects_odd_entries(self):
        rng = np.random.default_rng(51)
        state = random_state(rng, 4)
        c0 = tensor_weighted_sum(state, 3, np.array([[0, 1], [1, 0]], dtype=complex))
        expect = state.amps[1:6:2].sum() / math.sqrt(3.0)
        assert c0 == pytest.approx(expect, abs=1e-10)

    def test_block_row_orthogonal_to_state_gives_zero(self):
        pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert tensor_weighted_sum(basis_state(3, 2), 2, pauli_x) == 0

    def test_hadamard_block_sums_everything(self):
        rng = np.random.default_rng(52)
        state = random_state(rng, 4)
        had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
        c0 = tensor_weighted_sum(state, 3, had)
        expect = state.amps[:6].sum() / (math.sqrt(3.0) * math.sqrt(2.0))
        assert c0 == pytest.approx(expect, abs=1e-10)

    def test_wide_block_closed_form(self):
        # a 4x4 unitary weights amplitudes by its first row, cyclically
        rng = np.random.default_rng(53)
        state = random_state(rng, 5)
        gram = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v, _ = np.linalg.qr(gram)
        m = 5
        c0 = tensor_weighted_sum(state, m, v)
        ks = np.arange(4 * m)
        expect = (v[0, ks % 4] * state.amps[: 4 * m]).sum() / math.sqrt(m)
        assert c0 == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_contraction_is_read_as_it_is(self, complex_input, dim):
        # tiny entries beside normal ones: the contraction of V's first row is read linearly, with no norm
        # to divide by, and agrees with numpy's sum of it
        rng = np.random.default_rng(60 + dim)
        n = 12
        amps = rng.normal(size=2**n) + (1j * rng.normal(size=2**n) if complex_input else 0)
        amps[:3] = [5e-324, 1e-300, -1e-300]
        amps[3:] /= np.linalg.norm(amps[3:])
        state = StateVector(amps)
        v, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        high = state.amps.reshape(-1, dim) @ v[0]
        for m in (3, 2 ** (n - dim.bit_length()) + 5, 2 ** (n - dim.bit_length() + 1)):
            expected = high[:m].sum() / math.sqrt(m)
            assert abs(tensor_weighted_sum(state, m, v) - expected) <= 4e-15 * abs(expected)

    @pytest.mark.parametrize("tiny", [1e-160, 1e-170, 1e-310, 5e-324])
    def test_tiny_contraction_matches_the_even_sum(self, tiny):
        # 1e-160 once raised "state is not normalized", 1e-170 and below returned 0
        state = StateVector(np.array([tiny, 1, 0, 0], dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow from scaling the subnormal parts
            assert tensor_weighted_sum(state, 2, np.eye(2)) == even_odd_partial_sum(state, 2, "even")[0]

    def test_tiny_contraction_keeps_relative_accuracy(self):
        state = StateVector(np.array([1e-300, 1, 0, 0], dtype=complex))
        c0 = tensor_weighted_sum(state, 2, np.eye(2))
        assert c0.imag == 0 and c0.real == pytest.approx(even_odd_partial_sum(state, 2, "even")[0].real, rel=3e-16)
        rng = np.random.default_rng(15)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        amps[::2] *= 1e-200
        state = state_from_amplitudes(amps, normalize=True)
        for m in (3, 16, 32):
            expected = state.amps[:2 * m:2].sum() / math.sqrt(m)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert abs(tensor_weighted_sum(state, m, np.eye(2)) - expected) <= 1e-13 * abs(expected)

    def test_non_square_block_rejected(self):
        with pytest.raises(ValueError, match="square"):
            tensor_weighted_sum(basis_state(3), 2, np.ones((2, 3)))

    def test_block_must_leave_room_for_sum_register(self):
        with pytest.raises(ValueError, match="no qubits left"):
            tensor_weighted_sum(basis_state(2), 2, np.eye(4))

    @pytest.mark.parametrize("v, gap", [
        (np.diag([3.0, 1.0]), "8.0"),  # once returned 1.4999999999999998
        (np.array([[1e200, 0], [0, 1]]), "inf"),  # once warned of an overflow, then named a norm of 0.0
        (np.array([[math.nan, 0], [0, 1]]), "nan"),
        (np.diag([1.0, 1 + 2.0**-29]), "3.725290298461914e-09, above 1e-09"),  # 2**-28, past NORM_ATOL
    ])
    def test_non_unitary_block_rejected(self, v, gap):
        state = state_from_amplitudes(np.ones(8), normalize=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"V must be unitary: V V\\^dagger is off the identity by {gap}"):
                tensor_weighted_sum(state, 2, v)

    def test_block_within_the_tolerance_accepted(self):
        state = state_from_amplitudes(np.ones(8), normalize=True)
        near = tensor_weighted_sum(state, 2, np.diag([1.0, 1 + 2.0**-31]))  # off by 2**-30
        assert near == tensor_weighted_sum(state, 2, np.eye(2))

    def test_odd_dimension_block_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            tensor_weighted_sum(basis_state(4), 2, np.eye(3))


def test_each_readout_checks_its_state_once(monkeypatch):
    # one finite-and-norm pass per readout: integrate's normalized samples are read as they are checked,
    # and the tensor readout checks its input, not the contraction it reads
    rng = np.random.default_rng(70)
    state, spec = random_state(rng, 6), IntegrationSpec(6, 37, rng.uniform(0.1, 1.0, 64))
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    calls = []

    def counted(amps):
        calls.append(amps.shape)
        check_unit_rows(amps)

    for module in (core, simulate, apps):
        monkeypatch.setattr(module, "check_unit_rows", counted)
    for readout in (lambda: integrate_midpoint(spec), lambda: tensor_weighted_sum(state, 9, np.eye(2)),
                    lambda: tensor_weighted_sum(state, 5, v)):
        calls.clear()
        readout()
        assert calls == [(64,)]
