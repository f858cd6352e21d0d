import math
import re
from decimal import Decimal

import numpy as np
import pytest

from ampsum.build import (
    WeightSpec,
    build_partial_sum_circuit,
    build_weighted_circuit,
    cascade_angles,
    decompose,
    expected_gate_count,
)
from ampsum.core import Circuit, GateKind, h, ry, x
from ampsum.formats import circuit_to_qasm, circuit_to_text


class TestDecompose:
    def test_m13(self):
        d = decompose(13, 4)
        assert d.set_bits == (0, 2, 3)
        assert d.k == 2
        assert d.prefix_sums == (1, 5)

    def test_single_set_bit(self):
        d = decompose(8, 4)
        assert d.set_bits == (3,)
        assert d.k == 0
        assert d.prefix_sums == ()

    def test_m42(self):
        d = decompose(42, 6)
        assert d.set_bits == (1, 3, 5)
        assert d.k == 2

    @pytest.mark.parametrize("m", [0, 1, 17])
    def test_out_of_range_rejected(self, m):
        with pytest.raises(ValueError, match="2 <= M <= 2\\*\\*n"):
            decompose(m, 4)

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_range_edges(self, n):
        assert decompose(2**n, n).set_bits == (n,)
        with pytest.raises(ValueError, match="2 <= M <= 2\\*\\*n"):
            decompose(2**n + 1, n)

    def test_round_trip_all_m(self):
        for m in range(2, 1025):
            d = decompose(m, 10)
            assert sum(2**b for b in d.set_bits) == m
            running = 0
            for j, total in enumerate(d.prefix_sums):
                running += 2 ** d.set_bits[j]
                assert total == running
            if d.k:
                assert d.prefix_sums[0] == 2 ** d.set_bits[0]


class TestPartialSumCircuit:
    def test_m3_hand_traced_gates(self):
        c = build_partial_sum_circuit(3, 2)
        theta0 = 2.0 * math.acos(math.sqrt(1.0 / 3.0))
        assert c.gates == (h(0, control=1, control_value=0), ry(theta0, 1), x(1))

    def test_power_of_two_is_hadamard_layer(self):
        assert build_partial_sum_circuit(4, 4).gates == (h(0), h(1))
        assert build_partial_sum_circuit(2, 3).gates == (h(0),)

    def test_m13_full_sequence(self):
        c = build_partial_sum_circuit(13, 4)
        theta1 = 2.0 * math.acos(math.sqrt(4.0 / 12.0))
        theta0 = 2.0 * math.acos(math.sqrt(1.0 / 13.0))
        assert theta0 == pytest.approx(2.579522850584166, abs=1e-15)
        assert c.gates == (
            h(2, control=3, control_value=0),
            ry(theta1, 3, control=2, control_value=0),
            h(1, control=2, control_value=0),
            h(0, control=2, control_value=0),
            ry(theta0, 2),
            x(2),
            x(3),
        )

    def test_m6_sequence(self):
        c = build_partial_sum_circuit(6, 3)
        assert c.gates == (
            h(1, control=2, control_value=0),
            ry(2.0 * math.acos(math.sqrt(2.0 / 6.0)), 2),
            h(0),
            x(2),
        )

    def test_gate_count_formula_small_sweep(self):
        for m in range(2, 257):
            c = build_partial_sum_circuit(m, 8)
            ones = [i for i in range(m.bit_length()) if (m >> i) & 1]
            expect = ones[0] if len(ones) == 1 else ones[-1] + 2 * (len(ones) - 1)
            assert len(c.gates) == expect == expected_gate_count(m, 8)

    def test_depth_and_count_bounds(self):
        for n in range(2, 9):
            for m in range(2, 2**n + 1):
                c = build_partial_sum_circuit(m, n)
                assert c.depth() <= len(c.gates) <= 2 * n + 2 * bin(m).count("1")

    def test_m13_depth(self):
        assert build_partial_sum_circuit(13, 4).depth() == 6

    def test_rotation_angles_in_domain(self):
        # every acos argument lies in [0, 1], so angles land in [0, pi]
        for m in range(2, 1025):
            for g in build_partial_sum_circuit(m, 10).gates:
                assert 0.0 <= g.theta <= math.pi

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="2 <= M <= 2\\*\\*n"):
            build_partial_sum_circuit(17, 4)

    def test_angles_equal_closed_form_bit_for_bit(self):
        # the angles once derived here: 2*acos(sqrt(prefix_0/m)), then 2*acos(sqrt(2**bit_j/(m - prefix_{j-1})))
        for m in range(3, 1024):
            d = decompose(m, 10)
            if d.k == 0:
                continue
            thetas = [2.0 * math.acos(math.sqrt(d.prefix_sums[0] / m))]
            thetas += [2.0 * math.acos(math.sqrt(2 ** d.set_bits[j] / (m - d.prefix_sums[j - 1])))
                       for j in range(1, d.k)]
            got = [g.theta for g in build_partial_sum_circuit(m, 10).gates if g.kind is GateKind.RY]
            assert got == thetas[::-1]


class TestWeightSpec:
    def test_derived_factors_complete_to_one(self):
        rng = np.random.default_rng(5)
        w = WeightSpec(tuple(rng.uniform(-1, 1, size=6)))
        for a, b in zip(WeightSpec.complement(np.array(w.b)), w.b):
            assert a >= 0.0
            assert a * a + b * b == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("b", [1 - 1e-9, -(1 - 1e-9), 1 - 2**-40, -1 + 1e-13, 0.999999, 0.5])
    def test_factor_relative_error_near_unit_weight(self, b):
        # 1 - b*b cancels as |b| -> 1; Decimal(b) is the float's exact value
        exact = (1 - Decimal(b) ** 2).sqrt()
        a = WeightSpec.complement(b)
        assert abs(Decimal(a) - exact) / exact <= Decimal("4e-16")

    def test_complement_takes_a_weight_or_an_array(self):
        # the one formula behind oracle.segment_weights
        b = np.concatenate([[0.0, 1.0, -1.0, 1 - 2**-40, -1 + 1e-13],
                            np.random.default_rng(9).uniform(-1, 1, 200)])
        batched = WeightSpec.complement(b).tolist()
        assert [float(WeightSpec.complement(v)) for v in b.tolist()] == batched
        assert batched == [math.sqrt((1.0 - v) * (1.0 + v)) for v in b.tolist()]

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            WeightSpec((0.5, 1.2))

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            WeightSpec((math.nan,))

    def test_uniform_weights_m13(self):
        w = WeightSpec.uniform(decompose(13, 4))
        assert w.b == pytest.approx(
            (math.sqrt(1.0 / 13.0), math.sqrt(4.0 / 12.0)), abs=1e-15
        )


class TestWeightedCircuit:
    def test_uniform_weights_reproduce_plain_circuit(self):
        for m in (3, 6, 13, 42, 100):
            n = max(4, m.bit_length())
            w = WeightSpec.uniform(decompose(m, n))
            plain = build_partial_sum_circuit(m, n)
            weighted = build_weighted_circuit(m, n, w)
            assert len(plain.gates) == len(weighted.gates)
            for g1, g2 in zip(plain.gates, weighted.gates):
                assert (g1.kind, g1.target, g1.control, g1.control_value) == (
                    g2.kind, g2.target, g2.control, g2.control_value)
                assert abs(g1.theta - g2.theta) <= 1e-12

    def test_power_of_two_builds_the_plain_circuit(self):
        # no weights: the cascade has no level, so it is the Hadamard layer
        assert build_weighted_circuit(8, 4, WeightSpec(())) == build_partial_sum_circuit(8, 4)
        assert build_weighted_circuit(8, 4, WeightSpec(())).gates == (h(0), h(1), h(2))

    def test_m_equal_to_dimension_builds(self):
        # the weighted form takes every M that decompose takes, 2**n included
        assert build_weighted_circuit(16, 4, WeightSpec(())).gates == (h(0), h(1), h(2), h(3))
        build_weighted_circuit(15, 4, WeightSpec((0.1, 0.2, 0.3)))

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_one_set_bit_takes_the_weight_count_message(self, m):
        message = f"M={m} needs exactly 0 weights, got 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_weighted_circuit(m, 4, WeightSpec((0.5,)))

    @pytest.mark.parametrize("m", [1, 17])
    def test_m_out_of_range_takes_the_decompose_check(self, m):
        with pytest.raises(ValueError, match="2 <= M <= 2\\*\\*n"):
            build_weighted_circuit(m, 4, WeightSpec(()))

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="needs exactly 2 weights"):
            build_weighted_circuit(13, 4, WeightSpec((0.5,)))

    def test_a_one_row_array_builds_the_weight_spec_circuit(self):
        # the array form of predicted_first_row and segment_weights; it once raised AttributeError
        assert build_weighted_circuit(13, 4, np.array([[0.1, 0.2]])) == build_weighted_circuit(
            13, 4, WeightSpec((0.1, 0.2)))
        rng = np.random.default_rng(14)
        for m in (3, 45, 1021):
            b = rng.uniform(-1, 1, size=(1, decompose(m, 10).k))
            assert build_weighted_circuit(m, 10, b) == build_weighted_circuit(m, 10, WeightSpec(tuple(b[0])))

    @pytest.mark.parametrize("weights, message", [
        (np.full((2, 2), 0.5), "a circuit takes one row of weights, got 2"),
        (np.empty((0, 2)), "a circuit takes one row of weights, got 0"),
        (np.array([[0.5, 2.0]]), "weights must lie in [-1, 1], got 2.0"),
        (np.array([[0.5]]), "M=13 needs exactly 2 weights, got 1"),
        (np.array([0.5, 0.5]), "M=13 needs exactly 2 weights, got shape (2,)"),
    ])
    def test_a_weight_array_is_checked_by_weight_rows_then_for_one_row(self, weights, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_weighted_circuit(13, 4, weights)

    def test_cascade_angles_are_the_circuit_angles(self):
        rng = np.random.default_rng(6)
        for m in (3, 13, 45, 1021):
            d = decompose(m, 10)
            batch = rng.uniform(-1, 1, size=(5, d.k))
            angles = cascade_angles(batch)
            assert np.shape(angles) == batch.shape
            for row, b in zip(angles, batch):
                circuit = build_weighted_circuit(m, 10, WeightSpec(tuple(b)))
                assert list(row) == [g.theta for g in circuit.gates if g.kind is GateKind.RY]
                assert list(row) == [2.0 * math.acos(v) for v in reversed(b)]

    def test_gate_count_matches_plain(self):
        w = WeightSpec((0.2, -0.7))
        assert len(build_weighted_circuit(13, 4, w).gates) == expected_gate_count(13, 4)


def _two_branch_circuit(m: int, n: int, b=None) -> Circuit:
    """The synthesis before one cascade covered every M, kept as the reference: a Hadamard layer
    for a power of two, else the cascade with its lowest level written out on its own."""
    d = decompose(m, n)
    bits = d.set_bits
    if d.k == 0:
        return Circuit(n, tuple(h(i) for i in range(bits[0])))
    angle = iter(cascade_angles([WeightSpec.uniform(d).b if b is None else b])[0])
    gates = []
    for j in range(d.k - 1, 0, -1):
        for i in range(bits[j + 1] - 1, bits[j] - 1, -1):
            gates.append(h(i, control=bits[j + 1], control_value=0))
        gates.append(ry(next(angle), bits[j + 1], control=bits[j], control_value=0))
    for i in range(bits[1] - 1, bits[0] - 1, -1):
        gates.append(h(i, control=bits[1], control_value=0))
    gates.append(ry(next(angle), bits[1]))
    gates.extend(h(i) for i in range(bits[0]))
    gates.extend(x(bits[j]) for j in range(1, d.k + 1))
    return Circuit(n, tuple(gates))


def _same_text(circuit: Circuit, reference: Circuit) -> bool:
    return (circuit_to_text(circuit), circuit_to_qasm(circuit)) == (
        circuit_to_text(reference), circuit_to_qasm(reference))


class TestOneCascade:
    """One cascade builds every M, bit for bit the two-branch synthesis it replaced."""

    def test_every_m_up_to_ten_qubits_matches_the_reference(self):
        for n in range(1, 11):
            for m in range(2, 2**n + 1):
                assert _same_text(build_partial_sum_circuit(m, n), _two_branch_circuit(m, n)), (m, n)

    def test_seeded_weighted_circuits_match_the_reference(self):
        rng = np.random.default_rng(15)
        for n in (4, 8, 10):
            for m in range(3, 2**n, 1 if n < 10 else 7):
                k = decompose(m, n).k
                if k:
                    b = tuple(rng.uniform(-1, 1, k))
                    assert _same_text(build_weighted_circuit(m, n, WeightSpec(b)), _two_branch_circuit(m, n, b))

    def test_sampled_m_at_twenty_qubits_match_the_reference(self):
        rng = np.random.default_rng(20)
        ms = [2**r for r in range(1, 21)] + [int(m) for m in rng.integers(2, 2**20, size=40, endpoint=True)]
        for m in ms:
            assert _same_text(build_partial_sum_circuit(m, 20), _two_branch_circuit(m, 20)), m

    @pytest.mark.parametrize("empty", [WeightSpec(()), np.zeros((1, 0))], ids=["spec", "array"])
    def test_no_weights_build_the_plain_circuit_for_every_power_of_two(self, empty):
        for n in range(1, 11):
            for r in range(1, n + 1):
                assert build_weighted_circuit(2**r, n, empty) == build_partial_sum_circuit(2**r, n)
