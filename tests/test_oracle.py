import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ampsum.build import WeightSpec, decompose
from ampsum.oracle import (
    brute_force_partial_sum,
    predicted_first_row,
    segment_boundaries,
    segment_weights,
)


class TestSegmentBoundaries:
    def test_m13(self):
        assert segment_boundaries(decompose(13, 4)) == (0, 8, 12, 13)

    def test_m6(self):
        assert segment_boundaries(decompose(6, 3)) == (0, 4, 6)

    def test_m3(self):
        assert segment_boundaries(decompose(3, 2)) == (0, 2, 3)

    def test_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="two set bits"):
            segment_boundaries(decompose(8, 4))

    def test_widths_follow_set_bits(self):
        for m in (7, 22, 100, 1023):
            d = decompose(m, 10)
            edges = segment_boundaries(d)
            assert edges[-1] == m
            widths = [b - a for a, b in zip(edges, edges[1:])]
            assert widths == [2 ** d.set_bits[d.k - r] for r in range(d.k + 1)]


class TestSegmentWeights:
    @pytest.mark.parametrize("m", [3, 6, 13, 42, 1023])
    def test_uniform_weights_flatten_to_inverse_sqrt_m(self, m):
        d = decompose(m, 10)
        coeffs = segment_weights(d, WeightSpec.uniform(d))
        assert np.allclose(coeffs, 1.0 / math.sqrt(m), atol=1e-14)

    def test_m6_closed_form(self):
        b = 0.37
        coeffs = segment_weights(decompose(6, 3), WeightSpec((b,)))
        assert coeffs == pytest.approx(
            [b / math.sqrt(2.0), math.sqrt(1.0 - b * b) / 2.0], abs=1e-15
        )

    def test_m3_zero_weight(self):
        coeffs = segment_weights(decompose(3, 2), WeightSpec((0.0,)))
        assert coeffs == pytest.approx([0.0, 1.0 / math.sqrt(2.0)], abs=1e-15)

    @pytest.mark.parametrize("m, b", [
        (13, (1 - 1e-9, -(1 - 1e-9))),
        (45, (-(1 - 1e-12), 1 - 2**-40, 1 - 1e-9)),
        (1021, (1 - 1e-9, 0.999999, -(1 - 1e-9), 1 - 1e-11, -0.5, 1 - 1e-10, 0.3, 1 - 1e-9)),
    ])
    def test_relative_error_near_unit_weights(self, m, b):
        # the coefficients fall to 1e-5 and below, where 1e-10 absolute is blind
        d = decompose(m, 10)
        coeffs = segment_weights(d, WeightSpec(b))
        with localcontext() as ctx:
            ctx.prec = 50
            running = Decimal(1)
            for j in range(d.k + 1):
                scale = Decimal(2 ** d.set_bits[j]).sqrt()
                exact = running / scale if j == d.k else running * Decimal(b[j]) / scale
                assert abs(Decimal(coeffs[j]) - exact) / abs(exact) <= Decimal("1e-14")
                if j < d.k:
                    running *= (1 - Decimal(b[j]) ** 2).sqrt()

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="needs exactly 2 weights"):
            segment_weights(decompose(13, 4), WeightSpec((0.1,)))


class TestPredictedFirstRow:
    def test_unweighted_m13(self):
        row = predicted_first_row(13, 4)
        expect = np.zeros(16)
        expect[:13] = 1.0 / math.sqrt(13.0)
        assert np.array_equal(row, expect)

    def test_full_hadamard_layer(self):
        assert np.allclose(predicted_first_row(4, 2), [0.5] * 4, atol=1e-15)

    def test_weighted_m6(self):
        b = 0.63
        a = math.sqrt(1.0 - b * b)
        row = predicted_first_row(6, 3, WeightSpec((b,)))
        expect = [a / 2.0] * 4 + [b / math.sqrt(2.0)] * 2 + [0.0, 0.0]
        assert np.allclose(row, expect, atol=1e-15)

    def test_weighted_m3_saturated_weight(self):
        # b = 1 zeroes the wide segment; the sole unit lands on index 2
        row = predicted_first_row(3, 2, WeightSpec((1.0,)))
        assert np.array_equal(row, [0.0, 0.0, 1.0, 0.0])

    def test_rows_are_normalized_for_random_weights(self):
        rng = np.random.default_rng(11)
        for m in (3, 5, 6, 7, 11, 13, 42, 100, 255):
            n = max(4, m.bit_length())
            k = bin(m).count("1") - 1
            for _ in range(100):
                row = predicted_first_row(m, n, WeightSpec(tuple(rng.uniform(-1, 1, k))))
                assert abs(np.dot(row, row) - 1.0) <= 1e-12
                assert not row[m:].any()

    def test_uniform_weights_match_unweighted_row(self):
        for n in range(2, 9):
            for m in range(3, 2**n):
                if m & (m - 1) == 0:
                    continue
                d = decompose(m, n)
                dev = np.abs(
                    predicted_first_row(m, n, WeightSpec.uniform(d))
                    - predicted_first_row(m, n)
                ).max()
                assert dev <= 1e-12

    def test_row_inner_product_equals_segment_sums(self):
        rng = np.random.default_rng(3)
        for m in (6, 13, 42, 201):
            n = max(4, m.bit_length())
            d = decompose(m, n)
            w = WeightSpec(tuple(rng.uniform(-1, 1, d.k)))
            row = predicted_first_row(m, n, w)
            f = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            edges = segment_boundaries(d)
            coeffs = segment_weights(d, w)
            by_segment = sum(
                coeffs[d.k - r] * f[edges[r]:edges[r + 1]].sum() for r in range(d.k + 1)
            )
            assert abs(np.dot(row, f) - by_segment) <= 1e-10

    def test_weighted_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            predicted_first_row(8, 4, WeightSpec(()))


def _scalar_segment_weights(d, weights: WeightSpec) -> list[float]:
    """The per-WeightSpec loop ``segment_weights`` ran before it took arrays: the reference."""
    out, running = [], 1.0
    for j in range(d.k + 1):
        scale = math.sqrt(2 ** d.set_bits[j])
        out.append(running / scale if j == d.k else running * weights.b[j] / scale)
        running *= math.sqrt((1 - weights.b[j]) * (1 + weights.b[j])) if j < d.k else 1.0
    return out


_NEAR_UNIT = [
    (13, (1 - 1e-9, -(1 - 1e-9))),
    (45, (-(1 - 1e-12), 1 - 2**-40, 1 - 1e-9)),
    (1021, (1 - 1e-9, 0.999999, -(1 - 1e-9), 1 - 1e-11, -0.5, 1 - 1e-10, 0.3, 1 - 1e-9)),
    (13, (1.0, -1.0)),
    (6, (-0.0,)),
]


class TestWeightArrays:
    @pytest.mark.parametrize("m, near_unit", _NEAR_UNIT + [(3, ()), (42, ()), (201, ())])
    def test_rows_equal_weightspec_path_exactly(self, m, near_unit):
        # near |b| = 1 the coefficients are tiny; the array path must keep every bit
        n = 10
        d = decompose(m, n)
        batch = np.random.default_rng(m).uniform(-1, 1, size=(8, d.k))
        if near_unit:
            batch = np.vstack([near_unit, batch])
        coeffs = segment_weights(d, batch)
        rows = predicted_first_row(m, n, batch)
        assert coeffs.shape == (len(batch), d.k + 1) and rows.shape == (len(batch), 2**n)
        for t, b in enumerate(batch):
            spec = WeightSpec(tuple(b))
            assert np.array_equal(coeffs[t], segment_weights(d, spec))
            assert np.array_equal(coeffs[t], _scalar_segment_weights(d, spec))
            assert np.array_equal(rows[t], predicted_first_row(m, n, spec))

    def test_empty_batch_gives_empty_rows(self):
        assert predicted_first_row(13, 4, np.empty((0, 2))).shape == (0, 16)

    @pytest.mark.parametrize("weights, match", [
        (np.array([0.1, 0.2]), r"needs exactly 2 weights, got shape \(2,\)"),
        (np.array([[0.1, 0.2, 0.3]]), "needs exactly 2 weights, got 3"),
        (np.array([[0.1, 1.5]]), r"weights must lie in \[-1, 1\], got 1.5"),
        (np.array([[0.1, 0.2], [math.nan, 0.2]]), r"weights must lie in \[-1, 1\], got nan"),
    ])
    def test_bad_weight_arrays_rejected(self, weights, match):
        for run in (lambda: segment_weights(decompose(13, 4), weights),
                    lambda: predicted_first_row(13, 4, weights)):
            with pytest.raises(ValueError, match=match):
                run()


class TestBruteForcePartialSum:
    def test_plateau_m10(self, plateau_state):
        total = brute_force_partial_sum(plateau_state, 10)
        assert total == pytest.approx(1.0 + 1.0 / math.sqrt(8.0), abs=1e-15)

    def test_plateau_m13(self, plateau_state):
        total = brute_force_partial_sum(plateau_state.amps, 13)
        assert total == pytest.approx(
            1.0 + 1.0 / math.sqrt(2.0) + 1.0 / math.sqrt(8.0), abs=1e-15
        )

    def test_single_term(self):
        assert brute_force_partial_sum([3 + 1j, 5.0], 1) == 3 + 1j

    def test_m_beyond_length_rejected(self):
        with pytest.raises(ValueError, match="1 <= M <="):
            brute_force_partial_sum([1.0, 0.0], 3)
