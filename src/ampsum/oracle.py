"""Closed-form predictions for the synthesized circuits, no simulation.

The first row of a (weighted) partial-sum circuit is piecewise constant
over dyadic segments of ``[0, m)``: segment r (counting from index 0)
has width ``2**set_bits[k-r]`` and carries the coefficient returned by
``segment_weights``.  ``predicted_first_row`` assembles the full row;
``brute_force_partial_sum`` is the plain reference sum the circuits are
checked against.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .build import BitDecomposition, WeightSpec, decompose, weight_rows, weighted_decomposition
from .core import StateVector


def segment_boundaries(decomp: BitDecomposition) -> tuple[int, ...]:
    """Cumulative segment edges ``(0, e_1, ..., e_{k+1})`` with ``e_{k+1} == m``.

    Segment r covers indices ``[edges[r], edges[r+1])`` and has width
    ``2**set_bits[k-r]``; needs at least two set bits.
    """
    if decomp.k < 1:
        raise ValueError("segment boundaries need at least two set bits")
    edges = [0]
    for r in range(decomp.k + 1):
        edges.append(edges[-1] + 2 ** decomp.set_bits[decomp.k - r])
    return tuple(edges)


def segment_weights(decomp: BitDecomposition, weights: WeightSpec | np.ndarray) -> np.ndarray:
    """Per-segment coefficients ``g_0 .. g_k``.

    ``g_j`` multiplies the block of width ``2**set_bits[j]``:
    ``g_0 = b_0 / sqrt(2**set_bits[0])``, then each following coefficient
    picks up the product of the preceding ``a`` factors, and ``g_k`` is the
    full ``a`` product over ``sqrt(2**set_bits[k])``.  A ``(T, k)`` weight
    array gives a ``(T, k+1)`` array, one row per row of weights.
    """
    b = weight_rows(decomp, weights)
    ones = np.ones((len(b), 1))
    # g_j = (a_0 ... a_{j-1}) * b_j / sqrt(2**set_bits[j]) with b_k = 1
    running = np.cumprod(np.hstack([ones, WeightSpec.complement(b)]), axis=1)
    out = running * np.hstack([b, ones]) / np.sqrt(2.0 ** np.array(decomp.set_bits))
    return out[0] if isinstance(weights, WeightSpec) else out


def predicted_first_row(m: int, n: int,
                        weights: WeightSpec | np.ndarray | None = None) -> np.ndarray:
    """Analytic first row of the synthesized unitary, length ``2**n``.

    Without weights every entry below m is ``1/sqrt(m)``; with weights the
    dyadic segments carry ``segment_weights`` in descending-width order, and
    a ``(T, k)`` weight array gives one row per row of weights.  Entries at
    index m and above are zero either way.
    """
    if weights is None:
        decompose(m, n)  # range validation only
        row = np.zeros(2**n)
        row[:m] = 1.0 / math.sqrt(m)
        return row
    decomp = weighted_decomposition(m, n, weights)
    coeffs = np.atleast_2d(segment_weights(decomp, weights))
    rows = np.zeros((len(coeffs), 2**n))
    rows[:, :m] = np.repeat(coeffs[:, ::-1], [2**b for b in reversed(decomp.set_bits)], axis=1)
    return rows[0] if isinstance(weights, WeightSpec) else rows


def brute_force_partial_sum(
    values: Sequence[complex] | np.ndarray | StateVector, m: int
) -> complex:
    """Plain sum of the first m entries, no normalization."""
    if isinstance(values, StateVector):
        values = values.amps
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError("values must form a one-dimensional sequence")
    if not 1 <= m <= arr.size:
        raise ValueError(f"M must satisfy 1 <= M <= {arr.size}, got {m}")
    return complex(arr[:m].sum())
