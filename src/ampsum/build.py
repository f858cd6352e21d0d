"""Synthesis of partial-sum and weighted-partial-sum readout circuits.

``build_partial_sum_circuit(m, n)`` returns a circuit on n qubits whose
unitary has first row ``(1/sqrt(m)) * [1 ... 1 0 ... 0]`` with m ones, so
applying it to a state leaves ``(1/sqrt(m)) * sum(amps[:m])`` in the
amplitude of |0>.  ``build_weighted_circuit`` frees the rotation angles:
caller-chosen weights ``b_j`` turn the constant first row into a staircase
of per-segment coefficients over the dyadic blocks of ``[0, m)``.

The construction works on the binary decomposition ``m = sum_j 2**bit_j``,
one cascade for every m: negatively controlled Hadamard blocks split the index
range into one dyadic segment per set bit, one rotation per segment boundary
fixes the segment coefficients, a Hadamard layer spreads the lowest segment and
X gates move the result onto row 0.  A power of two has no boundary, so its
cascade is the Hadamard layer alone; the gate count is exactly
``high_bit + 2*(popcount-1)``, which is ``r`` for ``m == 2**r``.  ``decompose``
checks ``2 <= m <= 2**n`` on bit lengths, so synthesis costs O(gates) at any n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Circuit, Gate, check_int, check_register, h, ry, x


@dataclass(frozen=True)
class BitDecomposition:
    """Set-bit positions of m plus the partial totals driving angle choices.

    ``set_bits`` is ascending, so ``set_bits[-1]`` is the position of the
    highest set bit.  ``prefix_sums[j]`` is the sum of the j+1 lowest powers
    of two in m; it has one entry per set bit except the highest.
    """

    m: int
    n: int
    set_bits: tuple[int, ...]
    prefix_sums: tuple[int, ...]

    @property
    def k(self) -> int:
        """Number of set bits minus one."""
        return len(self.set_bits) - 1

    @property
    def high_bit(self) -> int:
        return self.set_bits[-1]


def decompose(m: int, n: int) -> BitDecomposition:
    """Split m into its set-bit positions for an n-qubit register.

    Requires ``n >= 1`` and ``2 <= m <= 2**n``, checked through bit lengths, so
    the cost depends on m alone and not on n.
    """
    n, m = check_register(n), check_int(m, "M")
    if m < 2 or (m - 1).bit_length() > n:  # m - 1 < 2**n
        raise ValueError(f"M must satisfy 2 <= M <= 2**n, got M={m} with n={n}")
    set_bits = tuple(i for i in range(m.bit_length()) if (m >> i) & 1)
    prefix_sums = tuple(itertools.accumulate(2**b for b in set_bits))[:-1]
    return BitDecomposition(m, n, set_bits, prefix_sums)


@dataclass(frozen=True)
class WeightSpec:
    """Rotation weights ``b_0 .. b_{k-1}``, each in [-1, 1].

    The complementary factors ``a_j = sqrt((1 - b_j) * (1 + b_j))`` (``complement``), so that
    ``a_j**2 + b_j**2 == 1``, keep full relative accuracy as ``|b_j| -> 1``.
    """

    b: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.b)
        object.__setattr__(self, "b", vals)
        for v in vals:
            if not math.isfinite(v) or abs(v) > 1.0:
                raise ValueError(f"weights must lie in [-1, 1], got {v}")

    @staticmethod
    def complement(b):
        """The complementary factor ``a`` of a weight ``b``, or of each entry of a weight array."""
        return np.sqrt((1.0 - b) * (1.0 + b))

    @classmethod
    def uniform(cls, decomp: BitDecomposition) -> "WeightSpec":
        """Weights that flatten every segment coefficient to 1/sqrt(m).

        ``build_partial_sum_circuit`` is the weighted cascade of these values.
        """
        lower = (0,) + decomp.prefix_sums  # the powers below set bit j add up to lower[j]
        return cls(tuple(math.sqrt(2**b / (decomp.m - p)) for b, p in zip(decomp.set_bits[:-1], lower)))


def weight_rows(decomp: BitDecomposition, weights: WeightSpec | np.ndarray) -> np.ndarray:
    """Weights as a ``(T, k)`` array of ``b`` values; a ``WeightSpec`` is one row.

    Either form needs one weight per set bit of m except the highest.  An array
    must be 2-D and every entry must lie in [-1, 1]; a ``WeightSpec``'s constructor
    is the home of its range.
    """
    spec = isinstance(weights, WeightSpec)
    b = np.array([weights.b]) if spec else np.asarray(weights, dtype=float)
    if not spec and not (np.abs(b) <= 1.0).all():  # NaN fails too
        raise ValueError(f"weights must lie in [-1, 1], got {b[~(np.abs(b) <= 1.0)][0]}")
    if b.ndim != 2 or b.shape[1] != decomp.k:
        got = b.shape[1] if b.ndim == 2 else f"shape {b.shape}"
        raise ValueError(f"M={decomp.m} needs exactly {decomp.k} weights, got {got}")
    return b


def cascade_angles(b: Iterable[Sequence[float]]) -> list[list[float]]:
    """RY angles ``2*acos(b_j)`` in gate order (set bit k-1 first), a row per row of weights.

    ``math.acos``, since ``np.arccos`` can round differently: every circuit carries these angles.
    """
    return [[2.0 * math.acos(v) for v in reversed(row)] for row in b]


def _cascade(decomp: BitDecomposition, angles: Iterable[float]) -> tuple[Gate, ...]:
    """Gate sequence for any m; ``angles`` are its RY angles in gate order, none for a power of two."""
    bits = decomp.set_bits
    angle = iter(angles)
    gates: list[Gate] = []
    for j in range(decomp.k - 1, -1, -1):  # one level per set bit below the highest, top level first
        for i in range(bits[j + 1] - 1, bits[j] - 1, -1):
            gates.append(h(i, control=bits[j + 1], control_value=0))
        control = (bits[j], 0) if j else ()  # only the lowest level's RY is uncontrolled
        gates.append(ry(next(angle), bits[j + 1], *control))
    gates.extend(h(i) for i in range(bits[0]))
    gates.extend(x(bits[j]) for j in range(1, decomp.k + 1))
    return tuple(gates)


def build_partial_sum_circuit(m: int, n: int) -> Circuit:
    """Circuit whose unitary has first row (1/sqrt(m)) [1]*m + [0]*(2**n - m)."""
    return build_weighted_circuit(m, n, WeightSpec.uniform(decompose(m, n)))


def build_weighted_circuit(m: int, n: int, weights: WeightSpec | np.ndarray) -> Circuit:
    """Same gate skeleton as the partial-sum circuit with free rotation angles.

    The first row of the resulting unitary carries the per-segment
    coefficients of ``oracle.segment_weights`` instead of a constant.
    ``weights`` is a ``WeightSpec`` or a one-row array, read through ``weight_rows``.
    """
    decomp = decompose(m, n)
    b = weight_rows(decomp, weights)
    if len(b) != 1:
        raise ValueError(f"a circuit takes one row of weights, got {len(b)}")
    return Circuit(n, _cascade(decomp, cascade_angles(b)[0]))


def expected_gate_count(m: int, n: int) -> int:
    """Exact gate budget of the one cascade: high_bit + 2*(popcount-1), which is r when m == 2**r."""
    decomp = decompose(m, n)
    return decomp.high_bit + 2 * decomp.k
