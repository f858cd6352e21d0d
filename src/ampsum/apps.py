"""Applications of the partial-sum circuits.

Four readouts built on the synthesis + simulation stack:

- ``partial_sum_via_circuit``: the plain scaled sum of the first M amplitudes;
- ``integrate_midpoint``: midpoint-rule quadrature of a sampled function over
  the dyadic prefix ``[0, M/N]`` of the unit interval;
- ``even_odd_partial_sum``: sums over even- or odd-indexed amplitudes only;
- ``tensor_weighted_sum``: the general ``<0| (U x V) |g>`` readout with a
  dense unitary V on the low qubits.

Each reads one amplitude with the linear ``simulate.row_dot``.  The state readouts check their input
state once; the tensor readout reads V's raw contraction, and the quadrature its raw samples, whose
norm it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .build import build_partial_sum_circuit, decompose
from .core import NORM_ATOL, StateVector, check_dense, check_int, check_unit_rows, checked_norm, qubit_count
from .simulate import amplitude, row_dot


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


def partial_sum_via_circuit(state: StateVector, m: int) -> tuple[complex, complex]:
    """Run the partial-sum circuit on the state; returns ``(c0, sqrt(m)*c0)``.

    ``c0`` is the output amplitude of |0> and ``sqrt(m)*c0`` equals the plain
    sum of the first m input amplitudes.
    """
    c0 = amplitude(build_partial_sum_circuit(m, state.n_qubits), state)
    return c0, math.sqrt(m) * c0


def midpoints(n: int) -> np.ndarray:
    """Midpoints (2k+1)/(2N) of the N = 2**n equal subintervals of [0, 1]."""
    count = 2 ** check_dense(n)  # the qubit cap, before 2**n is allocated
    return (2.0 * np.arange(count) + 1.0) / (2.0 * count)


@dataclass(frozen=True)
class IntegrationSpec:
    """Midpoint samples of an integrand on [0, 1] plus the prefix length m.

    The estimate targets the integral over ``[0, m/N]`` where ``N = 2**n``
    and ``samples[k]`` is the integrand at ``(2k+1)/(2N)``.
    """

    n: int
    m: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int(self.n, "n"))  # a narrow numpy n would wrap 2**n
        arr = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 1 or qubit_count(arr.size, "sample count") != self.n:
            raise ValueError(f"expected 2**{self.n} samples, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("samples must all be finite")
        decompose(self.m, self.n)  # the M range check
        if not arr.any():
            raise ValueError("samples have zero norm")

    @property
    def dx(self) -> float:
        return 1.0 / 2**self.n

    @classmethod
    def from_function(cls, fn: Callable[[float], float], n: int, m: int) -> "IntegrationSpec":
        """Samples of ``fn`` at the midpoints, taken only once n is within the readout's qubit cap."""
        return cls(n, m, np.array([fn(xk) for xk in midpoints(n)]))


def integrate_midpoint(spec: IntegrationSpec) -> float:
    """Midpoint-rule estimate of the integral over ``[0, m/N]``.

    The estimate is ``dx * sqrt(m) * Re<0|U|samples>``: the circuit's read ``c0`` of the normalized
    samples times their norm, by linearity, and algebraically ``dx * sum(samples[:m])``.  The samples are
    read in place, as floats; ``core.checked_norm`` refuses, at read time, samples that normalisation
    could not divide by.
    """
    checked_norm(spec.samples)  # the samples are the caller's array, changeable since construction
    return spec.dx * math.sqrt(spec.m) * row_dot(build_partial_sum_circuit(spec.m, spec.n), spec.samples).real


def even_odd_partial_sum(
    state: StateVector, m: int, parity: Parity | str
) -> tuple[complex, complex]:
    """Sum of the first m even- or odd-indexed amplitudes.

    The state occupies n+1 qubits; the partial-sum circuit acts on the high
    n qubits, and odd parity reads output index 1 instead of 0.  Returns
    ``(c0, sqrt(m)*c0)`` with ``sqrt(m)*c0 == sum(amps[0:2m:2])`` for EVEN
    and ``sum(amps[1:2m:2])`` for ODD.
    """
    parity = Parity(parity)
    n = state.n_qubits - 1
    if n < 1:
        raise ValueError("state must span at least two qubits")
    lifted = build_partial_sum_circuit(m, n).lifted(state.n_qubits, offset=1)
    c0 = amplitude(lifted, state, index=int(parity is Parity.ODD))
    return c0, math.sqrt(m) * c0


def tensor_weighted_sum(state: StateVector, m: int, v: np.ndarray) -> complex:
    """Amplitude ``<0| (U x V) |state>`` with the partial-sum circuit U on the
    high qubits and a dense V, unitary within ``NORM_ATOL``, on the low ones.

    Equals ``(1/sqrt(m)) * sum_{k < m*dim} v_row[k % dim] * amps[k]`` where
    ``v_row`` is the first row of V and ``dim`` its dimension.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"V must be a square matrix, got shape {v.shape}")
    dim = v.shape[0]
    low_qubits = qubit_count(dim, "V dimension")
    n = state.n_qubits - low_qubits
    if n < 1:
        raise ValueError(
            f"state has {state.n_qubits} qubits but V occupies {low_qubits}; "
            "no qubits left for the sum register"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # a huge entry overflows V V^dagger: not unitary
        gap = np.abs(v @ v.conj().T - np.eye(dim)).max()
    if not gap <= NORM_ATOL:  # NaN fails too
        raise ValueError(f"V must be unitary: V V^dagger is off the identity by {gap}, above {NORM_ATOL}")
    circuit = build_partial_sum_circuit(m, n)
    check_unit_rows(state.amps)
    # <0|V contracts the low qubits to V's first row; U then reads the rest, linearly.
    return row_dot(circuit, state.amps.reshape(-1, dim) @ v[0])
