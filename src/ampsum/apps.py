"""Applications of the partial-sum circuits.

Four readouts built on the synthesis + simulation stack:

- ``partial_sum_via_circuit``: the plain scaled sum of the first M amplitudes;
- ``integrate_midpoint``: midpoint-rule quadrature of a sampled function over
  the dyadic prefix ``[0, M/N]`` of the unit interval;
- ``even_odd_partial_sum``: sums over even- or odd-indexed amplitudes only;
- ``tensor_weighted_sum``: the general ``<0| (U x V) |g>`` readout with a
  dense unitary V on the low qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .build import build_partial_sum_circuit, decompose
from .core import StateVector, check_dense, qubit_count, state_from_amplitudes
from .simulate import amplitude


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
    count = 2**n
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
        arr = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        # bit lengths first: 2**n is built only for an n that the sample count bounds
        if arr.ndim != 1 or arr.size.bit_length() != self.n + 1 or arr.size != 2**self.n:
            raise ValueError(f"expected 2**{self.n} samples, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("samples must all be finite")
        decompose(self.m, self.n)  # the M range check
        if not arr.any():
            raise ValueError("samples have zero norm")

    @property
    def dx(self) -> float:
        return 1.0 / 2**self.n

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.samples))

    @classmethod
    def from_function(cls, fn: Callable[[float], float], n: int, m: int) -> "IntegrationSpec":
        """Samples of ``fn`` at the midpoints, taken only once n is within the readout's qubit cap."""
        check_dense(n)
        return cls(n, m, np.array([fn(xk) for xk in midpoints(n)]))


def integrate_midpoint(spec: IntegrationSpec) -> float:
    """Midpoint-rule estimate of the integral over ``[0, m/N]``.

    Loads the normalized samples as a state, reads the scaled partial sum
    off the circuit, and restores the classical factors:
    ``dx * norm * sqrt(m) * Re(c0)``, algebraically ``dx * sum(samples[:m])``.
    """
    state = state_from_amplitudes(spec.samples, normalize=True)
    c0, _ = partial_sum_via_circuit(state, spec.m)
    return spec.dx * spec.norm * math.sqrt(spec.m) * c0.real


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
    high qubits and a dense unitary V on the low ones.

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
    circuit = build_partial_sum_circuit(m, n)  # checks M before the contraction can return 0
    # <0|V contracts the low qubits to V's first row; U then reads the rest.
    high = state.amps.reshape(-1, dim) @ v[0]
    scale = np.linalg.norm(high)
    if scale == 0.0:
        return 0j
    return scale * amplitude(circuit, StateVector.scaled(high, scale))
