"""Gates, circuits, and statevectors over little-endian qubit registers.

Qubit 0 is the least significant bit of a basis-state index: basis state
|s> assigns bit ``(s >> i) & 1`` to qubit i.  Gates are single-qubit
(Hadamard, Pauli-X, RY rotation) with an optional control qubit of either
polarity; a control with ``control_value == 0`` fires when the control
qubit is |0>.

Matrix conventions::

    H = (1/sqrt(2)) [[1,  1],          RY(t) = [[cos(t/2), -sin(t/2)],
                     [1, -1]]                   [sin(t/2),  cos(t/2)]]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

# Constructed states must be normalized to this absolute tolerance.
NORM_ATOL = 1e-9


class GateKind(Enum):
    H = "h"
    X = "x"
    RY = "ry"


@dataclass(frozen=True)
class Gate:
    """A single-qubit gate with an optional polarity-aware control.

    ``theta`` is meaningful only for RY gates and is kept at 0.0 otherwise.
    ``control_value`` is the bit value (0 or 1) that activates the gate.
    """

    kind: GateKind
    target: int
    theta: float = 0.0
    control: int | None = None
    control_value: int = 1

    def __post_init__(self) -> None:
        if self.target < 0:
            raise ValueError(f"target qubit must be non-negative, got {self.target}")
        if not math.isfinite(self.theta):
            raise ValueError(f"rotation angle must be finite, got {self.theta}")
        if self.control is not None:
            if self.control < 0:
                raise ValueError(f"control qubit must be non-negative, got {self.control}")
            if self.control == self.target:
                raise ValueError(f"control and target must differ, both are {self.target}")
            if self.control_value not in (0, 1):
                raise ValueError(f"control_value must be 0 or 1, got {self.control_value}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,) if self.control is None else (self.target, self.control)

    def dagger(self) -> "Gate":
        """Inverse gate: H and X are self-inverse, RY(t) inverts to RY(-t)."""
        if self.kind is GateKind.RY:
            return Gate(GateKind.RY, self.target, -self.theta, self.control, self.control_value)
        return self

    @property
    def coeffs(self) -> tuple:
        """Real 2x2 action on the target qubit, ignoring any control, as nested tuples."""
        if self.kind is GateKind.RY:
            return Gate.ry_coeffs(self.theta)
        return _H_COEFFS if self.kind is GateKind.H else ((0.0, 1.0), (1.0, 0.0))

    @staticmethod
    def ry_coeffs(theta):
        """RY(theta) as ``((cos, -sin), (sin, cos))`` of ``theta/2``, for a float or an angle array."""
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        return (c, -s), (s, c)


_R = 1 / math.sqrt(2.0)  # not math.sqrt(0.5), which rounds one ulp higher
_H_COEFFS = ((_R, _R), (_R, -_R))


def h(target: int, control: int | None = None, control_value: int = 1) -> Gate:
    return Gate(GateKind.H, target, 0.0, control, control_value)


def x(target: int, control: int | None = None, control_value: int = 1) -> Gate:
    return Gate(GateKind.X, target, 0.0, control, control_value)


def ry(theta: float, target: int, control: int | None = None, control_value: int = 1) -> Gate:
    return Gate(GateKind.RY, target, float(theta), control, control_value)


def gate_matrix(g: Gate) -> np.ndarray:
    """Unitary of the gate on its local subspace: 2x2, or 4x4 if controlled.

    For controlled gates the local basis index is ``2*control_bit + target_bit``;
    the 2x2 block sits where the control bit equals ``control_value``.
    """
    local = np.array(g.coeffs, dtype=complex)
    if g.control is None:
        return local
    full = np.eye(4, dtype=complex)
    off = 2 * g.control_value
    full[off:off + 2, off:off + 2] = local
    return full


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence on ``n_qubits``; the first gate acts first."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"circuit needs at least one qubit, got {self.n_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for q in g.qubits:
                if q >= self.n_qubits:
                    raise ValueError(
                        f"gate {g} uses qubit {q} but the register has {self.n_qubits} qubits"
                    )

    def dagger(self) -> "Circuit":
        """Inverse circuit: gate order reversed, every RY angle negated."""
        return Circuit(self.n_qubits, tuple(g.dagger() for g in reversed(self.gates)))

    def depth(self) -> int:
        """Layered depth: a gate stacks on the deepest layer touching its qubits."""
        level = [0] * self.n_qubits
        for g in self.gates:
            d = 1 + max(level[q] for q in g.qubits)
            for q in g.qubits:
                level[q] = d
        return max(level)

    def lifted(self, n_qubits: int, offset: int = 0) -> "Circuit":
        """Same gates on a wider register with every qubit index shifted up."""
        return Circuit(n_qubits, tuple(
            replace(g, target=g.target + offset, control=None if g.control is None else g.control + offset)
            for g in self.gates))


class StateVector:
    """Unit-norm complex amplitudes over ``2**n_qubits`` basis states."""

    __slots__ = ("amps", "n_qubits")

    def __init__(self, amps: Sequence[complex] | np.ndarray):
        arr = _check_shape(np.ascontiguousarray(amps, dtype=complex))
        check_unit_rows(arr)
        self.amps = arr
        self.n_qubits = arr.size.bit_length() - 1

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits}, amps={self.amps!r})"


def check_unit_rows(amps: np.ndarray) -> None:
    """Raise ``ValueError`` unless each vector along the last axis is finite with unit norm."""
    with np.errstate(invalid="ignore", over="ignore"):  # a row norm reaches inf or NaN quietly
        norms = np.linalg.norm(amps, axis=None if amps.ndim == 1 else -1)
    ok = abs(norms - 1.0) <= NORM_ATOL  # false for a NaN or infinite norm
    if ok.all():
        return
    if not np.isfinite(amps).all():  # a non-finite entry makes its norm non-finite
        raise ValueError("amplitudes must all be finite")
    raise ValueError(f"state is not normalized: norm is {np.ravel(norms)[~np.ravel(ok)][0]!r}")


def state_from_amplitudes(
    values: Iterable[complex] | np.ndarray, normalize: bool = False
) -> StateVector:
    """Build a state from raw amplitudes.

    With ``normalize`` the vector is divided by its Euclidean norm; otherwise
    it must already have unit norm within ``NORM_ATOL``.
    """
    arr = np.array(list(values) if not isinstance(values, np.ndarray) else values, dtype=complex)
    if normalize:
        norm = np.linalg.norm(_check_shape(arr))
        if norm == 0.0:
            raise ValueError("cannot normalize an amplitude vector of zero norm")
        if math.isfinite(norm):  # otherwise StateVector names the non-finite input
            arr /= norm
    return StateVector(arr)


def _check_shape(arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 1:
        raise ValueError("amplitudes must form a one-dimensional sequence")
    if arr.size < 2 or arr.size & (arr.size - 1):
        raise ValueError(f"amplitude count must be a power of two >= 2, got {arr.size}")
    return arr


def basis_state(n_qubits: int, index: int = 0) -> StateVector:
    """The computational basis state |index> on ``n_qubits`` qubits."""
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    arr = np.zeros(2**n_qubits, dtype=complex)
    arr[index] = 1.0
    return StateVector(arr)
