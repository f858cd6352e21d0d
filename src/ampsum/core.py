"""Gates, circuits, and statevectors over little-endian qubit registers.

Qubit 0 is the least significant bit of a basis-state index: basis state
|s> assigns bit ``(s >> i) & 1`` to qubit i.  Gates are single-qubit
(Hadamard, Pauli-X, RY rotation) with an optional control qubit of either
polarity; a control with ``control_value == 0`` fires when the control
qubit is |0>.  Each register-size rule has one home here: ``check_int`` (a count or an index is a
Python or numpy integer, never a bool), ``check_register`` (at least one qubit), ``qubit_count`` (a
length ``2**n`` gives n) and ``check_dense`` (a dense state's register has 1 to 20 qubits, then a
basis index below ``2**n``).  A ``Circuit`` holds only its gates.

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
MAX_APPLY_QUBITS = 20  # the largest dense state: 2**20 complex128 amplitudes are 16 MiB


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
        if not type(self.target) is type(self.control_value) is int or not (  # the fast path: plain ints
                self.control is None or type(self.control) is int):
            for name in ("target", "control", "control_value"):  # a bool would index as a mask, a narrow int wrap
                if name != "control" or self.control is not None:
                    object.__setattr__(self, name, check_int(getattr(self, name), name))
        if self.target < 0:
            raise ValueError(f"target qubit must be non-negative, got {self.target}")
        if not math.isfinite(self.theta):
            raise ValueError(f"rotation angle must be finite, got {self.theta}")
        if self.kind is not GateKind.RY and self.theta != 0.0:  # circuit text has no angle for H or X
            raise ValueError(f"only an RY gate takes an angle, got {self.theta} on {self.kind.value}")
        if self.control is None and self.control_value != 1:
            raise ValueError(f"control_value {self.control_value} needs a control qubit")
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


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence on ``n_qubits``; the first gate acts first."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", check_register(self.n_qubits))
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
        """Layered depth: a gate stacks on the deepest layer touching its qubits; O(gates) at any n."""
        level: dict[int, int] = {}
        for g in self.gates:
            d = 1 + max(level.get(q, 0) for q in g.qubits)
            for q in g.qubits:
                level[q] = d
        return max(level.values(), default=0)

    def lifted(self, n_qubits: int, offset: int = 0) -> "Circuit":
        """Same gates on a wider register with every qubit index shifted up."""
        return Circuit(n_qubits, tuple(
            replace(g, target=g.target + offset, control=None if g.control is None else g.control + offset)
            for g in self.gates))


class StateVector:
    """Unit-norm complex amplitudes over ``2**n_qubits`` basis states."""

    __slots__ = ("amps", "n_qubits")

    def __init__(self, amps: Sequence[complex] | np.ndarray):
        arr = np.ascontiguousarray(amps, dtype=complex)
        self.n_qubits = _check_shape(arr)
        check_unit_rows(arr)
        self.amps = arr

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits}, amps={self.amps!r})"


def check_unit_rows(amps: np.ndarray) -> None:
    """Raise ``ValueError`` unless each vector along the last axis is finite with ``np.linalg.norm`` within
    ``NORM_ATOL`` of 1.  A 1-D vector passes at once when one ``sqrt(vdot)`` pass lies inside that bound by
    ``2 * (size + 1)`` ulps of 1, more than rounding can part the two at that length: the same vectors pass."""
    with np.errstate(invalid="ignore", over="ignore"):  # a row norm reaches inf or NaN quietly
        gap = 2 * (amps.size + 1) * 2.0**-52
        if amps.ndim == 1 and abs(np.sqrt(np.vdot(amps, amps).real) - 1.0) <= NORM_ATOL - gap:
            return
        norms = np.linalg.norm(amps, axis=None if amps.ndim == 1 else -1)
    ok = abs(norms - 1.0) <= NORM_ATOL  # false for a NaN or infinite norm
    if ok.all():
        return
    if not np.isfinite(amps).all():  # a non-finite entry makes its norm non-finite
        raise ValueError("amplitudes must all be finite")
    raise ValueError(f"state is not normalized: norm is {float(np.ravel(norms)[~np.ravel(ok)][0])}")


def state_from_amplitudes(
    values: Iterable[complex] | np.ndarray, normalize: bool = False
) -> StateVector:
    """Build a state from raw amplitudes.

    With ``normalize`` the vector is divided by its Euclidean norm; otherwise
    it must already have unit norm within ``NORM_ATOL``.
    """
    arr = np.array(list(values) if not isinstance(values, np.ndarray) else values, dtype=complex)
    if normalize:
        _check_shape(arr)
        with np.errstate(over="ignore"):  # a finite vector's squared norm can overflow; named below
            norm = np.linalg.norm(arr)
        if 2.0**-511 <= norm < math.inf:  # a smaller norm's square is subnormal: too coarse to divide by
            # arr / norm as one real multiply of the (re, im) planes: its bits, except a -0.0 part keeps its sign
            np.multiply(arr.view(float), 1.0 / norm, out=arr.view(float))
            return StateVector(arr)
        if not arr.any():
            raise ValueError("cannot normalize an amplitude vector of zero norm")
        if norm < 1.0 or np.isfinite(arr).all():  # otherwise StateVector names the non-finite input
            flow = "underflows" if norm < 1.0 else "overflows"
            raise ValueError(f"cannot normalize an amplitude vector whose squared norm {flow} float64")
    return StateVector(arr)


def _check_shape(arr: np.ndarray) -> int:
    if arr.ndim != 1:
        raise ValueError("amplitudes must form a one-dimensional sequence")
    return qubit_count(arr.size, "amplitude count")


def check_int(value: int, name: str) -> int:
    """``value`` as an int, if it is a Python or numpy integer; a bool or anything else raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_register(n_qubits: int) -> int:
    """``n_qubits`` as an int, if a register of that many qubits has at least one qubit."""
    if check_int(n_qubits, "n") < 1:
        raise ValueError(f"need at least one qubit, got n={n_qubits}")
    return int(n_qubits)


def qubit_count(size: int, what: str) -> int:
    """The n of a length ``size == 2**n`` with n >= 1; ``what`` names the length in the error."""
    if size < 2 or size & (size - 1):
        raise ValueError(f"{what} must be a power of two >= 2, got {size}")
    return size.bit_length() - 1


def check_dense(n_qubits: int, index: int = 0) -> int:
    """``n_qubits``, if it is 1 to ``MAX_APPLY_QUBITS`` and ``index`` names one of its basis states:
    the rules of a dense state, checked in that order so ``2**n_qubits`` is formed only within the cap."""
    n_qubits = check_register(n_qubits)
    if n_qubits > MAX_APPLY_QUBITS:
        raise ValueError(f"circuit application supports at most {MAX_APPLY_QUBITS} qubits, got {n_qubits}")
    if not 0 <= check_int(index, "index") < 2**n_qubits:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    return n_qubits


def basis_state(n_qubits: int, index: int = 0) -> StateVector:
    """The computational basis state |index> on ``n_qubits`` qubits, at most ``MAX_APPLY_QUBITS``."""
    arr = np.zeros(2**check_dense(n_qubits, index), dtype=complex)
    arr[index] = 1.0
    return StateVector(arr)
