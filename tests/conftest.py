"""Shared fixtures and brute-force references.

``kron_unitary`` builds circuit matrices from explicit Kronecker products
and stays deliberately independent of the package's in-place gate sweeps:
simulator tests check the two routes against each other.  Random states,
random circuits and the plateau vector are the ones ``ampsum verify`` draws.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from ampsum.core import Circuit, Gate, GateKind, StateVector
from ampsum.verify import _plateau_state
from ampsum.verify import _random_circuit as random_circuit  # noqa: F401  (shared with the tests)
from ampsum.verify import _random_state as random_state  # noqa: F401

_I = np.eye(2, dtype=complex)
_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _local(gate: Gate) -> np.ndarray:
    if gate.kind is GateKind.H:
        return _H
    if gate.kind is GateKind.X:
        return _X
    c, s = math.cos(gate.theta / 2.0), math.sin(gate.theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def kron_gate(gate: Gate, n: int) -> np.ndarray:
    """Full 2**n matrix of one gate, assembled factor by factor."""
    local = _local(gate)
    if gate.control is None:
        out = np.array([[1.0]], dtype=complex)
        for q in range(n - 1, -1, -1):
            out = np.kron(out, local if q == gate.target else _I)
        return out
    fire = _P0 if gate.control_value == 0 else _P1
    idle = _P1 if gate.control_value == 0 else _P0
    active = np.array([[1.0]], dtype=complex)
    passive = np.array([[1.0]], dtype=complex)
    for q in range(n - 1, -1, -1):
        if q == gate.control:
            active = np.kron(active, fire)
            passive = np.kron(passive, idle)
        elif q == gate.target:
            active = np.kron(active, local)
            passive = np.kron(passive, _I)
        else:
            active = np.kron(active, _I)
            passive = np.kron(passive, _I)
    return active + passive


def kron_unitary(circuit: Circuit) -> np.ndarray:
    total = np.eye(2**circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        total = kron_gate(g, circuit.n_qubits) @ total
    return total


def plateau_amplitudes() -> np.ndarray:
    """Unit-norm 16-amplitude vector with dyadic plateau levels."""
    return _plateau_state().amps


@pytest.fixture
def plateau_state() -> StateVector:
    return StateVector(plateau_amplitudes())


def npy_bytes(header: str, data: bytes = b"", version: tuple[int, int] = (1, 0), length: int | None = None) -> bytes:
    """A ``.npy`` file as bytes: the magic string, ``version``, a length prefix (the header's own length
    unless ``length`` is given), ``header`` and ``data``.  Nothing checks that the parts agree."""
    raw = header.encode("utf-8")
    prefix = struct.pack("<H" if version == (1, 0) else "<I", len(raw) if length is None else length)
    return b"\x93NUMPY" + bytes(version) + prefix + raw + data


def npy_header(shape: tuple, descr: str = "<c16") -> str:
    """A well-formed header text for a C-order array of ``shape``."""
    return repr({"descr": descr, "fortran_order": False, "shape": shape})
