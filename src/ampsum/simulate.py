"""Dense statevector execution: circuit application, unitary extraction,
single-amplitude and first-row readout, and seeded measurement sampling.

One in-place kernel updates a gate target's two slices.  States are complex128;
sweeps that start real (``extract_unitary``, ``first_rows``) run in float64, as
H, X and RY are real.  ``amplitude`` drops each qubit after its last gate,
``first_rows`` reads one circuit's first row for a batch of RY angles at once.
Registers are capped at 20 qubits for application and readout, 12 for unitary
extraction: a desk-scale backend.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .core import Circuit, Gate, GateKind, StateVector, _local_matrix, check_unit_rows

MAX_APPLY_QUBITS = 20
MAX_UNITARY_QUBITS = 12


def _apply_gate(view: np.ndarray, g: Gate, axis: Callable[[int], int],
                coeffs: tuple | None = None) -> None:
    """Apply one gate in place to ``view``, whose axis ``axis(q)`` is qubit q.

    Any axes past the qubit axes (a batch of column states) are carried
    along.  A control selects a sub-view; X swaps the target's 0 and 1 slices,
    H and RY mix them with real 2x2 ``coeffs`` (the gate's own, or per column).
    """
    sel: list = [slice(None)] * view.ndim + [Ellipsis]  # Ellipsis keeps 0-d slices as views
    if g.control is not None:
        sel[axis(g.control)] = g.control_value
    sel[axis(g.target)] = 0
    a0 = view[tuple(sel)]
    sel[axis(g.target)] = 1
    a1 = view[tuple(sel)]
    if g.kind is GateKind.X:
        a0[...], a1[...] = a1.copy(), a0.copy()
        return
    (m00, m01), (m10, m11) = _local_matrix(g).real if coeffs is None else coeffs
    old0 = a0 * m10
    a0 *= m00
    a0 += m01 * a1
    a1 *= m11
    a1 += old0


def _register_size(circuit: Circuit, n_qubits: int) -> int:
    if circuit.n_qubits != n_qubits:
        raise ValueError(
            f"circuit acts on {circuit.n_qubits} qubits but the state has {n_qubits}"
        )
    if circuit.n_qubits > MAX_APPLY_QUBITS:
        raise ValueError(
            f"circuit application supports at most {MAX_APPLY_QUBITS} qubits, got {circuit.n_qubits}"
        )
    return circuit.n_qubits


def apply_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Run the circuit on a copy of the state; norm is preserved."""
    n = _register_size(circuit, state.n_qubits)
    work = state.amps.copy()
    for g in circuit.gates:  # axis 0 is the most significant qubit
        _apply_gate(work.reshape([2] * n), g, lambda q: n - 1 - q)
    return StateVector(work)


def amplitude(circuit: Circuit, state: StateVector, index: int = 0) -> complex:
    """``apply_circuit(circuit, state).amps[index]`` without the full output state.

    Trailing uncontrolled X gates become bit flips of ``index``.  Each qubit
    is projected onto its ``index`` bit right after its last gate, or before
    the one copy if no gate touches it.  ``apply_circuit``'s output check is
    kept: the squared norms of the dropped slices and the amplitude sum to 1.
    """
    n = _register_size(circuit, state.n_qubits)
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    gates = list(circuit.gates)
    while gates and gates[-1].kind is GateKind.X and gates[-1].control is None:
        index ^= 1 << gates.pop().target
    last = {q: i for i, g in enumerate(gates) for q in g.qubits}
    live = list(range(n - 1, -1, -1))  # the qubit on each axis of ``view``
    dropped = []  # squared norms of the slices projected away

    def project(view: np.ndarray, q: int) -> np.ndarray:
        lead = (slice(None),) * live.index(q)
        live.remove(q)
        bit = (index >> q) & 1
        gone = view[lead + (1 - bit,)]
        dropped.append(np.vdot(gone, gone).real)
        return view[lead + (bit,)]

    view = state.amps.reshape([2] * n)
    for q in set(range(n)) - last.keys():
        view = project(view, q)
    view = view.copy()
    for i, g in enumerate(gates):
        _apply_gate(view, g, live.index)
        for q in g.qubits:
            if last[q] == i:
                view = project(view, q)
    amp = complex(view)
    StateVector([amp, np.sqrt(sum(dropped))])  # StateVector's finite-and-norm check
    return amp


def _real_sweep(work: np.ndarray, gates: Iterable[Gate], ry_coeffs: Iterable = ()) -> np.ndarray:
    """Run ``gates`` in place over the float64 column states ``work`` and return it.

    Each RY takes the next per-column ``ry_coeffs`` entry, or its own coefficients.
    """
    n = work.shape[0].bit_length() - 1
    coeffs = iter(ry_coeffs)
    for g in gates:  # axis 0 is the most significant qubit
        _apply_gate(work.reshape([2] * n + [-1]), g, lambda q: n - 1 - q,
                    next(coeffs, None) if g.kind is GateKind.RY else None)
    return work


def extract_unitary(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the circuit; entry (i, j) is <i|U|j>.

    Column j is the circuit applied to basis state |j>; all columns evolve
    in one batched float64 sweep per gate.
    """
    n = circuit.n_qubits
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(
            f"unitary extraction supports at most {MAX_UNITARY_QUBITS} qubits, "
            f"got {circuit.n_qubits}"
        )
    return _real_sweep(np.eye(2**n), circuit.gates).astype(complex)


def first_rows(circuit: Circuit, angles: np.ndarray | None = None) -> np.ndarray:
    """Row 0 of the circuit's unitary for each row of RY ``angles``, in gate order.

    ``angles`` is a ``(T, n_ry)`` array, by default the circuit's own angles
    (T = 1); the result is a ``(T, 2**n)`` complex128 array.  Row 0 is
    ``conj(U^dagger |0>)``, so one float64 ``(2**n, T)`` sweep through the
    gates in reverse, each RY inverted per column, reads all T rows.
    """
    n = _register_size(circuit, circuit.n_qubits)
    if angles is None:
        angles = np.array([[g.theta for g in circuit.gates if g.kind is GateKind.RY]])
    else:
        n_ry = sum(g.kind is GateKind.RY for g in circuit.gates)
        angles = np.asarray(angles, dtype=float)
        if angles.ndim != 2 or len(angles) < 1 or angles.shape[1] != n_ry:
            raise ValueError(f"angles must form a (T, {n_ry}) array with T >= 1, got shape {angles.shape}")
        if not np.isfinite(angles).all():
            raise ValueError("RY angles must all be finite")
    half = angles[:, ::-1].T / 2.0  # RY(t)^dagger = [[cos, sin], [-sin, cos]](t/2)
    c, s = np.cos(half), np.sin(half)
    work = np.zeros((2**n, len(angles)))
    work[0] = 1.0
    rows = _real_sweep(work, reversed(circuit.gates), [((ci, si), (-si, ci)) for ci, si in zip(c, s)]).T
    check_unit_rows(rows)  # the finite-and-norm check of every other readout
    return rows.astype(complex)


def amplitude_of_zero(state: StateVector) -> complex:
    """Amplitude of the all-zeros basis state."""
    return complex(state.amps[0])


def sample_measurements(state: StateVector, shots: int, seed: int) -> dict[int, int]:
    """Histogram of ``shots`` i.i.d. basis-state draws from ``|amps|**2``.

    Returns only nonzero counts, keyed by basis index; a fixed seed fixes
    the draw exactly.
    """
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    rng = np.random.default_rng(seed)
    probs = np.abs(state.amps) ** 2
    probs /= probs.sum()  # absorb rounding drift so the draw is well-defined
    counts = rng.multinomial(shots, probs)
    return {int(i): int(c) for i, c in enumerate(counts) if c}
