"""Dense statevector execution: circuit application, unitary extraction,
single-amplitude and first-row readout, and seeded measurement sampling.

One in-place kernel mixes a gate target's two slices, a cache-sized block at a
time, and one sweep runs it over complex128 states (``apply_circuit``) or, as H,
X and RY are real, float64 ones (``extract_unitary``, ``first_rows``).  ``amplitude``
checks its input once, forms only the kept slice at each qubit's last gate, into a
contiguous array with no transposing copy, and only reads its input; ``first_rows``
reads one circuit's first row for a batch of RY angles.
Registers are capped at 20 qubits for application and readout (``core.check_dense``) and
at 12 for unitary extraction; the circuit and the state must have the same qubit count.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .core import Circuit, Gate, GateKind, StateVector, check_dense, check_unit_rows, qubit_count

MAX_UNITARY_QUBITS = 12
_BLOCK = 2**14  # amplitudes per kernel step: 256 KB slices, four of which fit a 2 MB L2 cache


def _apply_gate(view: np.ndarray, g: Gate, axis: Callable[[int], int],
                coeffs: tuple | None = None, keep: int | None = None, out: np.ndarray | None = None) -> None:
    """Apply one gate in place to ``view``, whose axis ``axis(q)`` is qubit q.

    Any axes past the qubit axes (a batch of column states) are carried
    along.  A control selects a sub-view; X swaps the target's 0 and 1 slices,
    H and RY mix them with real 2x2 ``coeffs`` (the gate's own, or per column).
    With ``keep`` set, only the target's ``keep`` slice is formed, where the control
    fires, into ``out``: ``view``'s shape with a length-1 target axis, which may be
    that slice of ``view`` itself.
    """
    sel: list = [slice(None)] * view.ndim + [Ellipsis]  # Ellipsis keeps 0-d slices as views
    if g.control is not None:
        sel[axis(g.control)] = g.control_value
    sel[axis(g.target)] = 0
    a0 = view[tuple(sel)]
    row = None if out is None else out[tuple(sel)]
    sel[axis(g.target)] = 1
    a1 = view[tuple(sel)]
    if g.kind is GateKind.X:
        if row is None:
            a0[...], a1[...] = a1.copy(), a0.copy()
        else:
            row[...] = a1 if keep == 0 else a0
        return
    _mix(a0, a1, g.coeffs if coeffs is None else coeffs, keep, row)


def _mix(a0: np.ndarray, a1: np.ndarray, coeffs: tuple, keep: int | None = None,
         out: np.ndarray | None = None) -> None:
    """Mix a target's slices in place with real 2x2 ``coeffs``, at most ``_BLOCK`` amplitudes at a time,
    so the two temporaries stay in cache; a trailing batch axis is never split.  With ``keep`` set,
    only row ``keep`` of the mix is written, into ``out``, by the same products and sum."""
    if a0.size > _BLOCK and a0.ndim > 1:
        for b0, b1, b_out in zip(a0, a1, a0 if out is None else out):
            _mix(b0, b1, coeffs, keep, b_out)
        return
    (m00, m01), (m10, m11) = coeffs
    if keep == 0:
        np.multiply(a0, m00, out=out)
        out += m01 * a1
    elif keep == 1:
        np.multiply(a1, m11, out=out)
        out += a0 * m10
    else:
        old0 = a0 * m10
        a0 *= m00
        a0 += m01 * a1
        a1 *= m11
        a1 += old0


def _register_size(circuit: Circuit, n_qubits: int, index: int = 0) -> int:
    if circuit.n_qubits != n_qubits:
        raise ValueError(f"circuit acts on {circuit.n_qubits} qubits but the state has {n_qubits}")
    return check_dense(n_qubits, index)


def apply_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Run the circuit on a copy of the state; norm is preserved."""
    _register_size(circuit, state.n_qubits)
    return StateVector(_sweep(state.amps.copy(), circuit.gates))


def amplitude(circuit: Circuit, state: StateVector, index: int = 0) -> complex:
    """``apply_circuit(circuit, state).amps[index]`` without the full output state.

    Trailing uncontrolled X gates become bit flips of ``index``.  A qubit no
    gate touches is projected onto its ``index`` bit before any copy; at every
    other qubit's last gate only the target's ``index``-bit slice is formed.
    The input gets ``StateVector``'s finite-and-norm check, which every gate
    keeps, since each is unitary.
    """
    n = _register_size(circuit, state.n_qubits, index)
    check_unit_rows(state.amps)
    gates = list(circuit.gates)
    while gates and gates[-1].kind is GateKind.X and gates[-1].control is None:
        index ^= 1 << gates.pop().target
    last = {q: i for i, g in enumerate(gates) for q in g.qubits}
    live = list(range(n - 1, -1, -1))  # the qubit on each axis of ``view``

    def project(view: np.ndarray, q: int) -> np.ndarray:
        lead = (slice(None),) * live.index(q)
        live.remove(q)
        return view[lead + ((index >> q) & 1,)]

    view, owned = state.amps.reshape([2] * n), False  # the input state is read, never written
    for q in set(range(n)) - last.keys():
        view = project(view, q)
    for i, g in enumerate(gates):
        if last[g.target] != i:
            if not owned:
                view, owned = view.copy(), True
            _apply_gate(view, g, live.index)
        else:  # form only the kept slice: in place on a leading axis, else into a fresh contiguous array
            t, bit = live.index(g.target), (index >> g.target) & 1
            kept = view[(slice(None),) * t + (slice(bit, bit + 1),)]  # the target axis at length 1
            out = kept if owned and t == 0 else np.empty(kept.shape, complex)
            if out is not kept and g.control is not None:  # where the control is idle, the slice is unchanged
                idle = [slice(None)] * view.ndim
                idle[live.index(g.control)] = 1 - g.control_value
                out[tuple(idle)] = kept[tuple(idle)]
            _apply_gate(view, g, live.index, keep=bit, out=out)
            view, owned = np.squeeze(out, t), True
            live.remove(g.target)
        if g.control is not None and last[g.control] == i:
            view = project(view, g.control)
    return complex(view)


def _sweep(work: np.ndarray, gates: Iterable[Gate], ry_coeffs: Iterable = ()) -> np.ndarray:
    """Run ``gates`` in place over ``work``, one state or a block of column states, and return it.

    Each RY takes the next per-column ``ry_coeffs`` entry, or its own coefficients.
    """
    n = qubit_count(work.shape[0], "state length")
    view, coeffs = work.reshape([2] * n + [-1]), iter(ry_coeffs)
    for g in gates:  # axis 0 is the most significant qubit
        _apply_gate(view, g, lambda q: n - 1 - q, next(coeffs, None) if g.kind is GateKind.RY else None)
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
    return _sweep(np.eye(2**n), circuit.gates).astype(complex)


def first_rows(circuit: Circuit, angles: np.ndarray | None = None) -> np.ndarray:
    """Row 0 of the circuit's unitary for each row of RY ``angles``, in gate order.

    ``angles`` is a ``(T, n_ry)`` array, by default the circuit's own angles
    (T = 1); the result is a ``(T, 2**n)`` complex128 array.  Row 0 is
    ``conj(U^dagger |0>)``, so one float64 ``(2**n, T)`` sweep through the
    gates in reverse, each RY inverted per column, reads all T rows.
    """
    n = check_dense(circuit.n_qubits)
    if angles is None:
        angles = np.array([[g.theta for g in circuit.gates if g.kind is GateKind.RY]])
    else:
        n_ry = sum(g.kind is GateKind.RY for g in circuit.gates)
        angles = np.asarray(angles, dtype=float)
        if angles.ndim != 2 or len(angles) < 1 or angles.shape[1] != n_ry:
            raise ValueError(f"angles must form a (T, {n_ry}) array with T >= 1, got shape {angles.shape}")
        if not np.isfinite(angles).all():
            raise ValueError("RY angles must all be finite")
    (c, ms), (s, _) = Gate.ry_coeffs(-angles[:, ::-1].T)  # RY(t)^dagger = RY(-t), a row per gate
    work = np.zeros((2**n, len(angles)))
    work[0] = 1.0
    rows = _sweep(work, reversed(circuit.gates), [((ci, mi), (si, ci)) for ci, mi, si in zip(c, ms, s)]).T
    check_unit_rows(rows)  # the finite-and-norm check of every other readout
    return rows.astype(complex)


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
