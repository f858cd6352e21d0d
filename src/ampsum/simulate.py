"""Dense statevector execution: circuit application, unitary extraction,
single-amplitude and first-row readout, and seeded measurement sampling.

One kernel mixes a gate target's two slices, in place or into a fresh array, a
cache-sized block at a time.  One sweep runs gates over complex128 states
(``apply_circuit``) or, as H, X and RY are real, float64 ones (``extract_unitary``,
``first_rows``): through that kernel above 32 KB, and at or below it, where per-call
overhead dominates, as one multiply and one add per gate on a target-first view, with
the same bits.  ``amplitude`` checks its input once and only reads it: each gate
forms only the slices a later gate reads (the kept slice at a qubit's last gate, one
row where the next gate is its control's last), and the first gate writes straight
from the input into a fresh contiguous array, with no whole-state or transposing copy.
``first_rows`` reads one circuit's first row for a batch of RY angles.
Registers are capped at 20 qubits for application and readout (``core.check_dense``) and
at 12 for unitary extraction; the circuit and the state must have the same qubit count.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .core import Circuit, Gate, GateKind, StateVector, check_dense, check_unit_rows, h, qubit_count

MAX_UNITARY_QUBITS = 12
_BLOCK = 2**14  # amplitudes per kernel step: 256 KB slices, four of which fit a 2 MB L2 cache
_SMALL = 2**15  # bytes up to which a sweep takes each gate in two calls: the measured crossover (2,048 complex)
_PAIR = (2, 2, 1, 1, 1, -1)  # a gate's 2x2, or a (2, 2, T) column block, broadcast against a target-first view
_H_PAIR = np.array(h(0).coeffs).reshape(_PAIR)


def _apply_gate(view: np.ndarray, g: Gate, axis: Callable[[int], int],
                coeffs: tuple | None = None, keep: int | None = None, out: np.ndarray | None = None) -> None:
    """Apply one gate to ``view``, whose axis ``axis(q)`` is qubit q, in place or into ``out``.

    Any axes past the qubit axes (a batch of column states) are carried
    along.  A control selects a sub-view; X swaps the target's 0 and 1 slices,
    H and RY mix them with real 2x2 ``coeffs`` (the gate's own, or per column).
    Only where the control fires is anything written.  With ``keep`` set, only the
    target's ``keep`` slice is formed.  ``out`` is ``view`` (in place), a fresh array
    of its shape, or has a length-1 target axis that holds only the ``keep`` slice
    and may be that slice of ``view``.
    """
    out = None if out is view else out
    sel: list = [slice(None)] * view.ndim + [Ellipsis]  # Ellipsis keeps 0-d slices as views
    if g.control is not None:
        sel[axis(g.control)] = g.control_value
    t = axis(g.target)
    sel[t] = 0
    at0 = tuple(sel)
    sel[t] = 1
    at1 = tuple(sel)
    a0, a1 = view[at0], view[at1]
    rows = [a0, a1] if out is None else [out[at0], out[at1 if out.shape[t] == 2 else at0]]
    if keep is not None:
        rows[1 - keep] = None
    if g.kind is GateKind.X:
        if out is None and keep is None:  # a swap in place
            a0, a1 = a0.copy(), a1.copy()
        for row, src in zip(rows, (a1, a0)):
            if row is not None:
                row[...] = src
        return
    _mix(a0, a1, g.coeffs if coeffs is None else coeffs, rows)


def _mix(a0: np.ndarray, a1: np.ndarray, coeffs: tuple, rows: list) -> None:
    """Form the rows of a target's real 2x2 mix that ``rows`` names, each into its array, at most
    ``_BLOCK`` amplitudes at a time, so the temporaries stay in cache; a trailing batch axis is never
    split.  A row may be its own input slice (in place), or None: not formed."""
    if a0.size > _BLOCK and a0.ndim > 1:
        for i in range(len(a0)):
            _mix(a0[i], a1[i], coeffs, [None if row is None else row[i] for row in rows])
        return
    (m00, m01), (m10, m11) = coeffs
    out0, out1 = rows
    if out1 is not None:
        old0 = a0 * m10  # before an in-place row 0 overwrites a0
    if out0 is not None:
        np.multiply(a0, m00, out=out0)
        out0 += m01 * a1
    if out1 is not None:
        np.multiply(a1, m11, out=out1)
        out1 += old0


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
    A gate on t controlled by c = v, followed by c's last gate controlled by
    t = w, forms only row w of t when c's ``index`` bit is not v: that gate
    reads nothing else of the region c = v.  Until a first working array
    exists, each gate writes into a fresh one straight from the input.  The
    input gets ``StateVector``'s finite-and-norm check, which every gate
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

    def fresh(g: Gate, src: np.ndarray) -> np.ndarray:
        """An empty array shaped like ``src``, except where ``g``'s control is idle: there it holds ``src``."""
        out = np.empty(src.shape, complex)
        if g.control is not None:
            idle = [slice(None)] * src.ndim
            idle[live.index(g.control)] = 1 - g.control_value
            out[tuple(idle)] = src[tuple(idle)]
        return out

    view, owned = state.amps.reshape([2] * n), False  # the input state is read, never written
    for q in set(range(n)) - last.keys():
        view = project(view, q)
    for i, g in enumerate(gates):
        if last[g.target] != i:
            nxt = gates[i + 1]  # not the target's last gate, so one follows
            pair = g.control == nxt.target and nxt.control == g.target and last[nxt.target] == i + 1
            # nxt keeps the other half of g's control, and reads this half only on its own control's row
            keep = nxt.control_value if pair and (index >> g.control) & 1 != g.control_value else None
            out = view if owned else fresh(g, view)  # else straight from the input
            _apply_gate(view, g, live.index, keep=keep, out=out)
            view, owned = out, True
        else:  # form only the kept slice: in place on a leading axis, else into a fresh contiguous array
            t, bit = live.index(g.target), (index >> g.target) & 1
            kept = view[(slice(None),) * t + (slice(bit, bit + 1),)]  # the target axis at length 1
            out = kept if owned and t == 0 else fresh(g, kept)
            _apply_gate(view, g, live.index, keep=bit, out=out)
            view, owned = np.squeeze(out, t), True
            live.remove(g.target)
        if g.control is not None and last[g.control] == i:
            view = project(view, g.control)
    return complex(view)


def _sweep(work: np.ndarray, gates: Iterable[Gate], ry_coeffs: Iterable = ()) -> np.ndarray:
    """Run ``gates`` in place over ``work``, one contiguous state or block of column states, and return it.

    Each RY takes the next per-column ``ry_coeffs`` entry, or its own coefficients.  Above ``_SMALL``
    bytes each gate runs through the blocked kernel.  At or below it, where per-call overhead dominates, a
    gate's target pair is a 5-D view of ``work`` with the target axis first, cut to where the control
    fires: X is one reversed copy, H and RY one broadcast multiply and one add, each entry still
    ``c[i, 0] * a0 + c[i, 1] * a1`` to the bit.  Their temporary is twice the array, so big arrays avoid it.
    """
    n = qubit_count(work.shape[0], "state length")
    view, coeffs, cols = work.reshape([2] * n + [-1]), iter(ry_coeffs), work.size >> n
    for g in gates:  # axis 0 is the most significant qubit
        c = next(coeffs, None) if g.kind is GateKind.RY else None
        if work.nbytes > _SMALL:
            if c is not None:  # the kernel's nested rows: unpacking the array itself is several times slower
                c = (c[0, 0], c[0, 1]), (c[1, 0], c[1, 1])
            _apply_gate(view, g, lambda q: n - 1 - q, c)
            continue
        t = n - 1 - g.target
        if g.control is None:
            pair = work.reshape(2**t, 2, -1, 1, cols).swapaxes(0, 1)
        else:
            a = n - 1 - g.control
            sides = work.reshape(2 ** min(t, a), 2, 2 ** (abs(t - a) - 1), 2, -1, cols)
            v = g.control_value
            pair = sides[:, v].swapaxes(0, 2) if a < t else sides[:, :, :, v].swapaxes(0, 1)
        if g.kind is GateKind.X:
            pair[...] = pair[::-1]
        else:  # p[i, j] = c[i, j] * (target slice j)
            p = (_H_PAIR if g.kind is GateKind.H else np.array(g.coeffs if c is None else c).reshape(_PAIR)) * pair
            np.add(p[:, 0], p[:, 1], out=pair)
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
    coeffs = np.array(Gate.ry_coeffs(-angles[:, ::-1].T))  # RY(t)^dagger = RY(-t): (2, 2, n_ry, T)
    work = np.zeros((2**n, len(angles)))
    work[0] = 1.0
    rows = _sweep(work, reversed(circuit.gates), coeffs.transpose(2, 0, 1, 3)).T
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
