"""Dense statevector execution: circuit application, unitary extraction,
single-amplitude and first-row readout, and seeded measurement sampling.

One sweep runs gates over complex128 states (``apply_circuit``) or, as H, X and RY are real,
float64 ones (``extract_unitary``, ``first_rows``), on one target-first view of each gate's two
slices, cut to where its control fires.  Above 32 KB a kernel mixes or swaps them in place, a
cache-sized block at a time; at or below it, where per-call overhead dominates, each gate is one
multiply and one add, with the same bits.  ``row_dot`` reads one output amplitude of any vector,
linearly, as its dot product with ``U^dagger |index>``, a short sum of real product states: one numpy
sum per dyadic block of the input, as in every partial-sum readout, or else a sweep of a copy.
``amplitude`` is its checked form on a unit-norm ``StateVector``, and ``first_rows`` reads one
circuit's first row for a batch of RY angles.  Registers are capped at 20 qubits for application and
readout (``core.check_dense``) and at 12 for unitary extraction; the circuit and the state (or the
vector) must have the same qubit count.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .core import Circuit, Gate, GateKind, StateVector, check_dense, check_int, check_unit_rows, h, qubit_count

MAX_UNITARY_QUBITS = 12
_BLOCK = 2**14  # amplitudes per kernel step: 256 KB slices, four of which fit a 2 MB L2 cache
_SMALL = 2**15  # bytes up to which a sweep takes each gate in two calls: the measured crossover (2,048 complex)
_PAIR = (2, 2, 1, 1, 1, -1)  # a gate's 2x2, or a (2, 2, T) column block, broadcast against a target-first view
_H_PAIR = np.array(h(0).coeffs).reshape(_PAIR)


def _mix(a0: np.ndarray, a1: np.ndarray, coeffs: tuple | None) -> None:
    """Mix a target's two slices in place by a real 2x2, or swap them where ``coeffs`` is None, at most
    ``_BLOCK`` amplitudes at a time, so the temporaries stay in cache: the first axis is halved, or dropped
    at length one, until the slices fit.  A trailing batch axis is never split."""
    if a0.size > _BLOCK and a0.ndim > 1:
        half = len(a0) // 2
        for part in (0,) if half == 0 else (slice(None, half), slice(half, None)):
            _mix(a0[part], a1[part], coeffs)
        return
    if coeffs is None:
        old0 = a0.copy()
        a0[...] = a1
        a1[...] = old0
        return
    (m00, m01), (m10, m11) = coeffs
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


def _row_terms(gates: tuple[Gate, ...], n: int, index: int) -> list[list[tuple[float, float]]] | None:
    """``U^dagger |index>`` for the circuit U of ``gates`` as real product states, each a list of n pairs (its
    vector on each qubit, qubit 0 first), or None once there are more terms than gates.  From |index>, each
    gate in reverse applies its transposed 2x2, the dagger of a real gate.  A controlled gate splits a term
    only where the control's vector has two nonzero entries: the part on the firing entry takes the gate."""
    terms = [[(0.0, 1.0) if index >> q & 1 else (1.0, 0.0) for q in range(n)]]
    for g in reversed(gates):
        (m00, m01), (m10, m11) = (map(float, row) for row in g.coeffs)  # RY's are numpy scalars
        c, v = g.control, g.control_value
        for term in list(terms):
            if c is not None:
                u = term[c]
                if not u[v]:  # the control is idle
                    continue
                if u[1 - v]:
                    parts = (u[0], 0.0), (0.0, u[1])  # u on its entry 0, on its entry 1
                    terms.append(term.copy())
                    terms[-1][c], term[c] = parts[1 - v], parts[v]
                    if len(terms) > len(gates):
                        return None
            a, b = term[g.target]
            term[g.target] = (a * m00 + b * m10, a * m01 + b * m11)
    return terms


def row_dot(circuit: Circuit, amps: np.ndarray, index: int = 0) -> complex:
    """``<index|U|amps>`` for any finite complex vector of the circuit's length, linear in ``amps``, which is
    only read; no norm is checked.  As every gate is real, this is the dot product of ``amps`` with
    ``U^dagger |index>``.  Where each of ``_row_terms``' products is a dyadic block, every qubit a basis vector
    or a uniform pair (a, a), a basis qubit slices the vector and puts its nonzero entry into the term's scale,
    as a uniform pair puts a, and one numpy sum, pairwise and with no block-sized temporary, reads the block.
    With an unequal pair (a, b) or more terms than gates, the gates run on a copy: ``apply_circuit``'s bits."""
    n = _register_size(circuit, qubit_count(len(amps), "state length"), index)
    terms = _row_terms(circuit.gates, n, index)
    if terms is None or any(a and b and a != b for term in terms for a, b in term):
        return complex(_sweep(amps.astype(complex), circuit.gates)[index])
    psi, total = amps.reshape([2] * n), 0j
    for term in terms:
        axes = term[::-1]  # axis 0 is the most significant qubit
        block = psi[tuple(slice(None) if a and b else int(not a) for a, b in axes)]
        total += math.prod(a or b for a, b in axes) * complex(block.sum())
    return total


def amplitude(circuit: Circuit, state: StateVector, index: int = 0) -> complex:
    """``apply_circuit(circuit, state).amps[index]`` to within rounding: ``row_dot`` after ``StateVector``'s
    finite-and-norm check of the input, which every gate keeps, since each is unitary."""
    _register_size(circuit, state.n_qubits, index)
    check_unit_rows(state.amps)
    return row_dot(circuit, state.amps, index)


def _sweep(work: np.ndarray, gates: Iterable[Gate], ry_coeffs: Iterable = ()) -> np.ndarray:
    """Run ``gates`` in place over ``work``, one contiguous state or block of column states, and return it.

    Each RY takes the next per-column ``ry_coeffs`` entry, or its own coefficients.  A gate's target pair
    is a 5-D view of ``work`` with the target axis first, cut to where the control fires; the last axis
    holds the columns.  The array's size picks one of two steps on it.  Above ``_SMALL`` bytes ``_mix``
    takes the pair a block at a time.  At or below it, where per-call overhead dominates, X is one reversed
    copy, H and RY one broadcast multiply and one add, each entry still ``c[i, 0] * a0 + c[i, 1] * a1`` to
    the bit.  Their temporary is twice the array, so big arrays avoid it.
    """
    n = qubit_count(work.shape[0], "state length")
    coeffs, cols = iter(ry_coeffs), work.size >> n
    for g in gates:  # axis 0 is the most significant qubit
        c = next(coeffs, None) if g.kind is GateKind.RY else None
        t = n - 1 - g.target
        if g.control is None:
            pair = work.reshape(2**t, 2, -1, 1, cols).swapaxes(0, 1)
        else:
            a = n - 1 - g.control
            sides = work.reshape(2 ** min(t, a), 2, 2 ** (abs(t - a) - 1), 2, -1, cols)
            v = g.control_value
            pair = sides[:, v].swapaxes(0, 2) if a < t else sides[:, :, :, v].swapaxes(0, 1)
        if work.nbytes > _SMALL:
            if c is not None:  # the kernel's nested rows: unpacking the array itself is several times slower
                c = (c[0, 0], c[0, 1]), (c[1, 0], c[1, 1])
            _mix(pair[0], pair[1], None if g.kind is GateKind.X else g.coeffs if c is None else c)
        elif g.kind is GateKind.X:
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
    if not 1 <= check_int(shots, "shots") < 2**63:  # numpy draws int64 counts
        raise ValueError(f"shots must be at least 1 and below 2**63, got {shots}")
    rng = np.random.default_rng(check_int(seed, "seed"))
    probs = np.abs(state.amps) ** 2
    probs /= probs.sum()  # absorb rounding drift so the draw is well-defined
    counts = rng.multinomial(shots, probs)
    return {int(i): int(c) for i, c in enumerate(counts) if c}
