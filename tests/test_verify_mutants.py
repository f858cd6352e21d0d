"""The kill matrix of ``ampsum verify``: which invariants catch which planted defect.

Each case plants one defect with a monkeypatch of one function and runs
``verify.run_sweep(5, weighted_trials=5)``.  It asserts the exact set of invariant names that fail,
not how often each fails: the counts move with the random stream, the set does not.  A change that
narrows a set has made ``verify`` blind to part of a defect it used to catch.

``_mix`` defects show only above ``simulate._SMALL`` (32 KB).  At 5 trials ``first_rows``' float
batches are 12 KB, so those two cases run 128 trials, a 33 KB batch at n = 5.  A complex state at
n <= 10 is at most 16 KB, so ``verify`` never runs the complex blocked kernel at all; only
``tests/test_simulate.py::TestBlockedKernel`` covers it.
"""

from dataclasses import replace

import numpy as np
import pytest

from ampsum import apps, build, core, formats, oracle, simulate, verify

CIRCUIT_ROW = {"constant-quadrature", "dagger-uniform", "even-plus-odd", "even-sum", "first-row", "linearity",
               "odd-sum", "scaled-partial-sum", "tensor-h", "tensor-identity", "tensor-x", "weighted-first-row"}
TENSOR = {"tensor-h", "tensor-identity", "tensor-x"}


def _flipped_h(h):
    return lambda target, control=None, control_value=1: h(
        target, control, control_value if control is None else 1 - control_value)


def _last_gate_dropped(cascade):
    def dropped(decomp, angles):
        gates = cascade(decomp, angles)
        return gates[:-1] if decomp.k >= 1 else gates
    return dropped


def _first_inner_edge_moved(boundaries):
    def moved(decomp):
        edges = boundaries(decomp)
        return edges[:1] + (edges[1] + 1,) + edges[2:] if len(edges) > 2 else edges
    return moved


def _six_digit_angles(to_text):
    return lambda circuit: to_text(core.Circuit(circuit.n_qubits, tuple(
        replace(g, theta=float(f"{g.theta:.6g}")) for g in circuit.gates)))


def _transposed_mix(mix):
    return lambda a0, a1, c: mix(a0, a1, None if c is None else ((c[0][0], c[1][0]), (c[0][1], c[1][1])))


# per defect: the module and name patched, the patch made from the original, the weighted trials, the kill set
MUTANTS = {
    "h-control-polarity": (build, "h", _flipped_h, 5, CIRCUIT_ROW),
    "cascade-last-x-dropped": (build, "_cascade", _last_gate_dropped, 5, CIRCUIT_ROW | {"gate-count"}),
    "cascade-angles-scaled": (build, "cascade_angles", lambda f: lambda b: [[t * (1 + 1e-9) for t in r] for r in f(b)],
                              5, {"dagger-uniform", "even-plus-odd", "even-sum", "first-row", "linearity", "odd-sum",
                                  "restricted-weights-match-plain", "scaled-partial-sum"} | TENSOR),
    "row-terms-untransposed": (simulate, "_row_terms",
                               lambda f: lambda gates, n, index: f(tuple(g.dagger() for g in gates), n, index), 5,
                               {"constant-quadrature", "even-plus-odd", "even-sum", "odd-sum"} | TENSOR),
    "segment-weights-reversed": (oracle, "segment_weights", lambda f: lambda d, w: f(d, w)[..., ::-1], 5,
                                 {"oracle-weighted-norm", "weighted-first-row"}),
    "segment-edge-moved": (oracle, "segment_boundaries", _first_inner_edge_moved, 5,
                           {"oracle-segment-sum", "segment-edges"}),
    "text-six-digits": (formats, "circuit_to_text", _six_digit_angles, 5, {"text-round-trip"}),
    "odd-reads-even": (apps, "even_odd_partial_sum",
                       lambda f: lambda state, m, parity: f(state, m, apps.Parity.EVEN), 5,
                       {"even-plus-odd", "odd-sum"}),
    "tensor-v-rows-reversed": (apps, "tensor_weighted_sum", lambda f: lambda s, m, v: f(s, m, np.asarray(v)[::-1]),
                               5, TENSOR),
    "quadrature-scaled": (apps, "integrate_midpoint", lambda f: lambda spec: f(spec) * (1 + 1e-9), 5,
                          {"constant-quadrature", "full-interval-quadrature"}),
    "mix-transposed": (simulate, "_mix", _transposed_mix, 128, {"first-row", "weighted-first-row"}),
    "mix-x-no-op": (simulate, "_mix", lambda f: lambda a0, a1, c: None if c is None else f(a0, a1, c), 128,
                    {"first-row", "weighted-first-row"}),
}


def _failing(trials: int) -> set[str]:
    return {f.invariant for f in verify.run_sweep(5, weighted_trials=trials, report=lambda line: None)}


def test_clean_sweep_fails_nothing():
    assert _failing(5) == set()


@pytest.mark.parametrize("module, name, patch, trials, kills", MUTANTS.values(), ids=list(MUTANTS))
def test_each_defect_fails_exactly_its_invariants(monkeypatch, module, name, patch, trials, kills):
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    assert _failing(trials) == kills
