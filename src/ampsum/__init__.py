"""Synthesis, simulation, and verification of quantum circuits that read
out partial sums (and weighted partial sums) of statevector amplitudes."""

from .apps import (
    IntegrationSpec,
    Parity,
    even_odd_partial_sum,
    integrate_midpoint,
    midpoints,
    partial_sum_via_circuit,
    tensor_weighted_sum,
)
from .build import (
    BitDecomposition,
    WeightSpec,
    build_partial_sum_circuit,
    build_weighted_circuit,
    decompose,
    expected_gate_count,
)
from .core import (
    Circuit,
    Gate,
    GateKind,
    StateVector,
    basis_state,
    h,
    ry,
    state_from_amplitudes,
    x,
)
from .oracle import (
    brute_force_partial_sum,
    predicted_first_row,
    segment_boundaries,
    segment_weights,
)
from .simulate import (
    amplitude,
    amplitude_of_zero,
    apply_circuit,
    extract_unitary,
    sample_measurements,
)

__version__ = "0.1.0"

__all__ = [
    "BitDecomposition",
    "Circuit",
    "Gate",
    "GateKind",
    "IntegrationSpec",
    "Parity",
    "StateVector",
    "WeightSpec",
    "amplitude",
    "amplitude_of_zero",
    "apply_circuit",
    "basis_state",
    "brute_force_partial_sum",
    "build_partial_sum_circuit",
    "build_weighted_circuit",
    "decompose",
    "even_odd_partial_sum",
    "expected_gate_count",
    "extract_unitary",
    "h",
    "integrate_midpoint",
    "midpoints",
    "partial_sum_via_circuit",
    "predicted_first_row",
    "ry",
    "sample_measurements",
    "segment_boundaries",
    "segment_weights",
    "state_from_amplitudes",
    "tensor_weighted_sum",
    "x",
]
