"""Synthesis, simulation, and verification of quantum circuits that read
out partial sums (and weighted partial sums) of statevector amplitudes."""

from types import ModuleType as _ModuleType

from .apps import (IntegrationSpec, Parity, even_odd_partial_sum, integrate_midpoint, midpoints,
                   partial_sum_via_circuit, tensor_weighted_sum)
from .build import (BitDecomposition, WeightSpec, build_partial_sum_circuit, build_weighted_circuit,
                    decompose, expected_gate_count)
from .core import Circuit, Gate, GateKind, StateVector, basis_state, h, ry, state_from_amplitudes, x
from .oracle import brute_force_partial_sum, predicted_first_row, segment_boundaries, segment_weights
from .simulate import amplitude, apply_circuit, extract_unitary, sample_measurements

__version__ = "0.1.0"

# every name imported above, and not the submodules that importing them binds here
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
