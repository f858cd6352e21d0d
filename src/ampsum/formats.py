"""File and text formats: JSON state files, the line-oriented circuit text
format, and OpenQASM 3 export.

Circuit text is one gate per line after a ``qubits <n>`` header::

    qubits 4
    ctrl 3 0 h 2
    ry 1.9106332362490186 3
    x 3

The optional ``ctrl <qubit> <0|1>`` prefix marks a controlled gate;
polarity 0 fires on |0>.  Angles carry 17 significant digits so parsing an
emitted circuit reproduces it bit-exactly.

State files are JSON objects ``{"n": int, "amplitudes": [[re, im], ...],
"normalized": bool}`` with ``2**n`` amplitude pairs; ``normalized`` defaults
to true, meaning the loader checks the norm instead of rescaling.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .build import WeightSpec
from .core import Circuit, Gate, GateKind, StateVector, h, ry, state_from_amplitudes, x


def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.n_qubits}"]
    for g in circuit.gates:
        parts = []
        if g.control is not None:
            parts += ["ctrl", str(g.control), str(g.control_value)]
        if g.kind is GateKind.RY:
            parts += ["ry", format(g.theta, ".17g"), str(g.target)]
        else:
            parts += [g.kind.value, str(g.target)]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0].split()[0] != "qubits" or len(lines[0].split()) != 2:
        raise ValueError("circuit text must start with a 'qubits <n>' line")
    try:
        n_qubits = int(lines[0].split()[1])
    except ValueError:
        raise ValueError(f"malformed qubit count in header: {lines[0]!r}") from None
    gates = []
    for line in lines[1:]:
        gates.append(_parse_gate_line(line))
    return Circuit(n_qubits, tuple(gates))


def _parse_gate_line(line: str) -> Gate:
    tokens = line.split()
    control = None
    control_value = 1
    if tokens[0] == "ctrl":
        if len(tokens) < 4:
            raise ValueError(f"malformed control prefix: {line!r}")
        try:
            control, control_value = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise ValueError(f"malformed control prefix: {line!r}") from None
        tokens = tokens[3:]
    try:
        if tokens[0] in ("h", "x") and len(tokens) == 2:
            factory = h if tokens[0] == "h" else x
            return factory(int(tokens[1]), control=control, control_value=control_value)
        if tokens[0] == "ry" and len(tokens) == 3:
            return ry(float(tokens[1]), int(tokens[2]), control=control, control_value=control_value)
    except ValueError as exc:
        raise ValueError(f"malformed gate line {line!r}: {exc}") from None
    raise ValueError(f"unrecognized gate line: {line!r}")


def lower_negative_controls(circuit: Circuit) -> Circuit:
    """Rewrite every 0-polarity control as X, positive control, X.

    For export to gate sets without polarity flags; the unitary is unchanged
    but the gate count grows by two per lowered control.
    """
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.control is not None and g.control_value == 0:
            gates.append(x(g.control))
            gates.append(Gate(g.kind, g.target, g.theta, g.control, 1))
            gates.append(x(g.control))
        else:
            gates.append(g)
    return Circuit(circuit.n_qubits, tuple(gates))


def circuit_to_qasm(circuit: Circuit) -> str:
    """OpenQASM 3 rendering; negative controls are lowered via X conjugation.

    The header comment records the gate count of the un-lowered circuit.
    """
    lowered = lower_negative_controls(circuit)
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"// gate count before negative-control lowering: {len(circuit.gates)}",
        f"qubit[{circuit.n_qubits}] q;",
    ]
    for g in lowered.gates:
        if g.kind is GateKind.RY:
            op = f"ry({format(g.theta, '.17g')})"
        else:
            op = g.kind.value
        if g.control is None:
            lines.append(f"{op} q[{g.target}];")
        else:
            lines.append(f"ctrl @ {op} q[{g.control}], q[{g.target}];")
    return "\n".join(lines) + "\n"


def load_state_file(path: str | Path) -> StateVector:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: state file must hold a JSON object")
    try:
        n_qubits = doc["n"]
        raw = doc["amplitudes"]
    except KeyError as exc:
        raise ValueError(f"{path}: state file is missing field {exc}") from None
    normalized = doc.get("normalized", True)
    if not isinstance(n_qubits, int) or isinstance(n_qubits, bool) or n_qubits < 1:
        raise ValueError(f"{path}: 'n' must be a positive integer, got {n_qubits!r}")
    if not isinstance(normalized, bool):
        raise ValueError(f"{path}: 'normalized' must be true or false, got {normalized!r}")
    if not isinstance(raw, list) or len(raw) != 2**n_qubits:
        raise ValueError(
            f"{path}: expected 2**{n_qubits} amplitude pairs, got {len(raw) if isinstance(raw, list) else type(raw).__name__}"
        )
    try:
        values = [complex(re, im) for re, im in raw]
    except (TypeError, ValueError, OverflowError):  # not a pair, or not two floats
        raise ValueError(
            f"{path}: each 'amplitudes' entry must be a [re, im] pair of numbers"
        ) from None
    return state_from_amplitudes(values, normalize=not normalized)


def dump_state_file(state: StateVector, path: str | Path) -> None:
    doc = {
        "n": state.n_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amps],
        "normalized": True,
    }
    write_text_atomic(path, json.dumps(doc, indent=1) + "\n")


def load_weights_file(path: str | Path) -> WeightSpec:
    """JSON array of reals in [-1, 1], one per set bit of M except the highest."""
    return WeightSpec(tuple(_load_numbers(path, "weights")))


def load_samples_file(path: str | Path) -> np.ndarray:
    """JSON array of real samples; length is validated by the consumer."""
    return _load_numbers(path, "samples")


def _load_numbers(path: str | Path, what: str) -> np.ndarray:
    """The JSON array of numbers in a ``what`` file, as float64."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list) or not all(type(v) in (int, float) for v in doc):
        raise ValueError(f"{path}: {what} file must hold a JSON array of numbers")
    try:
        return np.asarray(doc, dtype=float)
    except OverflowError:
        raise ValueError(f"{path}: {what} file holds a number too large for a float") from None


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so failures leave no partial file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
