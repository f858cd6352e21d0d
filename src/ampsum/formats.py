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
to true, meaning the loader checks the norm instead of rescaling.  A path
ending in ``.npy`` holds numpy's binary format instead (``_read_npy``).
"""

from __future__ import annotations

import gc
import json
import os
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from .build import WeightSpec
from .core import Circuit, Gate, GateKind, StateVector, check_dense, qubit_count, state_from_amplitudes, x


def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.n_qubits}"]
    for g in circuit.gates:
        ctrl = "" if g.control is None else f"ctrl {g.control} {g.control_value} "
        angle = f" {g.theta:.17g}" if g.kind is GateKind.RY else ""
        lines.append(f"{ctrl}{g.kind.value}{angle} {g.target}")
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
    return Circuit(n_qubits, tuple(_parse_gate_line(line) for line in lines[1:]))


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
        kind = GateKind(tokens[0])
        if len(tokens) != (3 if kind is GateKind.RY else 2):
            raise ValueError
    except ValueError:
        raise ValueError(f"unrecognized gate line: {line!r}") from None
    try:  # the angle first, so a line with two bad fields reports the angle's
        theta = float(tokens[1]) if kind is GateKind.RY else 0.0
        return Gate(kind, int(tokens[-1]), theta, control, control_value)
    except ValueError as exc:
        raise ValueError(f"malformed gate line {line!r}: {exc}") from None


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
        op = g.kind.value + (f"({g.theta:.17g})" if g.kind is GateKind.RY else "")
        if g.control is None:
            lines.append(f"{op} q[{g.target}];")
        else:
            lines.append(f"ctrl @ {op} q[{g.control}], q[{g.target}];")
    return "\n".join(lines) + "\n"


def load_state_file(path: str | Path) -> StateVector:
    if Path(path).suffix == ".npy":
        return StateVector(_read_npy(path, ("complex128", "float64"), "amplitude"))
    doc = _read_json(path)
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
    # bit lengths first: 2**n is built only for an n that the list's length bounds
    if not isinstance(raw, list) or len(raw).bit_length() != n_qubits + 1 or len(raw) != 2**n_qubits:
        raise ValueError(
            f"{path}: expected 2**{n_qubits} amplitude pairs, got {len(raw) if isinstance(raw, list) else type(raw).__name__}"
        )
    try:  # a pair holding a JSON boolean, which complex() would read as 0 or 1, is left out
        values = [complex(re, im) for re, im in raw if type(re) is not bool and type(im) is not bool]
    except (TypeError, ValueError, OverflowError):  # not a pair, or not two numbers
        values = []
    if len(values) != len(raw):
        raise ValueError(f"{path}: each 'amplitudes' entry must be a [re, im] pair of numbers")
    return state_from_amplitudes(values, normalize=not normalized)


def dump_state_file(state: StateVector, path: str | Path) -> None:
    if Path(path).suffix == ".npy":
        return _write_atomic(path, lambda fh: np.save(fh, state.amps, allow_pickle=False))
    doc = {
        "n": state.n_qubits,
        "amplitudes": state.amps.view(float).reshape(-1, 2).tolist(),
        "normalized": True,
    }
    write_text_atomic(path, json.dumps(doc, indent=1) + "\n")


def load_weights_file(path: str | Path) -> WeightSpec:
    """JSON array of reals in [-1, 1], one per set bit of M except the highest."""
    values = _load_numbers(path, "weights")
    try:
        return WeightSpec(tuple(values))
    except ValueError as exc:  # the range rule, named with the file like every other content error
        raise ValueError(f"{path}: {exc}") from None


def load_samples_file(path: str | Path) -> np.ndarray:
    """JSON array of real samples, or a float64 ``.npy`` array; length is validated by the consumer."""
    if Path(path).suffix == ".npy":
        return _read_npy(path, ("float64",), "sample")
    return _load_numbers(path, "samples")


def _read_json(path: str | Path):
    """The JSON document in ``path``.  Decoding builds only acyclic lists and dicts, so the cyclic
    collector is paused meanwhile; text that does not decode is a ``ValueError`` naming the file."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: {exc}") from None
    finally:
        if collecting:
            gc.enable()


def _read_npy(path: str | Path, dtypes: tuple[str, ...], what: str) -> np.ndarray:
    """The 1-D array of a ``.npy`` file, read only once its header holds a dtype in ``dtypes`` and one
    dimension of length ``2**n`` with n from 1 to 20; every failure is a ``ValueError`` naming the file.
    Not ``np.load``: mapping a header with a zero-size dtype and shape ``(-1,)`` kills the process with
    SIGFPE, and without a map it allocates whatever size a header declares."""
    try:
        with open(path, "rb") as fh:
            version = npy.read_magic(fh)
            if version not in ((1, 0), (2, 0), (3, 0)):  # version 3 differs from 2 only in a UTF-8 header
                raise ValueError(f"unsupported .npy format version {version}")
            shape, _, dtype = (npy.read_array_header_1_0 if version == (1, 0) else npy.read_array_header_2_0)(fh)
            if len(shape) != 1 or dtype not in dtypes:
                raise ValueError(f"expected a 1-D {' or '.join(dtypes)} array, got {dtype} of shape {shape}")
            size = 2**check_dense(qubit_count(shape[0], f"{what} count"))
            arr = np.fromfile(fh, dtype=dtype, count=size)
    except Exception as exc:  # OSError; numpy's header parser also raises TokenError, MemoryError, ...
        raise ValueError(f"{path}: {str(exc) or type(exc).__name__}") from None
    if arr.size != size:
        raise ValueError(f"{path}: holds {arr.size} of the {size} values its header declares")
    return arr


def _load_numbers(path: str | Path, what: str) -> np.ndarray:
    """The JSON array of numbers in a ``what`` file, as float64."""
    doc = _read_json(path)
    if not isinstance(doc, list) or not all(type(v) in (int, float) for v in doc):
        raise ValueError(f"{path}: {what} file must hold a JSON array of numbers")
    try:
        return np.asarray(doc, dtype=float)
    except OverflowError:
        raise ValueError(f"{path}: {what} file holds a number too large for a float") from None


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so failures leave no partial file."""
    _write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))


def _write_atomic(path: str | Path, write) -> None:
    """Call ``write`` on a binary sibling temp file, then rename it onto ``path``.  The temp file is
    created with mode 0666 less the umask, as a plain ``open`` would create ``path``."""
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
