import gc
import json
import math
import os
import re

import numpy as np
import pytest

from conftest import npy_bytes, npy_header, random_state

from ampsum.build import WeightSpec, build_partial_sum_circuit, build_weighted_circuit, decompose
from ampsum.cli import main
from ampsum.core import Circuit, Gate, GateKind, StateVector, h, ry, x
from ampsum.formats import (
    circuit_from_text,
    circuit_to_qasm,
    circuit_to_text,
    dump_state_file,
    load_samples_file,
    load_state_file,
    load_weights_file,
    lower_negative_controls,
    write_text_atomic,
)
from ampsum.simulate import extract_unitary, first_rows


class TestCircuitText:
    def test_m6_exact_listing(self):
        text = circuit_to_text(build_partial_sum_circuit(6, 3))
        assert text == (
            "qubits 3\n"
            "ctrl 2 0 h 1\n"
            "ry 1.9106332362490186 2\n"
            "h 0\n"
            "x 2\n"
        )

    def test_round_trip_all_builder_outputs(self):
        for m in range(2, 1025):
            circuit = build_partial_sum_circuit(m, 10)
            text = circuit_to_text(circuit)
            parsed = circuit_from_text(text)
            assert parsed == circuit
            assert circuit_to_text(parsed) == text

    def test_round_trip_positive_controls_and_angles(self):
        circuit = Circuit(3, (ry(-0.1234567890123456789, 0, control=2, control_value=1),))
        assert circuit_from_text(circuit_to_text(circuit)) == circuit

    def test_blank_lines_and_comments_ignored(self):
        parsed = circuit_from_text("qubits 2\n\n# a note\nh 0\n")
        assert parsed == Circuit(2, (h(0),))

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="qubits"):
            circuit_from_text("h 0\n")

    def test_bad_gate_line_rejected(self):
        with pytest.raises(ValueError, match="unrecognized"):
            circuit_from_text("qubits 2\ncz 0 1\n")

    def test_truncated_control_prefix_rejected(self):
        with pytest.raises(ValueError, match="control prefix"):
            circuit_from_text("qubits 2\nctrl 1 h 0\n")

    @pytest.mark.parametrize("text, message", [
        ("", "circuit text must start with a 'qubits <n>' line"),
        ("qubits\n", "circuit text must start with a 'qubits <n>' line"),
        ("qubits 3 4\n", "circuit text must start with a 'qubits <n>' line"),
        ("qubits three\n", "malformed qubit count in header: 'qubits three'"),
        ("qubits 0\n", "need at least one qubit, got n=0"),
        ("qubits 3\nz 1", "unrecognized gate line: 'z 1'"),
        ("qubits 3\nH 1", "unrecognized gate line: 'H 1'"),
        ("qubits 3\nh", "unrecognized gate line: 'h'"),
        ("qubits 3\nh 1 2", "unrecognized gate line: 'h 1 2'"),
        ("qubits 3\nry 0.5", "unrecognized gate line: 'ry 0.5'"),
        ("qubits 3\nry 0.5 1 2", "unrecognized gate line: 'ry 0.5 1 2'"),
        ("qubits 3\nctrl 1 0 h", "unrecognized gate line: 'ctrl 1 0 h'"),
        ("qubits 3\nctrl 1 0 ctrl 2 0 h 0", "unrecognized gate line: 'ctrl 1 0 ctrl 2 0 h 0'"),
        ("qubits 3\nctrl 1 0 rz 0.1 0", "unrecognized gate line: 'ctrl 1 0 rz 0.1 0'"),
        ("qubits 3\nctrl 1", "malformed control prefix: 'ctrl 1'"),
        ("qubits 3\nctrl a 0 h 1", "malformed control prefix: 'ctrl a 0 h 1'"),
        ("qubits 3\nctrl 1 b h 1", "malformed control prefix: 'ctrl 1 b h 1'"),
        ("qubits 3\nx 1.5", "malformed gate line 'x 1.5': invalid literal for int() with base 10: '1.5'"),
        ("qubits 3\nh -1", "malformed gate line 'h -1': target qubit must be non-negative, got -1"),
        ("qubits 3\nry abc z", "malformed gate line 'ry abc z': could not convert string to float: 'abc'"),
        ("qubits 3\nry 0.5 z", "malformed gate line 'ry 0.5 z': invalid literal for int() with base 10: 'z'"),
        ("qubits 3\nry nan 1", "malformed gate line 'ry nan 1': rotation angle must be finite, got nan"),
        ("qubits 3\nry 1e400 1", "malformed gate line 'ry 1e400 1': rotation angle must be finite, got inf"),
        ("qubits 3\nctrl 1 2 h 0", "malformed gate line 'ctrl 1 2 h 0': control_value must be 0 or 1, got 2"),
        ("qubits 3\nctrl 1 0 h 1", "malformed gate line 'ctrl 1 0 h 1': control and target must differ, both are 1"),
        ("qubits 3\nctrl -1 0 x 1",
         "malformed gate line 'ctrl -1 0 x 1': control qubit must be non-negative, got -1"),
        ("qubits 3\nctrl 1 0 ry abc z",
         "malformed gate line 'ctrl 1 0 ry abc z': could not convert string to float: 'abc'"),
    ])
    def test_parse_message(self, text, message):
        # the angle is read before the target, so 'ry abc z' names the angle
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            circuit_from_text(text)

    def test_out_of_register_gate_rejected(self):
        with pytest.raises(ValueError, match="register has 2"):
            circuit_from_text("qubits 2\nh 5\n")


class TestNegativeControlLowering:
    def test_no_negative_controls_remain(self):
        lowered = lower_negative_controls(build_partial_sum_circuit(13, 4))
        assert all(g.control is None or g.control_value == 1 for g in lowered.gates)

    def test_lowering_preserves_unitary(self):
        for m in (3, 6, 13):
            circuit = build_partial_sum_circuit(m, 4)
            lowered = lower_negative_controls(circuit)
            dev = np.abs(extract_unitary(lowered) - extract_unitary(circuit)).max()
            assert dev <= 1e-12

    def test_count_grows_by_two_per_lowered_control(self):
        circuit = build_partial_sum_circuit(13, 4)
        negatives = sum(1 for g in circuit.gates if g.control is not None and g.control_value == 0)
        lowered = lower_negative_controls(circuit)
        assert len(lowered.gates) == len(circuit.gates) + 2 * negatives


class TestQasmExport:
    def test_header_and_original_count(self):
        qasm = circuit_to_qasm(build_partial_sum_circuit(13, 4))
        lines = qasm.splitlines()
        assert lines[0] == "OPENQASM 3.0;"
        assert lines[1] == 'include "stdgates.inc";'
        assert lines[2] == "// gate count before negative-control lowering: 7"
        assert lines[3] == "qubit[4] q;"

    def test_gates_render_with_positive_controls_only(self):
        qasm = circuit_to_qasm(build_partial_sum_circuit(6, 3))
        assert "ctrl @ h q[2], q[1];" in qasm
        assert qasm.count("x q[2];") >= 2  # conjugation pair around the control
        assert "ry(" in qasm

    def test_power_of_two_case(self):
        qasm = circuit_to_qasm(build_partial_sum_circuit(8, 4))
        assert qasm.count("h q[") == 3
        assert "ctrl" not in qasm


_QASM_GATE = re.compile(r"(ctrl @ )?(h|x|ry)(?:\((\S+)\))? (?:q\[(\d+)\], )?q\[(\d+)\];")


def _circuit_from_qasm(text: str) -> tuple[Circuit, int]:
    """The circuit of the OpenQASM subset ``circuit_to_qasm`` writes, and its header's gate count: a reader
    for these tests only, so that what the export says is checked by what it means."""
    lines = text.splitlines()
    assert lines[:2] == ["OPENQASM 3.0;", 'include "stdgates.inc";']
    count = re.fullmatch(r"// gate count before negative-control lowering: (\d+)", lines[2])
    register = re.fullmatch(r"qubit\[(\d+)\] q;", lines[3])
    assert count and register
    gates = []
    for line in lines[4:]:
        ctrl, op, theta, control, target = _QASM_GATE.fullmatch(line).groups()
        assert (ctrl is None) == (control is None) and (theta is None) == (op != "ry")
        gates.append(Gate(GateKind(op), int(target), 0.0 if theta is None else float(theta),
                          None if control is None else int(control)))
    return Circuit(int(register[1]), tuple(gates)), int(count[1])


class TestQasmReadsBack:
    # the read-back circuit has the un-lowered circuit's first row, its angles to the bit, and two more
    # gates than the header count per negative control

    @staticmethod
    def _reads_back(circuit: Circuit) -> None:
        read, count = _circuit_from_qasm(circuit_to_qasm(circuit))
        negatives = sum(g.control is not None and g.control_value == 0 for g in circuit.gates)
        assert count == len(circuit.gates) and len(read.gates) == count + 2 * negatives
        angles = [[g.theta for g in c.gates if g.kind is GateKind.RY] for c in (read, circuit)]
        assert np.array(angles[0]).tobytes() == np.array(angles[1]).tobytes()
        assert np.abs(first_rows(read) - first_rows(circuit)).max() <= 1e-15

    def test_every_plain_circuit_up_to_eight_qubits(self):
        for n in range(1, 9):
            for m in range(2, 2**n + 1):
                self._reads_back(build_partial_sum_circuit(m, n))

    def test_seeded_weighted_circuits(self):
        rng = np.random.default_rng(28)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 2**n + 1))
            self._reads_back(build_weighted_circuit(m, n, WeightSpec(rng.uniform(-1, 1, decompose(m, n).k))))


class TestStateFiles:
    def test_dump_then_load_round_trip(self, tmp_path, plateau_state):
        path = tmp_path / "state.json"
        dump_state_file(plateau_state, path)
        loaded = load_state_file(path)
        assert loaded.n_qubits == 4
        assert np.abs(loaded.amps - plateau_state.amps).max() <= 1e-15

    def test_dump_writes_each_float_exactly(self, tmp_path):
        # -0.0 keeps its sign and the smallest subnormal its value, as float() of each part gives them
        amps = np.array([complex(-0.0, 5e-324), complex(1.0, -0.0)])
        path = tmp_path / "state.json"
        dump_state_file(StateVector(amps), path)
        assert path.read_text() == (
            '{\n "n": 1,\n "amplitudes": [\n  [\n   -0.0,\n   5e-324\n  ],\n  [\n   1.0,\n   -0.0\n  ]\n'
            ' ],\n "normalized": true\n}\n')
        doc = {"n": 1, "amplitudes": [[float(a.real), float(a.imag)] for a in amps], "normalized": True}
        assert path.read_text() == json.dumps(doc, indent=1) + "\n"

    def test_unnormalized_file_is_rescaled(self, tmp_path):
        path = tmp_path / "raw.json"
        doc = {"n": 1, "amplitudes": [[3.0, 0.0], [4.0, 0.0]], "normalized": False}
        path.write_text(json.dumps(doc))
        loaded = load_state_file(path)
        assert np.allclose(loaded.amps, [0.6, 0.8], atol=1e-15)

    def test_norm_checked_when_marked_normalized(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[3.0, 0.0], [4.0, 0.0]]}))
        with pytest.raises(ValueError, match="not normalized"):
            load_state_file(path)

    def test_wrong_length_rejected(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": 2, "amplitudes": [[1.0, 0.0]]}))
        with pytest.raises(ValueError, match="expected 2\\*\\*2"):
            load_state_file(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"amplitudes": []}))
        with pytest.raises(ValueError, match="missing field"):
            load_state_file(path)

    def test_malformed_pair_rejected(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[1.0], [0.0, 0.0]]}))
        with pytest.raises(ValueError, match=r"\[re, im\] pair"):
            load_state_file(path)


class TestNpyFiles:
    def test_state_round_trip_is_bit_exact(self, tmp_path):
        state = random_state(np.random.default_rng(11), 9)
        path = tmp_path / "state.npy"
        dump_state_file(state, path)
        loaded = load_state_file(path)
        assert loaded.amps.dtype == complex and loaded.amps.flags.writeable
        assert loaded.amps.tobytes() == state.amps.tobytes()
        assert list(tmp_path.iterdir()) == [path]

    def test_float_state_file_is_read_as_complex(self, tmp_path):
        path = tmp_path / "real.npy"
        np.save(path, np.array([0.6, 0.8]))
        assert load_state_file(path).amps.tolist() == [0.6 + 0j, 0.8 + 0j]

    def test_state_must_be_normalized(self, tmp_path):
        path = tmp_path / "raw.npy"
        np.save(path, np.array([3.0, 4.0]))
        with pytest.raises(ValueError, match="not normalized: norm is 5.0"):
            load_state_file(path)

    def test_samples_file(self, tmp_path):
        path = tmp_path / "s.npy"
        np.save(path, np.array([1.0, 2.5, 3.0, 4.0]))
        samples = load_samples_file(path)
        assert samples.tolist() == [1.0, 2.5, 3.0, 4.0] and type(samples) is np.ndarray

    @pytest.mark.parametrize("array, load, got", [
        (np.zeros(4, dtype=np.float32), load_state_file, "float32 of shape (4,)"),
        (np.zeros((2, 2), dtype=complex), load_state_file, "complex128 of shape (2, 2)"),
        (np.zeros(4, dtype=">f8"), load_state_file, ">f8 of shape (4,)"),
        (np.ones(4, dtype=complex), load_samples_file, "complex128 of shape (4,)"),
        (np.ones(4, dtype=np.int64), load_samples_file, "int64 of shape (4,)"),
    ])
    def test_only_1d_complex128_or_float64_accepted(self, tmp_path, array, load, got):
        path = tmp_path / "a.npy"
        np.save(path, array)
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: expected a 1-D ") and str(info.value).endswith(got)

    @pytest.mark.parametrize("size, message", [
        (3, "amplitude count must be a power of two >= 2, got 3"),
        (1, "amplitude count must be a power of two >= 2, got 1"),
        (0, "amplitude count must be a power of two >= 2, got 0"),
        (2**21, "circuit application supports at most 20 qubits, got 21"),
    ])
    def test_length_goes_through_the_register_rules(self, tmp_path, size, message):
        path = tmp_path / "state.npy"
        path.write_bytes(npy_bytes(npy_header((size,))))
        os.truncate(path, path.stat().st_size + 16 * size)  # zero data, sparse where the filesystem allows
        with pytest.raises(ValueError, match=f"^{path}: {message}$"):
            load_state_file(path)

    def test_sample_length_goes_through_the_register_rules(self, tmp_path):
        path = tmp_path / "s.npy"
        np.save(path, np.ones(6))
        with pytest.raises(ValueError, match=f"^{path}: sample count must be a power of two >= 2, got 6$"):
            load_samples_file(path)

    @pytest.mark.parametrize("content, reason", [
        (b"", "EOF: reading magic string, expected 8 bytes got 0"),
        (npy_bytes(npy_header((2**40,), "<f8")), "circuit application supports at most 20 qubits, got 40"),
        (npy_bytes(npy_header((4,), "|O")), "got object of shape (4,)"),
        (npy_bytes(npy_header((4,), "<f8"), b"\0" * 31), "holds 3 of the 4 values its header declares"),
        (b"[1.0, 0.0]", "the magic string is not correct"),
        (b"\x93NUMPY\x01\x00\xff\xff", "EOF: reading array header, expected 65535 bytes got 0"),
        (npy_bytes(npy_header((4,), "<f8"), version=(4, 0)), "unsupported .npy format version"),
        # numpy's header parser raises tokenize.TokenError, MemoryError and RecursionError on these
        (npy_bytes("(" * 1000), "EOF in multi-line statement"),
        (npy_bytes("-" * 9000 + "1"), "MemoryError"),
        (npy_bytes("1" + "+1" * 3000), "maximum recursion depth exceeded"),
    ], ids=["empty", "2**40", "object", "short", "json", "header-length", "version", "nesting", "unary",
            "recursion"])
    @pytest.mark.parametrize("load", [load_state_file, load_samples_file])
    def test_malformed_file_names_the_file(self, tmp_path, content, reason, load):
        path = tmp_path / "bad.npy"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: ") and reason in str(info.value)

    @pytest.mark.parametrize("load", [load_state_file, load_samples_file])
    def test_npz_archive_under_an_npy_name(self, tmp_path, load):
        path = tmp_path / "archive.npy"
        with open(path, "wb") as fh:
            np.savez(fh, a=np.ones(4))
        with pytest.raises(ValueError, match=f"^{path}: the magic string is not correct; expected "):
            load(path)

    def test_missing_file_names_the_file(self, tmp_path):
        path = tmp_path / "nope.npy"
        with pytest.raises(ValueError, match=f"^{path}: .*No such file or directory"):
            load_state_file(path)


class TestAuxiliaryFiles:
    def test_weights_file(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("[0.25, -0.5]")
        assert load_weights_file(path).b == (0.25, -0.5)

    def test_weights_file_rejects_non_numbers(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('["a"]')
        with pytest.raises(ValueError, match="array of numbers"):
            load_weights_file(path)

    def test_samples_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[1, 2.5, 3, 4]")
        assert np.array_equal(load_samples_file(path), [1.0, 2.5, 3.0, 4.0])

    @pytest.mark.parametrize("load", [load_state_file, load_weights_file, load_samples_file])
    def test_nesting_too_deep_to_decode(self, tmp_path, load):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(ValueError, match=f"^{path}: JSON nested too deeply to decode$"):
            load(path)

    @pytest.mark.parametrize("content, message", [
        (b"[1,\n", "Expecting value: line 2 column 1 (char 4)"),
        (b"\xff\xfe[]", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ])
    @pytest.mark.parametrize("load", [load_state_file, load_weights_file, load_samples_file])
    def test_undecodable_json_names_the_file(self, tmp_path, load, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_json_reading_restores_the_collector(self, tmp_path, enabled):
        good, deep = tmp_path / "w.json", tmp_path / "deep.json"
        good.write_text("[0.25, -0.5]")
        deep.write_text("[" * 100000 + "]" * 100000)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            load_weights_file(good)
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError):
                load_weights_file(deep)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_atomic_write_replaces_content(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text_atomic(path, "first\n")
        write_text_atomic(path, "second\n")
        assert path.read_text() == "second\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(path, "\ud800")  # a lone surrogate fails in the middle of the write
        write_text_atomic(path, "first\n")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(path, "\ud800")
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "first\n"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask-022", "umask-027"])
    def test_written_files_follow_the_umask(self, tmp_path, plateau_state, umask, mode):
        # as a plain open would: a temp file from tempfile.mkstemp kept mode 0600
        old = os.umask(umask)
        try:
            assert main(["build", "--m", "5", "--n", "3", "--out", str(tmp_path / "c.txt")]) == 0
            for name in ("s.json", "s.npy"):
                dump_state_file(plateau_state, tmp_path / name)
        finally:
            os.umask(old)
        assert {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()} == {
            "c.txt": mode, "s.json": mode, "s.npy": mode}
