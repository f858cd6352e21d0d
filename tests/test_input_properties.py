"""Property tests on the input surfaces: circuit text, the JSON loaders, the M range, QASM
lowering and the command line.

Each surface either returns a valid object or raises ``ValueError`` (which the CLI turns into
exit 2), whatever it is given, and declared register sizes far past any state cost nothing.
Emitted circuit text parses back bit for bit, lowering negative controls keeps the unitary,
and ``cli.main`` returns 0, 1 or 2 on any argv.  ``derandomize=True`` makes every run draw
the same examples.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import kron_unitary

from ampsum.build import WeightSpec, decompose
from ampsum.cli import main
from ampsum.core import Circuit, Gate, GateKind, StateVector
from ampsum.formats import (circuit_from_text, circuit_to_text, load_samples_file, load_state_file,
                            load_weights_file, lower_negative_controls)

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# register sizes from the empty register up to far past anything 2**n could be built for
QUBITS = st.one_of(st.integers(-3, 70), st.integers(-10**400, 10**400), st.sampled_from([10**12, 10**400]))
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**400, 10**400), st.floats(), st.text(max_size=8))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.dictionaries(st.text(max_size=8), inner, max_size=4)), max_leaves=20)
PAIR_ENTRIES = st.one_of(st.floats(), st.integers(-10**400, 10**400), st.booleans(), JSON_VALUES)
TOKENS = st.one_of(
    st.sampled_from(["qubits", "ctrl", "h", "x", "ry", "#", "0", "1", "-1", "2", "3", "nan", "inf", "-0.0",
                     "1e400", "1e-400", "0.5", "1_0", "0x3", "99999999999", str(10**400), "٣"]),
    st.integers(-10**30, 10**30).map(str), st.floats().map(repr), st.text(max_size=6))


# every finite float, with the extremes the 17-digit text form must carry exactly
ANGLES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, 2 * math.pi, -2 * math.pi]))


@st.composite
def circuits(draw, max_qubits: int, max_gates: int = 12) -> Circuit:
    """A random circuit: any gate kind, target and control polarity, and any finite RY angle."""
    n = draw(st.integers(1, max_qubits))
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind, target = draw(st.sampled_from(GateKind)), draw(st.integers(0, n - 1))
        control = draw(st.none() | st.integers(0, n - 1).filter(lambda q: q != target)) if n > 1 else None
        gates.append(Gate(kind, target, draw(ANGLES) if kind is GateKind.RY else 0.0, control,
                          1 if control is None else draw(st.integers(0, 1))))
    return Circuit(n, tuple(gates))


def _raises_only_value_error(call) -> None:
    try:
        call()
    except ValueError:
        pass


class TestCircuitText:
    @FUZZ
    @given(st.text())
    def test_arbitrary_text(self, text):
        _raises_only_value_error(lambda: circuit_from_text(text))

    @FUZZ
    @given(st.booleans(), QUBITS, st.lists(st.lists(TOKENS, max_size=6), max_size=8))
    def test_random_token_lines(self, header, n, lines):
        text = "\n".join(([f"qubits {n}"] if header else []) + [" ".join(line) for line in lines])
        try:
            circuit = circuit_from_text(text)
        except ValueError:
            return
        assert isinstance(circuit, Circuit) and circuit.n_qubits == n

    @FUZZ
    @given(circuits(max_qubits=40))
    def test_emitted_text_parses_back_bit_for_bit(self, circuit):
        back = circuit_from_text(circuit_to_text(circuit))
        assert back == circuit
        assert [g.theta.hex() for g in back.gates] == [g.theta.hex() for g in circuit.gates]  # -0.0 too


class TestNegativeControlLowering:
    @FUZZ
    @given(circuits(max_qubits=4))
    def test_lowering_keeps_the_unitary(self, circuit):
        lowered = lower_negative_controls(circuit)
        assert all(g.control is None or g.control_value == 1 for g in lowered.gates)
        negative = sum(g.control is not None and g.control_value == 0 for g in circuit.gates)
        assert len(lowered.gates) == len(circuit.gates) + 2 * negative
        assert np.abs(kron_unitary(lowered) - kron_unitary(circuit)).max() <= 1e-12


class TestJsonLoaders:
    @FUZZ
    @given(JSON_VALUES)
    def test_arbitrary_json_in_every_loader(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for load in (load_state_file, load_weights_file, load_samples_file):
            _raises_only_value_error(lambda: load(path))

    @FUZZ
    @given(QUBITS, st.lists(st.one_of(st.lists(PAIR_ENTRIES, min_size=2, max_size=2), JSON_VALUES), max_size=8),
           st.one_of(st.booleans(), JSON_SCALARS))
    def test_state_shaped_json(self, tmp_path, n, amplitudes, normalized):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": n, "amplitudes": amplitudes, "normalized": normalized}))
        try:
            state = load_state_file(path)
        except ValueError:
            return
        assert isinstance(state, StateVector) and state.n_qubits == n == math.log2(len(amplitudes))
        assert not any(type(v) is bool for pair in amplitudes for v in pair)

    @FUZZ
    @given(st.lists(st.one_of(st.floats(), st.integers(-10**400, 10**400), st.booleans()), max_size=8))
    def test_number_arrays(self, tmp_path, values):
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps(values))
        _raises_only_value_error(lambda: load_samples_file(path))
        try:
            spec = load_weights_file(path)
        except ValueError:
            return
        assert spec == WeightSpec(tuple(values))


class TestDecompose:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(-50, 2**13 + 50), st.integers(-3, 12))
    def test_agrees_with_the_range_rule(self, m, n):
        if n >= 1 and 2 <= m <= 2**n:
            assert sum(2**b for b in decompose(m, n).set_bits) == m
        else:
            with pytest.raises(ValueError):
                decompose(m, n)

    @settings(max_examples=100, deadline=1000, derandomize=True)
    @given(st.integers(-10**30, 2**256))
    def test_huge_register(self, m):
        if m >= 2:
            assert sum(2**b for b in decompose(m, 10**12).set_bits) == m
        else:
            with pytest.raises(ValueError, match="2 <= M <= 2"):
                decompose(m, 10**12)


# each flag's values, in range first (hypothesis leans to the first branch), then out of range
CLI_FLAGS = {
    "--m": st.integers(2, 40) | st.integers(-3, 1),
    "--n": st.integers(1, 12) | st.integers(-3, 0),  # integrate samples 2**n points below the cap
    "--n-max": st.integers(2, 3) | st.integers(-3, 1),  # n-max 4 and up is a sweep of seconds
    "--weighted-trials": st.integers(0, 40) | st.integers(-3, -1),
    "--seed": st.integers(0, 2**64) | st.integers(-3, -1),
    "--format": st.sampled_from(["text", "qasm", "svg"]),
    "--function": st.sampled_from(["sin-pi", "cos"]),
    "--state": st.sampled_from(["state.json", "weights.json", "bad.json", "missing.json", "."]),
    "--weights": st.sampled_from(["weights.json", "state.json", "bad.json", "missing.json", "."]),
    "--samples": st.sampled_from(["samples.json", "state.json", "bad.json", "missing.json", "."]),
    "--out": st.sampled_from(["out.txt", "no-dir/out.txt", "."]),
}
INT_FLAGS = ("--m", "--n", "--n-max", "--weighted-trials", "--seed")
HUGE = st.sampled_from([21, 2**64, 10**12, 10**400, -10**400])  # past every cap
NOT_INT = st.sampled_from(["", "x", "1.5", "1e3", "--m"])
COMMAND_FLAGS = {  # the flags a command needs, and its optional ones; a tuple is a choice of one
    "build": (["--m", "--n"], ["--weights", "--format", "--out"]),
    "sum": (["--state", "--m"], ["--weights"]),
    "integrate": ([("--function", "--samples"), "--n", "--m"], []),
    "verify": (["--n-max"], ["--weighted-trials", "--seed"]),
}


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand with most of the flags it needs and some optional ones, in any order, sometimes
    a foreign flag; each flag's value is mostly of its kind, and otherwise huge, no integer, or missing."""
    command = draw(st.sampled_from([*COMMAND_FLAGS, "plot", "--help"]))
    needed, optional = COMMAND_FLAGS.get(command, ([], []))
    flags = [draw(st.sampled_from(f)) if isinstance(f, tuple) else f
             for f in needed if draw(st.integers(0, 9)) < 9]
    flags += [f for f in optional if draw(st.booleans())]
    if draw(st.integers(0, 5)) == 5:
        flags.append(draw(st.sampled_from([*CLI_FLAGS, "--bogus"])))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        roll = draw(st.integers(0, 19))
        if roll == 17 and flag in INT_FLAGS:
            argv.append(str(draw(HUGE)))
        elif roll == 18:
            argv.append(draw(NOT_INT))
        elif roll != 19 and flag != "--bogus":  # roll 19 leaves the flag without its value
            argv.append(str(draw(CLI_FLAGS[flag])))
    return argv


class TestCliArgv:
    @settings(FUZZ, max_examples=300)
    @given(argvs())
    def test_main_returns_an_exit_code(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # every file a flag names, --out included, is under tmp_path
        (tmp_path / "state.json").write_text(json.dumps({"n": 3, "amplitudes": [[0.5, 0.0]] * 4 + [[0.0, 0.0]] * 4}))
        (tmp_path / "weights.json").write_text("[0.5]")
        (tmp_path / "samples.json").write_text(json.dumps([0.25] * 8))
        (tmp_path / "bad.json").write_text("{not json")
        assert main(argv) in (0, 1, 2)
