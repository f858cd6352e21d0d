"""Property tests on the input surfaces: circuit text, the JSON and ``.npy`` loaders, the M range,
integer arguments, QASM lowering and the command line.

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
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import kron_unitary, npy_bytes

from ampsum import verify
from ampsum.apps import IntegrationSpec, integrate_midpoint, midpoints
from ampsum.build import WeightSpec, build_partial_sum_circuit, decompose
from ampsum.cli import main
from ampsum.core import Circuit, Gate, GateKind, StateVector, basis_state, h, x
from ampsum.formats import (circuit_from_text, circuit_to_text, load_samples_file, load_state_file,
                            load_weights_file, lower_negative_controls)
from ampsum.oracle import brute_force_partial_sum
from ampsum.simulate import amplitude, apply_circuit, sample_measurements

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


NPY_DESCRS = ["<c16", "<f8", ">f8", ">c16", "<f4", "<i8", "|b1", "|O", "<U2", "|V16", "[('a', '<f8')]"]
NPY_SIZES = [0, 1, 2, 3, 4, 8, 2**21, 2**40, 2**63, 2**70, -1]


@st.composite
def npy_files(draw) -> bytes:
    """A ``.npy`` file: a header of any dtype and shape (of any rank, with sizes far past any file) over
    random data or a unit vector, then at most one corruption of its version, header length or fields."""
    descr = draw(st.sampled_from(NPY_DESCRS))
    size = draw(st.sampled_from([2, 4, 8, 16]))
    shape = draw(st.one_of(st.just((size,)), st.lists(st.sampled_from(NPY_SIZES), max_size=3).map(tuple)))
    fields = {"descr": descr, "fortran_order": draw(st.booleans()), "shape": shape}
    if descr in ("<c16", "<f8") and draw(st.booleans()):  # a unit vector, cut short or not
        data = np.eye(1, size, dtype=descr).tobytes()[:draw(st.sampled_from([None, 8, -1]))]
    else:
        data = draw(st.binary(max_size=160))
    version, length, header = draw(st.sampled_from([(1, 0), (2, 0), (3, 0)])), None, None
    corruption = draw(st.sampled_from(["none"] * 4 + ["version", "length", "drop", "retype", "text", "nesting"]))
    if corruption == "version":
        version = draw(st.tuples(st.integers(0, 255), st.integers(0, 255)))
    elif corruption == "length":
        length = draw(st.integers(0, 2**16 - 1))
    elif corruption == "drop":
        del fields[draw(st.sampled_from(sorted(fields)))]
    elif corruption == "retype":
        fields[draw(st.sampled_from(sorted(fields)))] = draw(JSON_VALUES)
    elif corruption == "text":
        header = draw(st.text(max_size=40))
    elif corruption == "nesting":
        header = "(" * draw(st.integers(1, 2000))
    return npy_bytes(repr(fields) if header is None else header, data, version, length)


class TestNpyLoaders:
    @staticmethod
    def _load_each(path) -> None:
        try:
            state = load_state_file(path)
        except ValueError:
            pass
        else:
            assert isinstance(state, StateVector) and 1 <= state.n_qubits <= 20
        try:
            samples = load_samples_file(path)
        except ValueError:
            return
        assert type(samples) is np.ndarray and samples.dtype == float and samples.ndim == 1
        assert 2 <= samples.size <= 2**20 and samples.size & (samples.size - 1) == 0

    @FUZZ
    @given(st.one_of(st.binary(max_size=200), st.binary(max_size=120).map(lambda b: b"\x93NUMPY" + b),
                     st.binary(max_size=120).map(lambda b: b"PK\x03\x04" + b)))
    def test_arbitrary_bytes(self, tmp_path, content):
        path = tmp_path / "data.npy"
        path.write_bytes(content)
        self._load_each(path)

    @FUZZ
    @given(npy_files())
    def test_malformed_headers(self, tmp_path, content):
        path = tmp_path / "data.npy"
        path.write_bytes(content)
        self._load_each(path)


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


def _discard(line: str) -> None:
    pass


NUMPY_INTS = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64)
NOT_INTEGERS = st.one_of(st.booleans(), st.floats(), st.sampled_from(
    [np.bool_(True), np.bool_(False), 2.0, np.float64(3.0), np.float32(1.0), 2 + 0j, "3", None]))
# per argument: its name in messages, the integers drawn for it, and the call on it, made comparable
INTEGER_ARGUMENTS = {
    "basis_state-n": ("n", (-3, 12), lambda v: basis_state(v).amps.tolist()),
    "basis_state-index": ("index", (-3, 10), lambda v: basis_state(3, v).amps.tolist()),
    "amplitude-index": ("index", (-3, 10), lambda v: amplitude(build_partial_sum_circuit(5, 3), basis_state(3, 4), v)),
    "sample_measurements-shots": ("shots", (-3, 2**64), lambda v: sample_measurements(StateVector([0.5] * 4), v, 7)),
    "decompose-M": ("M", (-3, 2**70), lambda v: decompose(v, 80)),
    "decompose-n": ("n", (-3, 12), lambda v: decompose(5, v)),
    "build_partial_sum_circuit-M": ("M", (-3, 40), lambda v: build_partial_sum_circuit(v, 5)),
    "IntegrationSpec-n": ("n", (-3, 12), lambda v: integrate_midpoint(IntegrationSpec(v, 100, np.ones(128)))),
    "midpoints-n": ("n", (-3, 12), lambda v: midpoints(v).tolist()),
    "brute_force_partial_sum-M": ("M", (-3, 10), lambda v: brute_force_partial_sum(np.arange(8.0), v)),
    "sample_measurements-seed": ("seed", (-3, 2**64), lambda v: sample_measurements(StateVector([0.5] * 4), 100, v)),
    # a narrow numpy index wrapped 2**t in the sweep, and a bool control value indexed as a mask
    "Gate-target": ("target", (-3, 13), lambda v: apply_circuit(Circuit(12, (h(v),)), basis_state(12)).amps.tolist()),
    "Gate-control": ("control", (-3, 13), lambda v: apply_circuit(
        Circuit(12, (x(11, control=v),)), basis_state(12, 2**11 - 1)).amps.tolist()),
    "Gate-control_value": ("control_value", (-3, 3), lambda v: apply_circuit(
        Circuit(2, (x(0, control=1, control_value=v),)), basis_state(2, 2)).amps.tolist()),
    # the sweep at n-max 2 or 3, its report discarded
    "run_sweep-n_max": ("n-max", (-3, 3), lambda v: verify.run_sweep(v, 2, report=_discard)),
    "run_sweep-weighted_trials": ("weighted-trials", (-3, 1100), lambda v: verify.run_sweep(2, v, report=_discard)),
    "run_sweep-seed": ("seed", (-3, 2**64), lambda v: verify.run_sweep(2, 2, v, report=_discard)),
}


@st.composite
def integer_like(draw, lo: int, hi: int):
    """An integer in [lo, hi], as a Python int or as a numpy integer type that holds it, or a non-integer."""
    value = draw(st.integers(lo, hi))
    kinds = [int] + [t for t in NUMPY_INTS if np.iinfo(t).min <= value <= np.iinfo(t).max]
    return draw(st.one_of(st.sampled_from(kinds).map(lambda kind: kind(value)), NOT_INTEGERS))


def _result_or_message(call, value):
    try:
        return call(value)
    except ValueError as error:
        return str(error)


class TestIntegerArguments:
    @pytest.mark.parametrize("name, bounds, call", INTEGER_ARGUMENTS.values(), ids=list(INTEGER_ARGUMENTS))
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_numpy_integers_act_as_ints_and_others_are_refused(self, name, bounds, call, data):
        # a numpy integer gives what the same Python int gives, result or message; a bool, float, complex,
        # string or None raises ValueError naming the argument
        value = data.draw(integer_like(*bounds))
        assume(value is not None or name != "control")  # a control of None is a gate with no control
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            assert _result_or_message(call, value) == _result_or_message(call, int(value))
        else:
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                call(value)

    @pytest.mark.parametrize("kind", NUMPY_INTS)
    def test_narrow_numpy_n_integrates_like_a_python_int(self, kind):
        # 2**np.int8(7) wraps to -128, which once negated the integral: -0.78125
        want = integrate_midpoint(IntegrationSpec(7, 100, np.ones(128)))
        assert integrate_midpoint(IntegrationSpec(kind(7), 100, np.ones(128))) == want == pytest.approx(0.78125)


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
