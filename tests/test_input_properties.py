"""Property tests on the input surfaces: circuit text, the JSON loaders and the M range.

Each surface either returns a valid object or raises ``ValueError`` (which the CLI turns into
exit 2), whatever it is given, and declared register sizes far past any state cost nothing.
``derandomize=True`` makes every run draw the same examples.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ampsum.build import WeightSpec, decompose
from ampsum.core import Circuit, StateVector
from ampsum.formats import circuit_from_text, load_samples_file, load_state_file, load_weights_file

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
