"""Design rules checked on the package's syntax trees."""

import ast
from pathlib import Path

import pytest

import ampsum

SOURCES = sorted(Path(ampsum.__file__).parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_uses(path: Path) -> list[str]:
    """Each private name the module imports from, or looks up on, another ampsum module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ampsum")):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                if node.module in (None, "ampsum"):  # ``from . import simulate`` binds a module
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_sources_found():
    assert {"core.py", "simulate.py", "verify.py"} <= {p.name for p in SOURCES}


def test_no_module_imports_another_modules_private_names():
    assert [use for path in SOURCES for use in _private_uses(path)] == []


def test_rule_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .core import Gate, _hidden\nfrom . import simulate\nsimulate._apply_gate\n")
    assert _private_uses(probe) == ["probe.py:1 imports _hidden", "probe.py:3 uses simulate._apply_gate"]


@pytest.mark.parametrize("text", ["at most {MAX_APPLY_QUBITS} qubits", "out of range for"])
def test_each_dense_state_rule_is_raised_from_core_alone(text):
    # the 20-qubit cap and the basis-index range each have one home, in core
    assert [p.name for p in SOURCES if text in p.read_text(encoding="utf-8")] == ["core.py"]


def test_no_rule_refuses_a_power_of_two_m():
    # one cascade builds every M that decompose takes, so no weighted-M rule is left
    assert [p.name for p in SOURCES if "not be a power of two" in p.read_text(encoding="utf-8")] == []


def test_a_deprecation_raised_from_ampsum_code_fails_the_suite():
    # pyproject.toml turns a DeprecationWarning attributed to an ampsum module into an error
    with pytest.raises(DeprecationWarning):
        exec("import warnings\nwarnings.warn('probe', DeprecationWarning)", {"__name__": "ampsum.probe"})


def test_package_exports_are_pinned():
    # __init__ names each export once, in its import; __all__ is derived from those imports
    assert sorted(ampsum.__all__) == [
        "BitDecomposition", "Circuit", "Gate", "GateKind", "IntegrationSpec", "Parity", "StateVector",
        "WeightSpec", "amplitude", "apply_circuit", "basis_state", "brute_force_partial_sum",
        "build_partial_sum_circuit", "build_weighted_circuit", "decompose", "even_odd_partial_sum",
        "expected_gate_count", "extract_unitary", "h", "integrate_midpoint", "midpoints",
        "partial_sum_via_circuit", "predicted_first_row", "ry", "sample_measurements", "segment_boundaries",
        "segment_weights", "state_from_amplitudes", "tensor_weighted_sum", "x",
    ]
    assert all(getattr(ampsum, name).__module__.startswith("ampsum.") for name in ampsum.__all__)


def _bit_length_homes() -> set[str]:
    """Each ``module:function`` that calls ``.bit_length()``, with ``core.py`` as one entry."""
    homes = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute) and node.attr == "bit_length" for node in ast.walk(fn)):
                homes.add(path.name if path.name == "core.py" else f"{path.name}:{fn.name}")
    return homes


def test_lengths_are_read_through_bit_lengths_only_in_their_homes():
    # a length's n comes from core.qubit_count; decompose owns the M range, and load_state_file
    # checks a state file's declared "n" against its pair count
    assert _bit_length_homes() == {"core.py", "build.py:decompose", "formats.py:load_state_file"}


GATE_WORDS = ("h", "x", "ry")


def _gate_word_uses(path: Path) -> list[str]:
    """Each string constant in the module that is a gate word, docstrings excluded."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }
    return [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in GATE_WORDS
            and id(node) not in docstrings]


def test_gate_words_are_spelled_only_in_core():
    # the circuit-text parser and writer go through core.GateKind's values
    assert [use for path in SOURCES if path.name != "core.py" for use in _gate_word_uses(path)] == []
    assert len(_gate_word_uses(Path(ampsum.__file__).parent / "core.py")) == len(GATE_WORDS)


def test_gate_word_rule_skips_docstrings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('"""h"""\ndef f():\n    """x"""\n    return "ry", "rz"\n')
    assert _gate_word_uses(probe) == ["probe.py:4 'ry'"]
