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


def test_a_deprecation_raised_from_ampsum_code_fails_the_suite():
    # pyproject.toml turns a DeprecationWarning attributed to an ampsum module into an error
    with pytest.raises(DeprecationWarning):
        exec("import warnings\nwarnings.warn('probe', DeprecationWarning)", {"__name__": "ampsum.probe"})
