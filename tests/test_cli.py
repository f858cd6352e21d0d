import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from conftest import plateau_amplitudes

import ampsum
from ampsum.build import build_partial_sum_circuit
from ampsum.cli import main
from ampsum.core import StateVector
from ampsum.formats import circuit_from_text, dump_state_file


@pytest.fixture
def plateau_file(tmp_path):
    path = tmp_path / "plateau.json"
    dump_state_file(StateVector(plateau_amplitudes()), path)
    return str(path)


class TestBuildCommand:
    def test_text_listing_to_stdout(self, capsys):
        assert main(["build", "--m", "6", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "qubits 3\n"
            "ctrl 2 0 h 1\n"
            "ry 1.9106332362490186 2\n"
            "h 0\n"
            "x 2\n"
            "gates 4\n"
            "depth 3\n"
        )

    def test_power_of_two_listing(self, capsys):
        assert main(["build", "--m", "8", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "h 0\nh 1\nh 2\n" in out
        assert "gates 3" in out

    def test_out_file_parses_back(self, tmp_path, capsys):
        out_file = tmp_path / "c.txt"
        assert main(["build", "--m", "13", "--n", "4", "--out", str(out_file)]) == 0
        parsed = circuit_from_text(out_file.read_text())
        assert parsed == build_partial_sum_circuit(13, 4)
        stdout = capsys.readouterr().out
        assert "gates 7" in stdout and "depth 6" in stdout

    def test_qasm_format(self, capsys):
        assert main(["build", "--m", "13", "--n", "4", "--format", "qasm"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OPENQASM 3.0;")
        assert "// gate count before negative-control lowering: 7" in out

    def test_weighted_build(self, tmp_path, capsys):
        weights = tmp_path / "w.json"
        weights.write_text("[0.5, 0.5]")
        assert main(["build", "--m", "13", "--n", "4", "--weights", str(weights)]) == 0
        assert "gates 7" in capsys.readouterr().out

    def test_out_of_range_m_exits_two(self, capsys):
        assert main(["build", "--m", "20", "--n", "4"]) == 2
        assert "2 <= M <= 2**n" in capsys.readouterr().err

    def test_wrong_weight_count_exits_two(self, tmp_path, capsys):
        weights = tmp_path / "w.json"
        weights.write_text("[0.5]")
        assert main(["build", "--m", "13", "--n", "4", "--weights", str(weights)]) == 2
        assert "needs exactly 2 weights" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["build", "--m", "4", "--n", "2", "--bogus"]) == 2


class TestSumCommand:
    def test_plateau_m10(self, plateau_file, capsys):
        assert main(["sum", "--state", plateau_file, "--m", "10"]) == 0
        out = capsys.readouterr().out
        expect = format(1.0 + 1.0 / math.sqrt(8.0), ".15g")
        assert f"S_M = {expect} " in out

    def test_plateau_m13(self, plateau_file, capsys):
        assert main(["sum", "--state", plateau_file, "--m", "13"]) == 0
        out = capsys.readouterr().out
        expect = format(1.0 + 1.0 / math.sqrt(2.0) + 1.0 / math.sqrt(8.0), ".15g")
        assert f"S_M = {expect} " in out
        assert "c0 = " in out

    def test_basis_state_m2(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        doc = {"n": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
        path.write_text(json.dumps(doc))
        assert main(["sum", "--state", str(path), "--m", "2"]) == 0
        assert "S_M = 1 " in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["sum", "--state", str(tmp_path / "nope.json"), "--m", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        ({"n": True, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, "'n'"),
        ({"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]], "normalized": "no"}, "'normalized'"),
        ({"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]], "normalized": 1}, "'normalized'"),
        ({"n": 1, "amplitudes": [["1", 0], [0.0, 0.0]]}, "'amplitudes'"),
        ({"n": 1, "amplitudes": [[1.0, 0.0], [0.0, None]]}, "'amplitudes'"),
        ({"n": 1, "amplitudes": [[1.0, 0.0], None]}, "'amplitudes'"),
        ({"n": 1, "amplitudes": [[1.0, 0.0], [10**400, 0]]}, "'amplitudes'"),
        ({"n": 1, "amplitudes": [[True, False], [False, False]]}, "'amplitudes'"),  # no longer read as |0>
        ({"n": 1, "amplitudes": [[0.5, False], [0.5, 0.5]]}, "'amplitudes'"),
    ])
    def test_malformed_state_file_exits_two(self, tmp_path, capsys, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["sum", "--state", str(path), "--m", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and field in err

    def test_unnormalized_state_file_names_the_norm(self, tmp_path, capsys):
        path = tmp_path / "unnormalized.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[1, 0], [1, 0]]}))
        assert main(["sum", "--state", str(path), "--m", "2"]) == 2
        assert capsys.readouterr().err == "error: state is not normalized: norm is 1.4142135623730951\n"

    @pytest.mark.parametrize("argv, doc", [
        (["sum", "--state", "STATE", "--m", "3", "--weights", "FILE"], [True]),
        (["build", "--m", "5", "--n", "3", "--weights", "FILE"], [False]),
        (["integrate", "--samples", "FILE", "--m", "2"], [1.0, True, 0.5, 0.5]),
    ])
    def test_boolean_in_number_file_exits_two(self, tmp_path, plateau_file, capsys, argv, doc):
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps(doc))
        argv = [{"FILE": str(path), "STATE": plateau_file}.get(a, a) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("argv, kind", [
        (["build", "--m", "5", "--n", "3", "--weights", "FILE"], "weights"),
        (["integrate", "--samples", "FILE", "--m", "2"], "samples"),
    ])
    def test_number_too_large_for_float_exits_two(self, tmp_path, capsys, argv, kind):
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps([10**400, 0.5]))
        assert main([str(path) if a == "FILE" else a for a in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {kind} file holds a number too large for a float\n")


class TestIntegrateCommand:
    def test_sine_preset(self, capsys):
        assert main(["integrate", "--function", "sin-pi", "--n", "4", "--m", "12"]) == 0
        out = capsys.readouterr().out
        estimate = float(out.splitlines()[0].split("=")[1])
        assert abs(estimate - 0.5442628374252914) <= 1e-12
        assert "exact = " in out and "abs_error = " in out

    def test_sine_full_interval(self, capsys):
        assert main(["integrate", "--function", "sin-pi", "--n", "4", "--m", "16"]) == 0
        out = capsys.readouterr().out
        estimate = float(out.splitlines()[0].split("=")[1])
        xs = (2.0 * np.arange(16) + 1.0) / 32.0
        assert abs(estimate - np.sin(np.pi * xs).sum() / 16.0) <= 1e-12

    def test_constant_samples(self, tmp_path, capsys):
        path = tmp_path / "ones.json"
        path.write_text(json.dumps([1.0] * 16))
        assert main(["integrate", "--samples", str(path), "--m", "5"]) == 0
        estimate = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert abs(estimate - 5.0 / 16.0) <= 1e-12

    def test_function_and_samples_conflict(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("[1.0, 1.0]")
        rc = main(["integrate", "--function", "sin-pi", "--n", "2",
                   "--samples", str(path), "--m", "2"])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_function_needs_n(self, capsys):
        assert main(["integrate", "--function", "sin-pi", "--m", "4"]) == 2
        assert "--n" in capsys.readouterr().err

    def test_bad_sample_count_exits_two(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("[1.0, 1.0, 1.0]")
        assert main(["integrate", "--samples", str(path), "--m", "2"]) == 2


def _run_capped(argv: list[str]) -> subprocess.CompletedProcess:
    """``ampsum`` in a child process with 2 GB of address space and 20 s, so code that evaluates or
    allocates something of size 2**n for a huge n fails the test instead of hanging the suite."""
    def cap() -> None:
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard), hard))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ampsum.__file__)),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "ampsum.cli", *argv], capture_output=True, text=True,
                          timeout=20, preexec_fn=cap, env=env)


class TestOversizeRegisters:
    # synthesis costs O(gates) at any n; every input that would need a 2**n state fails with exit 2
    # before anything of that size is evaluated or allocated

    @pytest.mark.parametrize("n", ["40000000000", "1000000000"])
    def test_build_at_any_register_size(self, n):
        run = _run_capped(["build", "--m", "3", "--n", n])
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == (f"qubits {n}\n"
                              "ctrl 1 0 h 0\nry 1.9106332362490186 1\nx 1\ngates 3\ndepth 3\n")

    def test_state_file_declaring_a_huge_n(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 40000000000, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        run = _run_capped(["sum", "--state", str(path), "--m", "2"])
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == f"error: {path}: expected 2**40000000000 amplitude pairs, got 2\n"

    @pytest.mark.parametrize("n", ["40", "22"])
    def test_integrate_stops_at_the_qubit_cap_before_sampling(self, n):
        run = _run_capped(["integrate", "--function", "sin-pi", "--n", n, "--m", "3"])
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == f"error: circuit application supports at most 20 qubits, got {n}\n"

    def test_build_without_qubits(self):
        run = _run_capped(["build", "--m", "3", "--n", "0"])
        assert (run.returncode, run.stdout, run.stderr) == (2, "", "error: need at least one qubit, got n=0\n")

    @pytest.mark.parametrize("n", ["0", "-3", str(-10**400)])
    def test_integrate_needs_a_qubit_before_sampling(self, n):
        # -10**400 once ended in an OverflowError traceback from 2**n, and -3 read "expected 2**-3 samples"
        run = _run_capped(["integrate", "--function", "sin-pi", "--n", n, "--m", "3"])
        assert (run.returncode, run.stdout, run.stderr) == (2, "", f"error: need at least one qubit, got n={n}\n")


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        assert main(["verify", "--n-max", "3", "--weighted-trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_guard_on_large_n_max(self, capsys):
        assert main(["verify", "--n-max", "11"]) == 2
        assert "n-max" in capsys.readouterr().err

    def test_unweighted_only_sweep(self, capsys):
        assert main(["verify", "--n-max", "2", "--weighted-trials", "0"]) == 0

    @pytest.mark.parametrize("trials", ["1024", str(10**12)])
    def test_trial_count_is_capped_before_any_draw(self, capsys, trials):
        # 10**12 trials once ended in a numpy allocation traceback at n = 2
        assert main(["verify", "--n-max", "2", "--weighted-trials", trials]) == 2
        assert capsys.readouterr() == ("", f"error: weighted-trials must be at most 1023, got {trials}\n")
        assert main(["verify", "--n-max", "2", "--weighted-trials", "1023"]) == 0

    def test_default_sweep_output_is_pinned(self, capsys):
        # the check count fails if a refactor drops or adds a check
        assert main(["verify", "--n-max", "7"]) == 0
        assert capsys.readouterr().out == (
            "n=2: swept M=2..4, cumulative failures: 0\n"
            "n=3: swept M=2..8, cumulative failures: 0\n"
            "n=4: swept M=2..16, cumulative failures: 0\n"
            "n=5: swept M=2..32, cumulative failures: 0\n"
            "n=6: swept M=2..64, cumulative failures: 0\n"
            "n=7: swept M=2..128, cumulative failures: 0\n"
            "ran 21486 checks, 0 failures\n"
        )


class TestDeterminism:
    def test_build_output_is_stable(self, capsys):
        main(["build", "--m", "11", "--n", "4"])
        first = capsys.readouterr().out
        main(["build", "--m", "11", "--n", "4"])
        assert capsys.readouterr().out == first

    def test_verify_output_is_stable(self, capsys):
        main(["verify", "--n-max", "2", "--seed", "5"])
        first = capsys.readouterr().out
        main(["verify", "--n-max", "2", "--seed", "5"])
        assert capsys.readouterr().out == first
