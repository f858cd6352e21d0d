import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import npy_bytes, npy_header, plateau_amplitudes, random_state

import ampsum
from ampsum import cli, verify
from ampsum.apps import midpoints
from ampsum.build import build_partial_sum_circuit
from ampsum.cli import main
from ampsum.core import StateVector
from ampsum.formats import circuit_from_text, dump_state_file
from ampsum.simulate import sample_measurements

GOLDEN = Path(__file__).parent / "golden"  # byte-exact stdout of fixed commands


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

    def test_weight_range_error_names_the_file(self, tmp_path, capsys):
        weights = tmp_path / "w.json"
        weights.write_text("[1.5, 0.2]")
        assert main(["build", "--m", "13", "--n", "4", "--weights", str(weights)]) == 2
        assert capsys.readouterr() == ("", f"error: {weights}: weights must lie in [-1, 1], got 1.5\n")

    @pytest.mark.parametrize("argv", [["build", "--m", "8", "--n", "3"], ["sum", "--state", "STATE", "--m", "8"]])
    def test_power_of_two_takes_an_empty_weights_file(self, tmp_path, plateau_file, capsys, argv):
        weights = tmp_path / "w.json"
        weights.write_text("[]")
        argv = [plateau_file if a == "STATE" else a for a in argv]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--weights", str(weights)]) == 0
        assert capsys.readouterr() == plain
        weights.write_text("[0.5]")
        assert main(argv + ["--weights", str(weights)]) == 2
        assert capsys.readouterr() == ("", "error: M=8 needs exactly 0 weights, got 1\n")

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["build", "--m", "4", "--n", "2", "--bogus"]) == 2


class TestRepeatedCalls:
    M6_LISTING = "qubits 3\nctrl 2 0 h 1\nry 1.9106332362490186 2\nh 0\nx 2\ngates 4\ndepth 3\n"

    def test_build_flags_do_not_leak_into_the_next_call(self, tmp_path, capsys):
        weights = tmp_path / "w.json"
        weights.write_text("[-0.25]")
        assert main(["build", "--m", "6", "--n", "3", "--weights", str(weights), "--format", "qasm"]) == 0
        assert capsys.readouterr().out.startswith("OPENQASM 3.0;")
        assert main(["build", "--m", "6", "--n", "3"]) == 0
        assert capsys.readouterr().out == self.M6_LISTING

    def test_sum_weights_do_not_leak_into_the_next_call(self, tmp_path, plateau_file, capsys):
        weights = tmp_path / "w.json"
        weights.write_text("[0.5]")
        assert main(["sum", "--state", plateau_file, "--m", "10", "--weights", str(weights)]) == 0
        weighted = capsys.readouterr().out
        assert main(["sum", "--state", plateau_file, "--m", "10"]) == 0
        assert capsys.readouterr().out == "c0 = 0.428031164891827 0\nS_M = 1.35355339059327 0\n" != weighted

    def test_a_failed_parse_leaves_the_parser_usable(self, capsys):
        assert main(["build", "--m", "6", "--bogus"]) == 2
        assert main(["build", "--m", "6", "--n", "3"]) == 0
        assert capsys.readouterr().out == self.M6_LISTING

    @pytest.mark.parametrize("argv, run", [
        (["build", "--m", "6", "--n", "3"], cli._cmd_build),
        (["sum", "--state", "F", "--m", "2"], cli._cmd_sum),
        (["integrate", "--m", "2"], cli._cmd_integrate),
        (["verify", "--n-max", "2"], cli._cmd_verify),
    ])
    def test_each_subcommand_names_its_handler_in_its_parser(self, argv, run):
        assert cli._build_parser().parse_args(argv).run is run

    def test_parser_is_built_once_and_not_at_import(self):
        assert cli._build_parser() is cli._build_parser()
        run = subprocess.run([sys.executable, "-c", "import ampsum.cli as c; print(c._build_parser.cache_info().currsize)"],
                             capture_output=True, text=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ampsum.__file__))))
        assert (run.returncode, run.stdout) == (0, "0\n")


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

    @pytest.mark.parametrize("scale, flow", [(1e-200, "underflows"), (1e200, "overflows")])
    @pytest.mark.parametrize("command", ["sum", "integrate"])
    def test_vector_whose_squared_norm_leaves_float64_exits_two(self, tmp_path, capsys, scale, flow, command):
        # finite and non-zero, but its squared norm is 0 or inf; the overflow once printed a RuntimeWarning
        path = tmp_path / "v.json"
        if command == "sum":
            path.write_text(json.dumps({"n": 2, "amplitudes": [[scale, 0]] * 4, "normalized": False}))
            argv = ["sum", "--state", str(path), "--m", "2"]
        else:
            path.write_text(json.dumps([scale] * 4))
            argv = ["integrate", "--samples", str(path), "--m", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        message = f"error: cannot normalize an amplitude vector whose squared norm {flow} float64\n"
        assert capsys.readouterr() == ("", message)

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

    @pytest.mark.parametrize("argv", [
        ["sum", "--state", "FILE", "--m", "2"],
        ["integrate", "--samples", "FILE", "--m", "2"],
        ["build", "--m", "5", "--n", "3", "--weights", "FILE"],
    ])
    def test_deeply_nested_json_exits_two(self, tmp_path, capsys, argv):
        # this once ended in a RecursionError traceback with exit 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main([str(path) if a == "FILE" else a for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: JSON nested too deeply to decode\n")


class TestNpyFiles:
    def test_npy_and_json_state_print_the_same_sum(self, tmp_path, capsys):
        state = random_state(np.random.default_rng(7), 10)
        outputs = []
        for name in ("state.json", "state.npy"):
            dump_state_file(state, tmp_path / name)
            for extra in ([], ["--weights", str(tmp_path / "w.json")]):
                (tmp_path / "w.json").write_text("[0.25, -0.75, 0.5]")
                assert main(["sum", "--state", str(tmp_path / name), "--m", "593", *extra]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:] and outputs[0] != outputs[1]

    def test_npy_and_json_samples_print_the_same_estimate(self, tmp_path, capsys):
        samples = np.random.default_rng(8).uniform(-1.0, 2.0, size=2**9)
        np.save(tmp_path / "s.npy", samples)
        (tmp_path / "s.json").write_text(json.dumps(samples.tolist()))
        outputs = []
        for name in ("s.json", "s.npy"):
            assert main(["integrate", "--samples", str(tmp_path / name), "--m", "301"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].startswith("estimate = ")

    @pytest.mark.parametrize("argv, dtypes", [
        (["sum", "--state", "FILE", "--m", "2"], "complex128 or float64"),
        (["integrate", "--samples", "FILE", "--m", "2"], "float64"),
    ])
    def test_bad_npy_file_exits_two(self, tmp_path, capsys, argv, dtypes):
        path = tmp_path / "bad.npy"
        path.write_bytes(npy_bytes(npy_header((4,), "|O")))
        assert main([str(path) if a == "FILE" else a for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: expected a 1-D {dtypes} array, got object of shape (4,)\n")

    @pytest.mark.parametrize("command", ["sum --state FILE --m 2", "integrate --samples FILE --m 2"])
    @pytest.mark.parametrize("header, message", [
        # a plain np.load allocates the 16 TiB this declares and raises MemoryError
        (npy_header((2**40,), "<f8"), "circuit application supports at most 20 qubits, got 40"),
        # mapping this with np.load(mmap_mode="r") kills the process with SIGFPE
        (npy_header((-1,), {}), "expected a 1-D {} array, got [] of shape (-1,)"),
    ])
    def test_header_is_checked_before_any_data_is_read(self, tmp_path, command, header, message):
        path = tmp_path / "header.npy"
        path.write_bytes(npy_bytes(header, b"\0" * 64))
        run = _run_capped([str(path) if a == "FILE" else a for a in command.split()])
        dtypes = "complex128 or float64" if command.startswith("sum") else "float64"
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == f"error: {path}: {message.format(dtypes)}\n"


class TestIntegrateCommand:
    def test_sine_preset(self, capsys):
        assert main(["integrate", "--function", "sin-pi", "--n", "4", "--m", "12"]) == 0
        out = capsys.readouterr().out
        estimate = float(out.splitlines()[0].split("=")[1])
        assert abs(estimate - 0.5442628374252914) <= 1e-12
        assert "exact = " in out and "abs_error = " in out

    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_sine_samples_are_math_sin_bit_for_bit(self, monkeypatch, capsys, n):
        specs = []
        monkeypatch.setattr(cli, "integrate_midpoint", lambda spec: specs.append(spec) or 0.0)
        assert main(["integrate", "--function", "sin-pi", "--n", str(n), "--m", "3"]) == 0
        expected = np.array([math.sin(math.pi * t) for t in midpoints(n)])
        assert specs[0].samples.tobytes() == expected.tobytes()

    def test_sine_preset_at_twenty_qubits_is_pinned(self, capsys):
        # abs_error prints the difference of two nearly equal numbers to 6 digits, so it shows one ulp of
        # the estimate; the estimate itself is pinned against an exactly rounded sum of the samples
        n, m = 20, 700001
        assert main(["integrate", "--function", "sin-pi", "--n", str(n), "--m", str(m)]) == 0
        out = capsys.readouterr().out
        assert out == "estimate = 0.4782490692713783\nexact = 0.4782490692712002\nabs_error = 1.7808e-13\n"
        samples = [math.sin(math.pi * t) for t in midpoints(n)[:m]]
        assert abs(float(out.split()[2]) - math.fsum(samples) / 2**n) <= 2e-15

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

    def test_samples_refuse_n_before_the_file_is_read(self, tmp_path, capsys):
        # --n once went unread with --samples, so --n 40 exited 0
        path = tmp_path / "s.json"
        path.write_text("[1.0, 1.0, 1.0, 1.0]")
        for samples in (path, tmp_path / "missing.json"):
            assert main(["integrate", "--samples", str(samples), "--n", "40", "--m", "2"]) == 2
            assert capsys.readouterr() == ("", "error: --n applies only to --function; a samples file's length sets n\n")
        assert main(["integrate", "--samples", str(path), "--m", "2"]) == 0

    def test_samples_whose_squared_norm_is_subnormal_exit_two(self, tmp_path, capsys):
        # the squared norm 4e-320 is below float64's normal range; it once named a norm of 1.0000055664551362
        path = tmp_path / "s.json"
        path.write_text(json.dumps([1e-160] * 4))
        assert main(["integrate", "--samples", str(path), "--m", "2"]) == 2
        message = "error: cannot normalize an amplitude vector whose squared norm underflows float64\n"
        assert capsys.readouterr() == ("", message)

    def test_bad_sample_count_exits_two(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("[1.0, 1.0, 1.0]")
        assert main(["integrate", "--samples", str(path), "--m", "2"]) == 2

    @pytest.mark.parametrize("name", ["s.json", "s.npy"])
    def test_non_finite_samples_exit_two(self, tmp_path, capsys, name):
        # JSON's NaN token and a .npy inf both load, and IntegrationSpec names them
        path = tmp_path / name
        if name.endswith(".npy"):
            np.save(path, np.array([1.0, np.inf, 1.0, 1.0]))
        else:
            path.write_text("[1.0, NaN, 1.0, 1.0]")
        assert main(["integrate", "--samples", str(path), "--m", "2"]) == 2
        assert capsys.readouterr() == ("", "error: samples must all be finite\n")


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


class TestClosedStdout:
    def test_reader_that_stops_after_one_line_is_not_bad_input(self):
        # ``ampsum build ... | head -1``: 400 KB of circuit text outgrows the pipe buffer, so the child
        # is still writing when the reader closes; it once exited 2 with "error: [Errno 32] Broken pipe"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ampsum.__file__)))
        argv = ["build", "--m", str((2**10000 - 1) // 3), "--n", "10000"]
        with subprocess.Popen([sys.executable, "-m", "ampsum.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            assert child.stdout.readline() == b"qubits 10000\n"
            child.stdout.close()
            stderr = child.stderr.read()
            assert child.wait(timeout=20) == 1
        assert stderr == b""  # no error line, and no "Exception ignored" at shutdown

    def test_in_process_call_with_a_string_stdout(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["build", "--m", "3", "--n", "2"]) == 0
        assert out.getvalue().endswith("gates 3\ndepth 3\n")


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

    def test_negative_seed_is_refused_before_any_draw(self, capsys):
        assert main(["verify", "--n-max", "2", "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: seed must be non-negative, got -1\n")

    @pytest.mark.parametrize("n_max", [7, 8])  # from n = 8, first_rows' batches take the blocked step
    def test_default_sweep_output_is_pinned(self, capsys, n_max):
        # stdout stays byte-identical for fixed arguments; the check count fails if a refactor drops or adds a check
        assert main(["verify", "--n-max", str(n_max)]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / f"verify_n_max_{n_max}.txt").read_bytes()

    @pytest.mark.parametrize("seed", ["106", "179"])
    def test_seeds_that_failed_three_sigma_pass(self, capsys, seed):
        # a correct sampler failed the old 3-sigma check at 10**6 shots for these seeds
        assert main(["verify", "--n-max", "2", "--seed", seed]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_sampling_check_catches_a_small_bias(self, capsys, monkeypatch):
        # 1e-3 is below the old check's detectable deviation (1.16e-3) and above the new one's (4.8e-4)
        def biased(state, shots, seed):
            counts = sample_measurements(state, shots, seed)
            counts[0] += shots // 1000
            return counts

        monkeypatch.setattr(verify, "sample_measurements", biased)
        assert main(["verify", "--n-max", "2", "--weighted-trials", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("FAIL (M=10, n=4, sampling-five-sigma, max deviation ")
        assert lines[-1].endswith(" checks, 1 failures")


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
