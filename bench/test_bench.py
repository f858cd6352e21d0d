"""Tests of the benchmark itself: tracing, the correctness gate, the contract.

Run from the repository root with ``python3 -m pytest bench``.  They use
small registers, so they take seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import harness
import run
from tracing import MODULES, Tracer
from workloads import WORKLOADS, CliFiles, Readout20q, VerifySweep, weighted_row

SMALL_BUILDS = ((4, "text", False), (5, "qasm", True), (5, "text", True))


@pytest.fixture()
def mods():
    return harness.import_ampsum()


def _install(tracer: Tracer, mods) -> None:
    tracer.install(mods.package, {m: getattr(mods, m) for m in MODULES})


def _namespaces(mods) -> dict:
    return {(mod.__name__, name): obj
            for mod in (mods.package, *(getattr(mods, m) for m in MODULES))
            for name, obj in vars(mod).items()}


def _readout(mods, seed=3) -> Readout20q:
    workload = Readout20q(seed, Path("."), ns=(4, 5, 6))
    workload.bind(mods)
    return workload


def _cli(mods, tmp_path, seed=3) -> CliFiles:
    workload = CliFiles(seed, tmp_path, sum_ns=(4, 6), weighted_sum_ns=(5,), sample_ns=(4,),
                        builds=SMALL_BUILDS)
    workload.bind(mods)
    return workload


def _traced(workload, mods, rounds=2) -> tuple[Tracer, harness.Phase]:
    tracer = Tracer()
    phase = harness.Phase(tracer)
    ops = workload.round_ops()
    _install(tracer, mods)
    try:
        for _ in range(rounds):
            phase.run_round(ops)
    finally:
        tracer.remove()
    return tracer, phase


def test_remove_restores_every_name(mods):
    before = _namespaces(mods)
    tracer = Tracer()
    _install(tracer, mods)
    # names imported from another module are wrapped where they are looked up
    for wrapped in (mods.verify.extract_unitary, mods.apps.apply_circuit,
                    mods.cli.build_partial_sum_circuit, mods.package.partial_sum_via_circuit):
        assert getattr(wrapped, "__wrapped_by_bench__", False)
    assert not hasattr(mods.apps._apply_gate, "__wrapped_by_bench__")
    tracer.remove()
    after = _namespaces(mods)
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())

    # the next, untraced run records nothing, even with the old tracer active
    tracer.start()
    phase = harness.Phase()
    phase.run_round(_readout(mods).round_ops())
    assert tracer.spans == [] and phase.failed == 0


def test_gate_flags_wrong_reference_without_aborting(mods, tmp_path):
    workload = _readout(mods)
    phase = harness.Phase()
    phase.run_round(workload.round_ops())
    assert (phase.attempted, phase.failed) == (24, 0)

    workload.amps[5] = workload.amps[5] + 1e-6  # the program keeps the true state
    phase = harness.Phase()
    phase.run_round(workload.round_ops())
    assert (phase.attempted, phase.failed) == (24, 7)
    kinds = [op.kind for op in workload.round_ops()]
    assert [k for k, lat in zip(kinds, phase.best_latencies()) if math.isinf(lat)] == \
        [k for k in kinds if k.endswith(".n5") and not k.startswith("integrate")]


def test_cli_gate_flags_wrong_values_and_raising_ops(mods, tmp_path):
    workload = _cli(mods, tmp_path)
    phase = harness.Phase()
    phase.run_round(workload.round_ops())
    assert (phase.attempted, phase.failed) == (len(workload.commands), 0)

    kind, argv, ref = workload.commands[0]
    workload.commands[0] = (kind, argv, ref + 1e-6)
    workload.commands[-1] = (workload.commands[-1][0], ["build", "--m", "999", "--n", "4",
                                                        "--out", str(tmp_path / "x.txt")],
                             workload.commands[-1][2])
    phase = harness.Phase()
    phase.run_round(workload.round_ops())
    assert phase.attempted == len(workload.commands)
    assert phase.failed == 2  # the wrong sum, and the build that raised on a missing file


def test_verify_gate_counts_checks(mods):
    workload = VerifySweep(5, Path("."))
    workload.bind(mods)
    phase = harness.Phase()
    op = workload.first_op()
    phase.tally(op, op.run(), None, 0.0)
    lines = []
    mods.verify.run_sweep(3, weighted_trials=2, seed=5, report=lines.append)
    assert lines[-1] == f"ran {phase.attempted} checks, 0 failures"
    assert phase.failed == 0 and phase.extras[0]["verify.checks"] == phase.attempted
    assert set(phase.extras[0]) == {"verify.checks", "verify.level_s.n2", "verify.level_s.n3"}


@pytest.mark.parametrize("make", [_readout, _cli])
def test_self_times_add_up_to_traced_wall(mods, tmp_path, make):
    workload = make(mods, tmp_path) if make is _cli else make(mods)
    tracer, phase = _traced(workload, mods)
    assert phase.failed == 0
    selfs = tracer.self_times()
    assert min(selfs.values()) >= -1e-9
    loop = sum(phase.walls) - tracer.op_time()
    assert loop >= 0
    assert sum(selfs.values()) + loop == pytest.approx(sum(phase.walls), rel=1e-9, abs=1e-9)
    ops = {span[2] for span in tracer.spans}
    assert len(ops) == sum(len(row) for row in phase.latencies)  # one op id per operation


def test_counts_repeat_exactly(mods, tmp_path):
    first, _ = _traced(_cli(mods, tmp_path), mods)
    again, _ = _traced(_cli(mods, tmp_path), mods)
    assert first.counts == again.counts
    assert first.counts["cli.calls"] == 2 * len(_cli(mods, tmp_path).commands)
    assert first.counts["formats.bytes_written"] > 0
    readout, _ = _traced(_readout(mods), mods)
    assert readout.counts == _traced(_readout(mods), mods)[0].counts
    kinds = sum(v for k, v in readout.counts.items() if k.startswith("simulate.apply.gates."))
    assert kinds == readout.counts["simulate.apply.gates"]


def test_per_layer_emits_every_declared_metric(mods):
    workload = _readout(mods)
    untraced = harness.Phase()
    for _ in range(2):
        untraced.run_round(workload.round_ops())
    tracer, traced = _traced(workload, mods)
    metrics = harness.per_layer(tracer, untraced, untraced, traced, {})
    assert set(harness.PER_LAYER) <= set(metrics)
    assert metrics["apps.tensor.calls"] == 6 and metrics["simulate.apply.calls"] == 18


def test_weighted_reference_matches_oracle(mods):
    rng = np.random.default_rng(0)
    for m, n in ((13, 4), (45, 6), (5, 3)):
        b = rng.uniform(-1, 1, size=bin(m).count("1") - 1)
        expected = mods.oracle.predicted_first_row(m, n, mods.build.WeightSpec(tuple(b)))
        assert np.allclose(weighted_row(m, n, b), expected, atol=1e-15)


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == harness.END_TO_END
    assert {e["name"]: e["unit"] for e in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-files",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_module_list_matches_package(mods):
    found = {name for name, obj in vars(mods.package).items()
             if isinstance(obj, types.ModuleType) and obj.__name__.startswith("ampsum.")}
    assert found == set(MODULES)
