"""The benchmark harness: one workload per run, as a single-process closed loop.

``run.py`` parses the arguments and calls ``run``.  One caller issues each
op and waits for its result; the benchmark starts no threads or processes.
Inputs come from the seed alone.  Every output is checked against an
independent numpy reference outside the timed region; a wrong or raising op
counts as failed and as missing every latency figure, and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced, then two pairs of rounds, untraced and then with every
public ampsum function wrapped (see ``tracing.py``), then the kernel probe,
and reports the per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name and unit, the fail ratio and the
environment stamp, which also go to ``bench/out/<workload>-trace<k>.json``.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from probe import CONTROLS, GBPS_N, KINDS, PROBE_NS, kernel_probe
from tracing import MODULES, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS = 7       # set-up is timed this many times; the median is reported
MIN_ROUNDS = 3       # every run times at least this many rounds and reports the best
TRACED_ROUNDS = 2    # rounds re-run under tracing; per-layer values are per round

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_APPS = ("partial_sum", "even_odd", "tensor", "integrate")
PER_LAYER = {
    "bench.self_s": "s",
    "core.state.self_s": "s",
    "core.state.calls": "count",
    "build.self_s": "s",
    "build.calls": "count",
    "build.us_per_call": "us",
    "build.gates": "count",
    "oracle.self_s": "s",
    "oracle.calls": "count",
    "simulate.unitary.self_s": "s",
    "simulate.unitary.calls": "count",
    "simulate.unitary.rows_built": "count",
    "simulate.unitary.gates": "count",
    "simulate.apply.self_s": "s",
    "simulate.apply.calls": "count",
    "simulate.apply.gates": "count",
    "simulate.apply.us_per_gate": "us",
    **{f"simulate.apply.gates.{k}.{c}": "count" for k in KINDS for c in CONTROLS},
    f"simulate.apply.fixed_ms.n{GBPS_N}": "ms",
    "simulate.sample.self_s": "s",
    **{f"apps.{a}.{s}": u for a in _APPS for s, u in (("self_s", "s"), ("calls", "count"))},
    "formats.load_state.self_s": "s",
    "formats.load_state.mb_per_s": "MB/s",
    "formats.load_other.self_s": "s",
    "formats.parse.self_s": "s",
    "formats.emit.self_s": "s",
    "formats.write.self_s": "s",
    "formats.bytes_read": "B",
    "formats.bytes_written": "B",
    "cli.self_s": "s",
    "cli.calls": "count",
    "cli.exit_nonzero": "count",
    "verify.self_s": "s",
    "verify.checks": "count",
    **{f"verify.level_s.n{n}": "s" for n in range(2, 8)},
    **{f"kernel.us_per_gate.{k}.{c}.n{n}": "us" for k in KINDS for c in CONTROLS for n in PROBE_NS},
    **{f"kernel.gbps_computed.{k}.{c}.n{GBPS_N}": "GB/s" for k in KINDS for c in CONTROLS},
    "trace.overhead_ratio": "ratio",
}


# -- environment -------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu() -> tuple[str, dict[str, str]]:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    return model, caches


def env_stamp(seed: int) -> dict:
    model, caches = _cpu()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset (library default)")
                         for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


# -- import and loop ---------------------------------------------------------


def import_ampsum() -> SimpleNamespace:
    """Import ampsum and its modules afresh from the checkout's ``src/``."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [k for k in sys.modules if k == "ampsum" or k.startswith("ampsum.")]:
        del sys.modules[name]
    package = importlib.import_module("ampsum")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "ampsum":
        raise ImportError(f"ampsum imported from {package.__file__}, not from src/")
    return SimpleNamespace(package=package,
                           **{m: importlib.import_module(f"ampsum.{m}") for m in MODULES})


class Phase:
    """Rounds of ops timed as a closed loop, with their correctness tally.

    With a tracer, each round records spans (the tracer's wrappers must be
    installed by the caller) and each op gets its own ``bench.op`` span.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.walls: list[float] = []
        self.latencies: list[list[float]] = []  # [round][op]; a failed op reads inf
        self.attempted = 0
        self.failed = 0
        self.extras: list[dict] = []

    def run_round(self, ops) -> None:
        results = []
        call = self.tracer.run_op if self.tracer else (lambda fn: fn())
        if self.tracer:
            self.tracer.start()
        start = time.perf_counter()
        for op in ops:
            began = time.perf_counter()
            try:
                out, err = call(op.run), None
            except Exception:
                out, err = None, traceback.format_exc()
            results.append((op, out, err, time.perf_counter() - began))
        self.walls.append(time.perf_counter() - start)
        if self.tracer:
            self.tracer.stop()
        self.latencies.append([self.tally(*result) for result in results])

    def tally(self, op, out, err, latency) -> float:
        """Check one op's output; returns its latency, or inf if it failed."""
        if err is None:
            try:
                attempted, failed, extra = op.check(out)
            except Exception:
                err = traceback.format_exc()
        if err is not None:
            print(f"op {op.kind} raised:\n{err}", file=sys.stderr)
            attempted, failed, extra = 1, 1, {}
        elif failed:
            print(f"op {op.kind} gave a wrong result", file=sys.stderr)
        self.attempted += attempted
        self.failed += failed
        self.extras.append(extra)
        return math.inf if failed else latency

    def best_latencies(self) -> list[float]:
        """Each op's best latency over the rounds; inf if it ever failed."""
        return [math.inf if math.inf in col else min(col) for col in zip(*self.latencies)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def setup(workload) -> tuple[SimpleNamespace, list[float], Phase]:
    """Import ampsum, bind the inputs and run the first op, SETUP_REPS times."""
    times = []
    first = Phase()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        mods = import_ampsum()
        workload.bind(mods)
        op = workload.first_op()
        try:
            out, err = op.run(), None
        except Exception:
            out, err = None, traceback.format_exc()
        times.append(time.perf_counter() - start)
        first.tally(op, out, err, times[-1])
    return mods, times, first


def run_for(phase: Phase, ops, seconds: float, min_rounds: int) -> None:
    """Repeat the round until ``seconds`` of round time and ``min_rounds`` rounds."""
    while len(phase.walls) < min_rounds or sum(phase.walls) < seconds:
        phase.run_round(ops)


# -- metrics -----------------------------------------------------------------


def end_to_end(phase: Phase, setup_times: list[float]) -> dict[str, float]:
    best = min(phase.walls)
    latencies = phase.best_latencies()
    return {
        "wall_s": best,
        "ops_per_s": (phase.attempted - phase.failed) / len(phase.walls) / best,
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(tracer: Tracer, untraced: Phase, paired: Phase, traced: Phase,
              probe: dict) -> dict[str, float]:
    """Per-round layer numbers of the traced rounds; ``paired`` holds the
    untraced round run just before each traced one."""
    rounds = len(traced.walls)
    out = dict.fromkeys(PER_LAYER, 0.0)
    selfs = tracer.self_times()
    selfs["bench"] = selfs.pop("bench.op", 0.0) + sum(traced.walls) - tracer.op_time()
    out.update({f"{layer}.self_s": t / rounds for layer, t in selfs.items()})
    out.update({key: c / rounds for key, c in tracer.counts.items()})
    extras = [e for e in untraced.extras if e]
    for key in sorted({k for e in extras for k in e}):
        out[key] = min(e[key] for e in extras if key in e)
    out.update(probe)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["build.us_per_call"] = ratio(out["build.self_s"] * 1e6, out["build.calls"])
    out["simulate.apply.us_per_gate"] = ratio(out["simulate.apply.self_s"] * 1e6,
                                              out["simulate.apply.gates"])
    out["formats.load_state.mb_per_s"] = ratio(tracer.counts["formats.load_state.bytes"] / 1e6,
                                               tracer.duration("formats.load_state"))
    out["trace.overhead_ratio"] = sum(traced.walls) / sum(paired.walls)
    return out


# -- main --------------------------------------------------------------------


def _print_metrics(metrics: dict[str, float], units: dict[str, str]) -> None:
    width = max(len(k) for k in units)
    for name, unit in units.items():
        print(f"{name:<{width}}  {metrics[name]:>14.6g}  {unit}")


def run(args) -> int:
    """Run ``args.workload`` for ``args.seconds``; returns the exit code."""
    if not (ROOT / "src" / "ampsum" / "__init__.py").is_file():
        print(f"error: no ampsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    stamp = env_stamp(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        mods, setup_times, first = setup(workload)
        ops = workload.round_ops()
        untraced = Phase()
        if not args.trace:
            run_for(untraced, ops, args.seconds, MIN_ROUNDS)
            metrics, units = end_to_end(untraced, setup_times), END_TO_END
            phases = (first, untraced)
        else:
            run_for(untraced, ops, args.seconds / 2, TRACED_ROUNDS)
            # Each traced round follows an untraced one, so the pair sees the
            # same machine and their ratio is the tracing overhead.
            tracer = Tracer()
            traced, paired = Phase(tracer), Phase()
            for _ in range(TRACED_ROUNDS):
                paired.run_round(ops)
                tracer.install(mods.package, {m: getattr(mods, m) for m in MODULES})
                try:
                    traced.run_round(ops)
                finally:
                    tracer.remove()
            probe = kernel_probe(mods, args.seed)
            metrics, units = per_layer(tracer, untraced, paired, traced, probe), PER_LAYER
            phases = (first, untraced, paired, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    latencies = untraced.best_latencies()
    print(f"ampsum bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={len(untraced.walls)}")
    print("env " + json.dumps(stamp, sort_keys=True))
    _print_metrics(metrics, units)
    print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"latency: best of {len(untraced.walls)} rounds for each of {len(latencies)} ops, "
          f"{sum(v > percentile(latencies, 90) for v in latencies)} beyond p90")
    best_ms = {op.kind: [] for op in ops}
    for op, latency in zip(ops, latencies):
        best_ms[op.kind].append(latency * 1e3)
    print("best op ms by kind: " + ", ".join(
        f"{k} {'/'.join(f'{v:.4g}' for v in vs)}" for k, vs in sorted(best_ms.items())))
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": stamp, "attempted": attempted, "failed": failed,
              "best_op_ms_by_kind": best_ms, "round_walls_s": untraced.walls,
              "metrics": {k: {"value": v, "unit": units.get(k, "")}
                          for k, v in sorted(metrics.items())}}
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(OUT_DIR / f"{args.workload}-spans.csv")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0

