"""In-memory span tracing of ampsum's public functions, from outside the package.

``Tracer.install`` replaces every public function in the namespaces of
``ampsum`` and its eight modules with a wrapper that records a span (id,
parent id, op id, layer, start, end) and a few exact counts.  Names a module
imported from another module, such as ``verify.extract_unitary``, are
wrapped where they are looked up, so the call is traced whichever module
makes it.  Private helpers stay unwrapped: their time is part of the
caller's self time (``apps.tensor`` includes its private gate loop).
``Tracer.remove`` puts every original object back.

A layer's self time is its spans' duration minus the duration of their
direct children.  The benchmark opens one ``bench.op`` span per operation,
so the self times of all spans plus the loop time outside the op spans add
up to the traced wall time.
"""

from __future__ import annotations

import functools
import os
import time
import types
from collections import Counter, defaultdict

MODULES = ("core", "build", "oracle", "simulate", "apps", "formats", "cli", "verify")

# Layer of a wrapped function, keyed "<module>.<function>".  Functions not
# listed fall into "<module>" for the four modules measured as one layer,
# and into "<module>.other" for the rest.
LAYERS = {
    "core.state_from_amplitudes": "core.state",
    "core.basis_state": "core.state",
    "simulate.apply_circuit": "simulate.apply",
    "simulate.extract_unitary": "simulate.unitary",
    "simulate.sample_measurements": "simulate.sample",
    "apps.partial_sum_via_circuit": "apps.partial_sum",
    "apps.even_odd_partial_sum": "apps.even_odd",
    "apps.tensor_weighted_sum": "apps.tensor",
    "apps.integrate_midpoint": "apps.integrate",
    "formats.load_state_file": "formats.load_state",
    "formats.load_weights_file": "formats.load_other",
    "formats.load_samples_file": "formats.load_other",
    "formats.circuit_from_text": "formats.parse",
    "formats.circuit_to_text": "formats.emit",
    "formats.circuit_to_qasm": "formats.emit",
    "formats.lower_negative_controls": "formats.emit",
    "formats.dump_state_file": "formats.emit",  # writes through write_text_atomic
    "formats.write_text_atomic": "formats.write",
}
WHOLE_MODULE_LAYERS = ("build", "oracle", "cli", "verify")

BENCH_OP = "bench.op"


def layer_of(module: str, name: str) -> str:
    key = f"{module}.{name}"
    if key in LAYERS:
        return LAYERS[key]
    return module if module in WHOLE_MODULE_LAYERS else f"{module}.other"


def _polarity(gate) -> str:
    if gate.control is None:
        return "none"
    return "pos" if gate.control_value == 1 else "neg"


def _count(counts: Counter, layer: str, args: tuple, kwargs: dict, result) -> None:
    """Exact work counts for one call; they depend only on the inputs."""
    if layer in ("simulate.apply", "simulate.unitary"):
        circuit = args[0] if args else kwargs["circuit"]
        counts[f"{layer}.gates"] += len(circuit.gates)
        if layer == "simulate.unitary":
            counts["simulate.unitary.rows_built"] += 2**circuit.n_qubits
        else:
            for g in circuit.gates:
                counts[f"simulate.apply.gates.{g.kind.value}.{_polarity(g)}"] += 1
    elif layer == "build" and hasattr(result, "gates"):
        counts["build.gates"] += len(result.gates)
    elif layer.startswith("formats.load_"):
        size = os.path.getsize(args[0] if args else kwargs["path"])
        counts["formats.bytes_read"] += size
        counts[f"{layer}.bytes"] += size
    elif layer == "formats.write":
        text = args[1] if len(args) > 1 else kwargs["text"]
        counts["formats.bytes_written"] += len(text.encode("utf-8"))
    elif layer == "cli" and result != 0:
        counts["cli.exit_nonzero"] += 1


class Tracer:
    """Span recorder; records only between ``start()`` and ``stop()``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent id, op id, layer, start, end]
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._op_id = 0
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self._op_id, layer, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def run_op(self, fn):
        """Call ``fn()`` as one operation under a fresh op id."""
        self._op_id += 1
        span = self._open(BENCH_OP)
        try:
            return fn()
        finally:
            self._close(span)

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def _wrap(self, fn: types.FunctionType, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer.counts[f"{layer}.calls"] += 1
            _count(tracer.counts, layer, args, kwargs, result)
            return result

        traced.__wrapped_by_bench__ = True
        return traced

    # -- patching ------------------------------------------------------

    def install(self, package: types.ModuleType, modules: dict[str, types.ModuleType]) -> None:
        """Wrap every public ampsum function in the package and module namespaces."""
        wrappers: dict[int, object] = {}
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__
                if not home.startswith("ampsum."):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer_of(home[len("ampsum."):], obj.__name__))
                self._patched.append((mod, name, obj))
                setattr(mod, name, wrappers[id(obj)])

    def remove(self) -> None:
        """Put back every object ``install`` replaced."""
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: span durations minus their direct children."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _op, _layer, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _parent, _op, layer, start, end in self.spans:
            out[layer] += (end - start) - child_time[sid]
        return dict(out)

    def duration(self, layer: str) -> float:
        """Summed span durations of a layer that never nests in itself."""
        return sum(end - start for _s, _p, _o, name, start, end in self.spans if name == layer)

    def write_spans(self, path) -> None:
        """Write every span as CSV, times in seconds from the first span's start."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,layer,start_s,end_s\n")
            for sid, parent, op, layer, start, end in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{op},{layer},"
                         f"{start - t0:.9f},{end - t0:.9f}\n")

    def op_time(self) -> float:
        """Total duration of the root ``bench.op`` spans."""
        return sum(end - start for _s, parent, _o, _l, start, end in self.spans if parent is None)
