"""Kernel probe: per-gate cost of ``simulate.apply_circuit`` by kind, control and n.

Each sample times ``apply_circuit`` on K copies of one gate kind and
control polarity, with targets spread over the register, minus the same
call on an empty circuit (the copy and norm check every call pays), and
divides by K.  The median over repetitions is reported.

GB/s here is *computed* bytes: one read and one write of every amplitude a
gate touches (16 bytes each), half of them for a controlled gate, divided
by the time per gate.  A 16 MiB n=20 state fits the 300 MiB L3 of the
reference machine (Intel Xeon, 2 cores), and ``MAX_APPLY_QUBITS = 20``
rules out the arrays of four times the last-level cache a DRAM-bandwidth
figure would need, so no such figure is claimed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KINDS = ("h", "x", "ry")
CONTROLS = ("none", "neg", "pos")
PROBE_NS = (8, 14, 20)
GBPS_N = 20
_REPS = {8: 41, 14: 11, 20: 3}
_RY_THETA = 0.7


def _gate(core, kind: str, control: str, target: int, n: int):
    ctrl = {} if control == "none" else {
        "control": (target + 1) % n, "control_value": 1 if control == "pos" else 0}
    if kind == "ry":
        return core.ry(_RY_THETA, target, **ctrl)
    return (core.h if kind == "h" else core.x)(target, **ctrl)


def _elapsed(apply, circuit, state) -> float:
    start = time.perf_counter()
    apply(circuit, state)
    return time.perf_counter() - start


def computed_bytes(n: int, control: str) -> int:
    """Bytes one gate reads and writes: all 2**n complex amplitudes, half if controlled."""
    touched = 2**n if control == "none" else 2 ** (n - 1)
    return 2 * 16 * touched


def kernel_probe(mods, seed: int) -> dict[str, float]:
    """Median µs per gate for every (kind, control, n), GB/s at n=20, and
    the median empty-circuit call at n=20 in ms."""
    core, apply = mods.core, mods.simulate.apply_circuit
    rng = np.random.default_rng([seed, 1 << 22])
    out: dict[str, float] = {}
    for n in PROBE_NS:
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = core.state_from_amplitudes(amps, normalize=True)
        count = min(n, 10)
        targets = [i * n // count for i in range(count)]
        empty = core.Circuit(n)
        circuits = {
            (kind, control): core.Circuit(n, tuple(_gate(core, kind, control, t, n) for t in targets))
            for kind in KINDS for control in CONTROLS
        }
        per_gate: dict[tuple[str, str], list[float]] = {key: [] for key in circuits}
        empties: list[float] = []
        for _ in range(_REPS[n]):
            for key, circuit in circuits.items():
                base = _elapsed(apply, empty, state)
                empties.append(base)
                per_gate[key].append((_elapsed(apply, circuit, state) - base) / count)
        for (kind, control), samples in per_gate.items():
            seconds = statistics.median(samples)
            out[f"kernel.us_per_gate.{kind}.{control}.n{n}"] = seconds * 1e6
            if n == GBPS_N:
                out[f"kernel.gbps_computed.{kind}.{control}.n{n}"] = \
                    computed_bytes(n, control) / seconds / 1e9
        if n == GBPS_N:
            out[f"simulate.apply.fixed_ms.n{n}"] = statistics.median(empties) * 1e3
    return out
