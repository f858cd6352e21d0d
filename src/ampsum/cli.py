"""Command-line front end.

Subcommands::

    ampsum build     --m M --n N [--weights FILE] [--format text|qasm] [--out FILE]
    ampsum sum       --state FILE --m M [--weights FILE]
    ampsum integrate (--function sin-pi --n N | --samples FILE) --m M
    ampsum verify    --n-max K [--weighted-trials T] [--seed S]

Exit codes: 0 on success, 1 when verification finds failures or stdout closes
early (``| head``), 2 on flag or validation errors (the message names the
violated precondition).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import formats, verify
from .apps import IntegrationSpec, integrate_midpoint, midpoints
from .build import build_partial_sum_circuit, build_weighted_circuit
from .core import check_dense, qubit_count
from .simulate import amplitude


@functools.cache  # built on the first call, then shared by every call of main in the process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ampsum",
        description="Synthesize, run, and verify partial-sum readout circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="synthesize a circuit and print or save it")
    p_build.add_argument("--m", type=int, required=True, help="number of summed amplitudes")
    p_build.add_argument("--n", type=int, required=True, help="register size in qubits")
    p_build.add_argument("--weights", metavar="FILE", help="JSON array of rotation weights")
    p_build.add_argument("--format", choices=("text", "qasm"), default="text")
    p_build.add_argument("--out", metavar="FILE", help="write the circuit here instead of stdout")
    p_build.set_defaults(run=_cmd_build)

    p_sum = sub.add_parser("sum", help="read the scaled partial sum off a state file")
    p_sum.add_argument("--state", metavar="FILE", required=True, help="JSON or .npy state file")
    p_sum.add_argument("--m", type=int, required=True)
    p_sum.add_argument("--weights", metavar="FILE")
    p_sum.set_defaults(run=_cmd_sum)

    p_int = sub.add_parser("integrate", help="midpoint-rule integral over [0, M/2**n]")
    p_int.add_argument("--function", choices=("sin-pi",), help="built-in integrand preset")
    p_int.add_argument("--n", type=int, help="sample count exponent (N = 2**n)")
    p_int.add_argument("--samples", metavar="FILE", help="JSON array or .npy file of midpoint samples")
    p_int.add_argument("--m", type=int, required=True)
    p_int.set_defaults(run=_cmd_integrate)

    p_verify = sub.add_parser("verify", help="sweep the library invariants")
    p_verify.add_argument("--n-max", type=int, required=True)
    p_verify.add_argument("--weighted-trials", type=int, default=25)
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.set_defaults(run=_cmd_verify)
    return parser


def _load_circuit(m: int, n: int, weights_path: str | None):
    if weights_path is None:
        return build_partial_sum_circuit(m, n)
    return build_weighted_circuit(m, n, formats.load_weights_file(weights_path))


def _cmd_build(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.m, args.n, args.weights)
    text = formats.circuit_to_text(circuit) if args.format == "text" \
        else formats.circuit_to_qasm(circuit)
    if args.out:
        formats.write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    print(f"gates {len(circuit.gates)}")
    print(f"depth {circuit.depth()}")
    return 0


def _cmd_sum(args: argparse.Namespace) -> int:
    state = formats.load_state_file(args.state)
    c0 = amplitude(_load_circuit(args.m, state.n_qubits, args.weights), state)
    total = math.sqrt(args.m) * c0
    print(f"c0 = {c0.real:.15g} {c0.imag:.15g}")
    print(f"S_M = {total.real:.15g} {total.imag:.15g}")
    return 0


def _cmd_integrate(args: argparse.Namespace) -> int:
    if (args.function is None) == (args.samples is None):
        raise ValueError("exactly one of --function or --samples is required")
    if args.function is not None:
        if args.n is None:
            raise ValueError("--function requires --n")
        n = check_dense(args.n)  # before anything of size 2**n is formed
        spec = IntegrationSpec(n, args.m, np.sin(np.pi * midpoints(n)))  # math.sin's bits at n = 1-20
    else:
        if args.n is not None:
            raise ValueError("--n applies only to --function; a samples file's length sets n")
        samples = formats.load_samples_file(args.samples)
        spec = IntegrationSpec(qubit_count(samples.size, "sample count"), args.m, samples)
    estimate = integrate_midpoint(spec)
    print(f"estimate = {estimate:.16g}")
    if args.function == "sin-pi":
        exact = (1.0 - math.cos(math.pi * spec.m * spec.dx)) / math.pi
        print(f"exact = {exact:.16g}")
        print(f"abs_error = {abs(estimate - exact):.6g}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = verify.run_sweep(
        args.n_max, weighted_trials=args.weighted_trials, seed=args.seed
    )
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code = args.run(args)
        sys.stdout.flush()  # a reader that went away shows here, not at interpreter shutdown
        return code
    except BrokenPipeError:  # Python's SIGPIPE recipe: not bad input, and nothing left to flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
