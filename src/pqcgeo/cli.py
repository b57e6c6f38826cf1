"""Command-line interface.

Subcommands: run-vqe, scan-landscape, hopf, validate.
Exit codes: 0 success, 1 validation failure, 2 configuration error.
Parameter indices on the command line are 1-based (theta_1 .. theta_m).
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from typing import get_args

import numpy as np

from . import ansatz, harness, optimize, qgt, vqe


class _Parser(argparse.ArgumentParser):
    """Refuses a command with one "error: ..." line and exit code 2, and reads a token
    that starts with '-' and a digit, '.', 'inf' or 'nan' as a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pqcgeo", description="two-qubit circuit geometry and VQE laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    opt = optimize.OptConfig()  # the run-vqe defaults

    run = sub.add_parser("run-vqe", help="multi-trial VQE with trace CSVs and summary JSON")
    run.add_argument("--ansatz", required=True, choices=ansatz.ANSATZE)
    run.add_argument("--hamiltonian", required=True,
                     help="Hamiltonian JSON path, or bundled name "
                          + "/".join(repr(name) for name in vqe.BUNDLED))
    run.add_argument("--optimizer", default=opt.optimizer, choices=(optimize.GD, optimize.QNG))
    run.add_argument("--metric", default=opt.metric_mode, choices=qgt.METRIC_MODES)
    run.add_argument("--inversion", default=opt.inversion.name,
                     choices=[policy.name for policy in get_args(qgt.InversionPolicy)])
    run.add_argument("--rcond", type=float, default=qgt.PseudoInverse.rcond,
                     help="pseudo-inverse cutoff")
    run.add_argument("--epsilon", type=float, default=qgt.Tikhonov.epsilon, help="tikhonov ridge")
    run.add_argument("--lr", type=float, default=opt.learning_rate)
    run.add_argument("--steps", type=int, default=opt.max_steps)
    run.add_argument("--tol", type=float, default=opt.tol)
    run.add_argument("--seed", type=int, default=opt.seed)
    run.add_argument("--trials", type=int, default=harness.DEFAULT_TRIALS)
    run.add_argument("--out", default="out")

    scan = sub.add_parser("scan-landscape", help="curvature grid over two parameters")
    scan.add_argument("--ansatz", required=True, choices=ansatz.ANSATZE)
    scan.add_argument("--scan", type=int, nargs=2, default=(1, 2), metavar=("A", "B"),
                      help="1-based indices of the two scanned parameters")
    scan.add_argument("--fix", action="append", default=[], metavar="INDEX=VALUE",
                      help="fix a remaining parameter, repeatable (1-based index)")
    scan.add_argument("--grid", type=int, default=harness.DEFAULT_GRID)
    scan.add_argument("--clip", type=float, nargs=2, default=harness.DEFAULT_CLIP,
                      metavar=("LO", "HI"))
    scan.add_argument("--out", default="landscape", help="output path prefix")

    hopf = sub.add_parser("hopf", help="print Hopf base/fiber coordinates as JSON")
    hopf.add_argument("--ansatz", required=True, choices=ansatz.ANSATZE)
    hopf.add_argument("--theta", required=True,
                      help="comma-separated parameter values, e.g. 0.3,1.2,0,0")

    sub.add_parser("validate", help="run every oracle suite and print a pass/fail table")
    return parser


def _cmd_run_vqe(args) -> int:
    # both policies are built so that a bad --rcond or --epsilon is refused either way
    policies = {p.name: p for p in (qgt.PseudoInverse(args.rcond), qgt.Tikhonov(args.epsilon))}
    opt = optimize.OptConfig(learning_rate=args.lr, max_steps=args.steps, tol=args.tol,
                             optimizer=args.optimizer, metric_mode=args.metric,
                             inversion=policies[args.inversion], seed=args.seed)
    if args.hamiltonian in vqe.BUNDLED:
        hamiltonian = vqe.load_bundled(args.hamiltonian)
    else:
        try:
            hamiltonian = vqe.Hamiltonian.from_json(args.hamiltonian)
        except FileNotFoundError:
            raise ValueError(f"--hamiltonian {args.hamiltonian!r}: no such file, and not a "
                             f"bundled name {tuple(vqe.BUNDLED)}") from None
    summary = harness.run_vqe_experiment(args.ansatz, hamiltonian, opt, args.trials, args.out)
    med = summary["median_steps_to_threshold"]
    print(f"wrote {args.trials} trace files and summary.json to {args.out}")
    print(f"reached {summary['threshold']:g} Ha error in "
          f"{summary['reached_fraction'] * 100:.0f}% of trials"
          + (f", median {med:g} steps" if med is not None else ""))
    return 0


def _cmd_scan(args) -> int:
    m = ansatz.param_count(args.ansatz)
    a, b = args.scan
    if not (1 <= a <= m and 1 <= b <= m and a != b):
        raise ValueError(f"bad --scan indices {a} {b}: expected two distinct indices in 1..{m}")
    fixed = np.zeros(m)
    taken = {a, b}
    for item in args.fix:
        try:
            idx, val = item.split("=")
            idx, val = int(idx), float(val)
        except ValueError as exc:
            raise ValueError(f"bad --fix argument {item!r}; expected INDEX=VALUE") from exc
        if not 1 <= idx <= m or idx in taken:
            raise ValueError(f"bad --fix index {idx}: repeated, scanned or outside 1..{m}")
        taken.add(idx)
        fixed[idx - 1] = val
    _, mask, meta = harness.scan_landscape(args.ansatz, (a - 1, b - 1), fixed_theta=fixed,
                                           resolution=args.grid, clip=tuple(args.clip),
                                           out_prefix=args.out)
    print(f"wrote {meta['resolution']}x{meta['resolution']} grid to {args.out}.csv "
          f"({int(mask.sum())} clipped cells)")
    return 0


def _cmd_hopf(args) -> int:
    try:  # float() refuses an empty field, so "0.1,,0.2" and a trailing comma fail here
        theta = [float(v) for v in args.theta.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad --theta {args.theta!r}: expected comma-separated numbers") from exc
    report = harness.hopf_report(args.ansatz, theta)
    print(json.dumps(report, indent=1))
    return 0


def _cmd_validate() -> int:
    ok, rows = harness.run_validation()
    width = max(len(name) for name, _, _ in rows)
    for name, passed, detail in rows:
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
    print("all suites passed" if ok else "VALIDATION FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run-vqe":
            return _cmd_run_vqe(args)
        if args.command == "scan-landscape":
            return _cmd_scan(args)
        if args.command == "hopf":
            return _cmd_hopf(args)
        return _cmd_validate()
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
