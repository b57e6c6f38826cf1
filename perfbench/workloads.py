"""Seeded inputs of the four benchmark workloads.

One operation is one `pqcgeo` command line. A workload is the list of its
operations for one seed; a run repeats that list in whole rounds. The
operations that are expected to be refused (exit code 2) use fixed inputs,
so the share of failed operations is the same for every seed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle import PARAM_COUNT

# Bundled Hamiltonians as the README documents them; summary.json must echo these.
HAMILTONIANS = {
    "entangled": (-0.71, 0.018, -0.018, 0.01, 0.3, 0.3),
    "product": (-0.35, 0.55, -0.55, 0.1, 0.0001, 0.0001),
}

# run-vqe defaults that the commands below leave in place
LEARNING_RATE = 0.05
MAX_STEPS = 200
TOL = 1e-6

QNG_TRIALS = 12
GD_TRIALS = 16
GRID = 801
# Both clip bounds bite: R(C) runs from -inf at the pole to 10 at product states.
# A clipped value prints shorter than an unclipped one, so a seeded clip would make
# the bytes written, and the time, depend on the seed.
CLIP = (-5.0, 8.0)

# (family, hamiltonian, extra flags): the README headline configs come first
QNG_CONFIGS = (
    ("ldca", "entangled", ("--metric", "block")),
    ("qgan", "entangled", ("--metric", "block")),
    ("qgan-aug", "entangled", ("--metric", "block")),
    ("qgan", "entangled", ("--metric", "diag")),
    ("shea", "entangled", ("--metric", "diag")),
    ("shea", "entangled", ("--metric", "dense")),
    ("qgan-aug", "entangled", ("--metric", "dense")),
    ("hea", "entangled", ("--metric", "diag")),
    ("ldca", "entangled", ("--metric", "dense", "--inversion", "tikhonov")),
    ("ldca", "product", ("--metric", "block")),
    # An odd count of commands puts op_s_p50 on one command's time, not halfway across
    # the gap between two; this one is among the fast commands, so the middle is a
    # qgan command, whose step count varies least with the seed.
    ("ldca", "entangled", ("--metric", "diag")),
)
GD_CONFIGS = (
    ("qgan-aug", "entangled", ()),
    ("qgan", "entangled", ()),
    ("shea", "entangled", ()),
    ("hea", "entangled", ()),
    ("ldca", "entangled", ()),
    ("ldca", "product", ()),
)

HALF_PI = math.pi / 2
# Scan layouts whose grid crosses the C = 1 pole, with 1-based indices:
# (scan pair, pinned values, the two scanned angles of one grid cell on the pole).
QGAN_LAYOUTS = (((1, 2), {5: HALF_PI}, (HALF_PI, HALF_PI)),
                ((1, 5), {2: HALF_PI}, (HALF_PI, HALF_PI)),
                ((2, 5), {1: HALF_PI}, (HALF_PI, HALF_PI)))
POLE_LAYOUTS = {
    "hea": (((1, 2), {}, (math.pi / 4, 0.0)),),
    "ldca": (((3, 5), {}, (0.0, math.pi / 4)),),
    "qgan": QGAN_LAYOUTS,
    "qgan-aug": QGAN_LAYOUTS,
    "shea": (((1, 2), {3: math.pi, 4: 0.0}, (HALF_PI, HALF_PI)),),
}


@dataclass
class Op:
    """One command line, what it must exit with, and what its check needs."""

    label: str
    argv: list[str]
    check: str                   # "vqe", "scan", "scan-pole", "validate" or "refused"
    expect_rc: int = 0
    spec: dict = field(default_factory=dict)
    out: Path | None = None


def _vqe_ops(configs, optimizer: str, trials: int, rng, work: Path) -> list[Op]:
    ops = []
    for kind, ham, extra in configs:
        seed = int(rng.integers(0, 2**31 - 1))
        label = "-".join((optimizer, kind, ham, *extra[1::2]))
        out = work / label
        argv = ["run-vqe", "--ansatz", kind, "--hamiltonian", ham, "--optimizer", optimizer,
                *extra, "--trials", str(trials), "--seed", str(seed), "--out", str(out)]
        spec = {"kind": kind, "nu": HAMILTONIANS[ham], "optimizer": optimizer,
                "metric": dict(zip(extra[::2], extra[1::2])).get("--metric", "block"),
                "lr": LEARNING_RATE, "tol": TOL, "max_steps": MAX_STEPS, "seed": seed,
                "trials": trials}
        ops.append(Op(label, argv, check="vqe", spec=spec, out=out))
    return ops


def _null_coefficient_op(work: Path) -> Op:
    # Known fault: a null coefficient ends in a TypeError traceback instead of exit 2.
    path = work / "null_coefficient.json"
    nu = list(HAMILTONIANS["entangled"])
    nu[1] = None
    path.write_text(json.dumps({"nu": nu, "label": "null coefficient"}) + "\n", encoding="utf-8")
    return Op("gd-null-coefficient", ["run-vqe", "--ansatz", "ldca", "--hamiltonian", str(path),
                                      "--trials", "1", "--out", str(work / "null-out")],
              expect_rc=2, check="refused")


def _scan_ops(rng, work: Path) -> list[Op]:
    ops = []
    for kind, layouts in POLE_LAYOUTS.items():
        (a, b), pinned, pole = layouts[int(rng.integers(len(layouts)))]
        m = PARAM_COUNT[kind]
        fixed = np.zeros(m)
        fix_args = []
        for idx in range(1, m + 1):
            if idx in (a, b):
                continue
            value = pinned.get(idx, float(rng.uniform(0.0, 2.0 * math.pi)))
            fixed[idx - 1] = value
            fix_args += ["--fix", f"{idx}={value!r}"]
        lo, hi = CLIP
        out = work / f"scan-{kind}" / "grid"
        argv = ["scan-landscape", "--ansatz", kind, "--scan", str(a), str(b), *fix_args,
                "--grid", str(GRID), "--clip", repr(lo), repr(hi), "--out", str(out)]
        spec = {"kind": kind, "scan": (a - 1, b - 1), "fixed": fixed, "grid": GRID,
                "clip": (lo, hi), "pole": pole,
                "sample_seed": int(rng.integers(0, 2**31 - 1))}
        ops.append(Op(f"scan-{kind}-{a}-{b}", argv, check="scan", spec=spec, out=out.parent))
    ops.append(_shea_pole_op(work))
    # Known fault: index 0 is outside 1..m, yet the scan exits 0 having set the last parameter.
    ops.append(Op("scan-fix-index-0", ["scan-landscape", "--ansatz", "qgan", "--scan", "1", "2",
                                       "--fix", "0=1.5", "--grid", "101",
                                       "--out", str(work / "fix0" / "grid")],
                  expect_rc=2, check="refused", out=work / "fix0"))
    return ops


def _shea_pole_op(work: Path) -> Op:
    """shea over (theta_3, theta_4) with theta_1 = theta_2 = pi/2, with every cell of
    its C = 1 curve checked.

    Known fault: on some cells of that curve, round-off lifts the program's pole
    argument just above 4, and the cell reads the upper clip instead of the lower.
    The inputs are fixed and the whole curve is checked in every round, so the
    operation fails the same way for every seed.
    """
    n, (lo, hi) = GRID, CLIP
    fixed = np.array([HALF_PI, HALF_PI, 0.0, 0.0, 0.0, 0.0])
    # C = 1 where theta_3 = theta_4 / 4 + pi (mod 2 pi): on the grid, j a multiple of 4
    half = (n - 1) // 2
    curve = [((j // 4 + half) % (n - 1), j) for j in range(0, n, 4)]
    out = work / "scan-shea-pole" / "grid"
    argv = ["scan-landscape", "--ansatz", "shea", "--scan", "3", "4",
            *(arg for idx in (1, 2, 5, 6) for arg in ("--fix", f"{idx}={float(fixed[idx - 1])!r}")),
            "--grid", str(n), "--clip", repr(lo), repr(hi), "--out", str(out)]
    spec = {"kind": "shea", "scan": (2, 3), "fixed": fixed, "grid": n, "clip": (lo, hi),
            "pole": (math.pi, 0.0), "sample_seed": 0, "pole_curve": curve}
    return Op("scan-shea-pole", argv, check="scan-pole", spec=spec, out=out.parent)


WORKLOADS = ("vqe-qng", "vqe-gd", "validate", "landscape")


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The operations of one round of `workload` for `seed`, with outputs under `work`."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, WORKLOADS.index(workload))))
    work.mkdir(parents=True, exist_ok=True)
    if workload == "vqe-qng":
        return _vqe_ops(QNG_CONFIGS, "qng", QNG_TRIALS, rng, work)
    if workload == "vqe-gd":
        return _vqe_ops(GD_CONFIGS, "gd", GD_TRIALS, rng, work) + [_null_coefficient_op(work)]
    if workload == "landscape":
        return _scan_ops(rng, work)
    if workload == "validate":
        return [Op("validate", ["validate"], check="validate")]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
