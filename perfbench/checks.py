"""Checks of one command's outputs against the reference physics in `oracle`.

Each check returns a list of problems; an empty list means the outputs are
right. The checks read what the program wrote and recompute it from the
inputs alone, never from stored copies of earlier output.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracle

CHEMICAL_ACCURACY = 1e-3   # steps-to-threshold target documented for summary.json
VALIDATE_SUITES = ("concurrence-equivalence", "hopf-invariants", "curvature-consistency",
                   "qgt-structure", "gradient-check", "chart-convention")
TRACE_COLUMNS = ("step", "energy", "energy_error", "concurrence", "ricci", "grad_norm")
ROWS_REBUILT = 3      # trace rows per trial whose state is rebuilt from theta
GD_STEPS_CHECKED = 2  # GD updates per trial compared with -lr * finite-difference gradient
SCAN_ROWS = 12        # grid rows per scan read in full
SCAN_CELLS = 24       # cells per read row compared with R(C) of the rebuilt state


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def read_trace(path: Path, m: int) -> dict[str, np.ndarray]:
    """Named columns of one trial CSV; theta comes back as an (n, m) array."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    names = list(TRACE_COLUMNS) + [f"theta_{j + 1}" for j in range(m)]
    missing = [n for n in names if n not in header]
    if missing:
        raise ValueError(f"{path.name}: missing columns {missing}")
    cols = {n: np.array([float(r[header.index(n)]) for r in body]) for n in names}
    cols["theta"] = np.stack([cols.pop(f"theta_{j + 1}") for j in range(m)], axis=1)
    return cols


def check_trace(cols, spec: dict, e0: float, h: np.ndarray, rng) -> list[str]:
    kind, tol, lr = spec["kind"], spec["tol"], spec["lr"]
    energy, theta = cols["energy"], cols["theta"]
    n = len(energy)
    out = []
    if n == 0 or not np.array_equal(cols["step"], np.arange(n)):
        out.append("steps are not 0, 1, 2, ...")
        return out
    if n - 1 > spec["max_steps"]:
        out.append(f"{n - 1} steps exceed max_steps {spec['max_steps']}")
    if energy.min() < e0 - 1e-9:
        out.append(f"energy {energy.min()!r} below the ground energy {e0!r}")
    if np.abs(cols["energy_error"] - (energy - e0)).max() > 1e-10:
        out.append("energy_error differs from energy - E0")
    c = cols["concurrence"]
    expected_ricci = oracle.ricci(np.minimum(c, oracle.RICCI_CLAMP))
    if np.any(np.abs(cols["ricci"] - expected_ricci) > 1e-9 * np.maximum(1.0, np.abs(expected_ricci))):
        out.append("ricci differs from R(min(C, 1 - 1e-9))")
    if theta[0].min() < 0.0 or theta[0].max() >= 2 * math.pi:
        out.append("initial parameters outside [0, 2 pi)")
    # stop rule: no earlier pair of steps met |dE| < tol, and the last met it or hit max_steps
    de = np.abs(np.diff(energy))
    if np.any(de[:-1] < tol):
        out.append("an earlier step already met the |dE| < tol stop rule")
    if not (n - 1 == spec["max_steps"] or (n > 1 and de[-1] < tol)):
        out.append("stopped before |dE| < tol and before max_steps")
    for k in sorted({0, n - 1, int(rng.integers(n))})[:ROWS_REBUILT]:
        psi = oracle.state(kind, theta[k])
        if not _close(oracle.energy(h, psi), energy[k], 1e-9):
            out.append(f"step {k}: energy differs from the rebuilt state's")
        if abs(oracle.concurrence(psi) - c[k]) > 1e-9:
            out.append(f"step {k}: concurrence differs from the rebuilt state's")
        grad = oracle.energy_gradient_fd(kind, theta[k], h)
        if abs(np.linalg.norm(grad) - cols["grad_norm"][k]) > 1e-6:
            out.append(f"step {k}: grad_norm differs from the finite-difference gradient")
    if spec["optimizer"] == "gd" and n > 1:
        for k in rng.choice(n - 1, size=min(GD_STEPS_CHECKED, n - 1), replace=False):
            grad = oracle.energy_gradient_fd(kind, theta[k], h)
            if np.abs(theta[k + 1] - theta[k] + lr * grad).max() > 1e-6 * lr:
                out.append(f"step {k}: GD update is not -lr * gradient")
    return out


def _padded(series: list[np.ndarray], n_steps: int) -> np.ndarray:
    return np.array([np.concatenate([s, np.full(n_steps + 1 - len(s), s[-1])]) for s in series])


def check_summary(summary: dict, traces: list[dict], spec: dict, e0: float) -> list[str]:
    out = []
    for key, want in (("ansatz", spec["kind"]), ("optimizer", spec["optimizer"]),
                      ("metric_mode", spec["metric"]), ("learning_rate", spec["lr"]),
                      ("tol", spec["tol"]), ("max_steps", spec["max_steps"]),
                      ("seed", spec["seed"]), ("trials", spec["trials"]),
                      ("threshold", CHEMICAL_ACCURACY)):
        if summary.get(key) != want:
            out.append(f"summary {key} = {summary.get(key)!r}, expected {want!r}")
    ham = summary.get("hamiltonian", {})
    if list(ham.get("nu", [])) != list(spec["nu"]):
        out.append("summary Hamiltonian coefficients differ from the input")
    if not _close(ham.get("ground_energy", math.nan), e0, 1e-10):
        out.append(f"summary ground energy {ham.get('ground_energy')!r}, expected {e0!r}")
    n_steps = spec["max_steps"]
    if summary.get("steps") != list(range(n_steps + 1)):
        out.append("summary steps are not 0..max_steps")
    for col in ("energy_error", "concurrence", "ricci"):
        series = _padded([t[col] for t in traces], n_steps)
        for stat, want in (("mean", series.mean(axis=0)), ("std", series.std(axis=0))):
            got = np.asarray(summary.get(f"{col}_{stat}", []), dtype=float)
            if got.shape != want.shape or np.any(
                    np.abs(got - want) > 1e-9 * np.maximum(1.0, np.abs(want))):
                out.append(f"summary {col}_{stat} differs from the trial CSVs")
    stt = []
    for t in traces:
        hit = np.nonzero(t["energy_error"] <= CHEMICAL_ACCURACY)[0]
        stt.append(int(hit[0]) if hit.size else None)
    if summary.get("steps_to_threshold") != stt:
        out.append("summary steps_to_threshold differs from the trial CSVs")
    reached = sum(s is not None for s in stt) / len(stt)
    if summary.get("reached_fraction") != reached:
        out.append("summary reached_fraction differs from the trial CSVs")
    med = float(np.median([math.inf if s is None else s for s in stt]))
    if summary.get("median_steps_to_threshold") != (None if math.isinf(med) else med):
        out.append("summary median_steps_to_threshold differs from the trial CSVs")
    return out


def check_vqe(out_dir: Path, spec: dict, stdout: str, rng) -> tuple[list[str], int]:
    """Problems in one run-vqe output directory, and the number of trace rows."""
    m = oracle.PARAM_COUNT[spec["kind"]]
    e0 = oracle.ground_energy(spec["nu"])
    h = oracle.hamiltonian(spec["nu"])
    names = [f"trial_{k:03d}.csv" for k in range(spec["trials"])]
    found = sorted(p.name for p in out_dir.glob("trial_*.csv"))
    if found != names:
        return [f"trial files {found}, expected {names}"], 0
    problems: list[str] = []
    traces = []
    for name in names:
        try:
            cols = read_trace(out_dir / name, m)
        except (ValueError, IndexError) as exc:
            return [f"{name}: unreadable ({exc})"], 0
        problems += [f"{name}: {p}" for p in check_trace(cols, spec, e0, h, rng)]
        traces.append(cols)
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"summary.json unreadable ({exc})"], 0
    problems += check_summary(summary, traces, spec, e0)
    if "reached" not in stdout:
        problems.append("run-vqe printed no result line")
    return problems, sum(len(t["step"]) for t in traces)


def _grid_lines(path: Path, n: int) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != n:
        raise ValueError(f"{path.name} has {len(lines)} rows, expected {n}")
    return lines


def _row(line: str, n: int, cast) -> np.ndarray:
    vals = line.split(",")
    if len(vals) != n:
        raise ValueError(f"grid row has {len(vals)} cells, expected {n}")
    return np.array([cast(v) for v in vals])


def check_scan(out_dir: Path, spec: dict, stdout: str) -> tuple[list[str], int]:
    """Problems in one scan-landscape output, and the number of grid cells."""
    kind, n, (lo, hi), (a, b) = spec["kind"], spec["grid"], spec["clip"], spec["scan"]
    fixed = np.asarray(spec["fixed"], dtype=float)
    step = 2.0 * math.pi / (n - 1)
    out = []
    try:
        meta = json.loads((out_dir / "grid_meta.json").read_text(encoding="utf-8"))
        values = _grid_lines(out_dir / "grid.csv", n)
        mask = _grid_lines(out_dir / "grid_mask.csv", n)
    except (OSError, ValueError) as exc:
        return [f"scan output unreadable ({exc})"], 0
    for key, want in (("ansatz", kind), ("scan_indices", [a, b]), ("resolution", n),
                      ("clip", [lo, hi]), ("fixed_theta", fixed.tolist())):
        if meta.get(key) != want:
            out.append(f"meta {key} = {meta.get(key)!r}, expected {want!r}")
    axis = np.asarray(meta.get("axis", []), dtype=float)
    if axis.shape != (n,) or np.abs(axis - step * np.arange(n)).max() > 1e-12:
        out.append("meta axis is not an even grid over [0, 2 pi]")
    clipped = sum(line.count("1") for line in mask)
    if f"({clipped} clipped cells)" not in stdout:
        out.append(f"printed clipped-cell count differs from the mask's {clipped}")

    rng = np.random.default_rng(spec["sample_seed"])
    pole = tuple(int(round(t / step)) for t in spec["pole"])
    rows = sorted({pole[0], *rng.choice(n, size=SCAN_ROWS, replace=False).tolist()})
    for i in rows:
        try:
            v = _row(values[i], n, float)
            k = _row(mask[i], n, int)
        except ValueError as exc:
            return out + [f"row {i}: {exc}"], 0
        if v.min() < lo or v.max() > hi:
            out.append(f"row {i}: a value lies outside the clip bounds")
        if np.any((k == 1) & (v != lo) & (v != hi)) or np.any((k != 0) & (k != 1)):
            out.append(f"row {i}: a masked cell holds an unclipped value")
        cells = rng.choice(n, size=SCAN_CELLS, replace=False).tolist()
        if i == pole[0]:
            cells.append(pole[1])
        for j in cells:
            r = _reference_ricci(spec, i, j)
            if (i, j) == pole and not r < lo:
                out.append(f"cell {(i, j)}: the scan layout misses the C = 1 pole")
            problem = _cell_problem(r, v[j], k[j], lo, hi)
            if problem:
                out.append(f"cell {(i, j)}: {problem}")
    return out, n * n


def _reference_ricci(spec: dict, i: int, j: int) -> float:
    """R(C) of the rebuilt state at grid cell (i, j); -inf on the C = 1 pole."""
    theta = np.asarray(spec["fixed"], dtype=float).copy()
    step = 2.0 * math.pi / (spec["grid"] - 1)
    theta[spec["scan"][0]], theta[spec["scan"][1]] = i * step, j * step
    c = oracle.concurrence(oracle.state(spec["kind"], theta))
    return float(oracle.ricci(c)) if c < 1.0 - 1e-12 else -math.inf


def _cell_problem(r: float, value: float, mask: int, lo: float, hi: float) -> str | None:
    if min(abs(r - lo), abs(r - hi)) < 1e-7:
        return None  # too close to a bound to call the mask either way
    if mask != int(r < lo or r > hi):
        return f"mask {mask} but R(C) = {r!r} for clip {lo, hi}"
    if abs(value - min(max(r, lo), hi)) > 1e-8:
        return f"value {value!r} but clipped R(C) = {min(max(r, lo), hi)!r}"
    return None


def pole_curve_faults(out_dir: Path, spec: dict) -> list[tuple[int, int]]:
    """The cells of spec["pole_curve"] whose value or mask differs from the clipped
    R(C) of the rebuilt state. An unreadable output is left to check_scan."""
    n, (lo, hi) = spec["grid"], spec["clip"]
    try:
        values = _grid_lines(out_dir / "grid.csv", n)
        mask = _grid_lines(out_dir / "grid_mask.csv", n)
        cells = [(i, j, float(values[i].split(",")[j]), int(mask[i].split(",")[j]))
                 for i, j in spec["pole_curve"]]
    except (OSError, ValueError, IndexError):
        return []
    return [(i, j) for i, j, v, k in cells
            if _cell_problem(_reference_ricci(spec, i, j), v, k, lo, hi)]


def check_validate(stdout: str) -> tuple[list[str], int]:
    """Problems in the validate table, and the number of suites that passed."""
    lines = stdout.splitlines()
    passed = [name for name in VALIDATE_SUITES
              if any(line.split()[:2] == [name, "PASS"] for line in lines if line.strip())]
    out = [f"suite {name} did not pass" for name in VALIDATE_SUITES if name not in passed]
    if not lines or lines[-1] != "all suites passed":
        out.append("validate did not report that all suites passed")
    return out, len(passed)
