"""Experiment orchestration and result persistence.

Everything here writes plain CSV/JSON; plotting is left to external
consumers. A landscape scan evaluates the closed form per axis: each fixed
parameter is one scalar, the column axis one (n,) vector and each block of 32
rows one (rows, 1) vector, so every sine and cosine is taken once per axis
value and only the products span the block. It writes its value CSV one row at
a time: a row whose bits equal an earlier row's is written from that row's
text, and a distinct row formats only the values missing from a fixed 0.5 MB
table of recent texts keyed on bits, so the writer holds the table, one row and
the text of the rows still to be repeated. Its clip mask is one byte array.
A VQE run is run_vqe_experiment(kind, hamiltonian, opt, trials, out_dir) with
a loaded vqe.Hamiltonian; its per-trial traces use the fixed column set

    step, energy, energy_error, concurrence, ricci, grad_norm, theta_1 .. theta_m

and the run summary JSON carries per-step mean/std across trials (shorter
traces are padded by carrying their final row forward), the per-trial
steps-to-threshold statistics and QNG fallback counts, and the inversion policy.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import ansatz, geometry, optimize, qgt, vqe
from .simulator import _real

DEFAULT_TRIALS = 50
DEFAULT_GRID = 201
DEFAULT_CLIP = (-5.0, 10.0)
_ROW_BLOCK = 32  # grid rows per closed-form call of a landscape scan
_SLOT_BITS = 14  # the grid writer's table of value texts: 2**14 slots of 32 bytes


def write_trace_csv(path: Path, trace: optimize.Trace) -> None:
    header = ["step", "energy", "energy_error", "concurrence", "ricci",
              "grad_norm"] + [f"theta_{j + 1}" for j in range(trace.theta.shape[1])]
    table = np.column_stack([trace.energy, trace.energy_error, trace.concurrence, trace.ricci,
                             trace.grad_norm, trace.theta]).tolist()
    lines = [",".join(header)] + [",".join([str(step), *map(repr, row)])
                                  for step, row in enumerate(table)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def summarize(traces: list[optimize.Trace], config: optimize.OptConfig) -> dict:
    n_steps = config.max_steps
    summary: dict = {"steps": list(range(n_steps + 1))}
    series = np.empty((len(traces), n_steps + 1))
    for key in ("energy_error", "concurrence", "ricci"):
        for row, t in zip(series, traces):  # a short trace carries its last value forward
            values = getattr(t, key)
            row[:len(values)] = values
            row[len(values):] = values[-1]
        summary[f"{key}_mean"] = series.mean(axis=0).tolist()
        summary[f"{key}_std"] = series.std(axis=0).tolist()
    stt = [optimize.steps_to_threshold(t) for t in traces]
    summary["threshold"] = optimize.CHEMICAL_ACCURACY
    summary["steps_to_threshold"] = stt
    summary["reached_fraction"] = sum(s is not None for s in stt) / len(stt)
    med = float(np.median([s if s is not None else math.inf for s in stt]))
    summary["median_steps_to_threshold"] = None if math.isinf(med) else med
    return summary


def run_vqe_experiment(kind: str, hamiltonian: vqe.Hamiltonian, opt: optimize.OptConfig,
                       trials: int, out_dir: str | Path) -> dict:
    """Run the multi-trial experiment and write trial CSVs plus summary.json.

    The trials run and the summary is built before out_dir is created or
    cleared, so a refused or failing run leaves it untouched.
    """
    kind = ansatz.resolve_kind(kind)
    if str(out_dir) == "":  # Path('') would be the working directory, which '.' names
        raise ValueError("out directory must not be empty; use '.' for the working directory")
    traces = optimize.run_trials(kind, hamiltonian, opt, trials)
    ground = vqe.exact_ground(hamiltonian)
    summary = {
        "ansatz": kind,
        "optimizer": opt.optimizer,
        "metric_mode": opt.metric_mode,
        "inversion": {"policy": opt.inversion.name, **asdict(opt.inversion)},
        "learning_rate": opt.learning_rate,
        "tol": opt.tol,
        "max_steps": opt.max_steps,
        "seed": opt.seed,
        "trials": len(traces),
        "qng_fallback_steps": [int(trace.qng_fallback.sum()) for trace in traces],
        "hamiltonian": {"label": hamiltonian.label, "nu": list(hamiltonian.nu),
                        "ground_energy": ground.energy,
                        "ground_concurrence": ground.concurrence},
    }
    summary.update(summarize(traces, opt))
    summary_text = json.dumps(summary, indent=1) + "\n"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("trial_*.csv"):  # left by an earlier run with more trials
        stale.unlink()
    for k, trace in enumerate(traces):
        write_trace_csv(out / f"trial_{k:03d}.csv", trace)
    (out / "summary.json").write_text(summary_text, encoding="utf-8")
    return summary


# ---------------------------------------------------------------------------
# curvature landscape scans
# ---------------------------------------------------------------------------

def scan_landscape(kind: str, scan_indices: tuple[int, int], fixed_theta=None,
                   resolution: int = DEFAULT_GRID, clip: tuple[float, float] = DEFAULT_CLIP,
                   out_prefix: str | Path | None = None) -> tuple[np.ndarray, np.ndarray, dict]:
    """Grid of per-circuit scalar curvature over two scanned parameters.

    Both scanned parameters run over [0, 2 pi] inclusive. Values are clipped
    to the given finite bounds; the boolean mask marks exactly the cells whose
    unclipped value fell outside them (the C -> 1 pole gives -inf, which
    clips to the lower bound). Rows follow the first scanned index.
    """
    kind = ansatz.resolve_kind(kind)
    m = ansatz.param_count(kind)
    message = f"scan indices must be two distinct integers in [0, {m})"
    a, b = (optimize._integer(i, 0, message) for i in scan_indices)
    if not (a < m and b < m) or a == b:
        raise ValueError(f"{message}, got {scan_indices!r}")
    resolution = optimize._integer(resolution, 2, "resolution must be an integer of at least 2")
    bounds = [_real(v) for v in clip]
    if len(bounds) != 2 or None in bounds:
        raise ValueError(f"clip bounds must be two real numbers, got {clip!r}")
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"clip bounds must be finite with lo < hi, got {lo!r} and {hi!r}")
    prefix = None if out_prefix is None else Path(out_prefix)
    if prefix is not None and prefix.name in ("", ".."):  # '', '.' and '..' name no file
        raise ValueError(f"out prefix must end in a file name, got {str(out_prefix)!r}")
    base = np.zeros(m) if fixed_theta is None else fixed_theta
    if np.shape(base) != (m,):
        raise ValueError(f"fixed parameter vector must have length {m}")
    base = ansatz._check_theta(kind, base)  # the scanned slots too, which meta records
    axis = np.linspace(0.0, 2.0 * np.pi, resolution)
    raw = np.empty((resolution, resolution))
    # scalars and axis vectors: each sine and cosine once per axis value, and only the
    # products broadcast, to (rows, n) or less where the closed form ignores an axis
    cols = list(base)
    cols[b] = axis
    for start in range(0, resolution, _ROW_BLOCK):
        rows = axis[start:start + _ROW_BLOCK]
        cols[a] = rows[:, None]
        raw[start:start + rows.size] = ansatz._ricci(kind, cols)
    mask = (raw < lo) | (raw > hi)
    values = np.clip(raw, lo, hi, out=raw)
    meta = {"ansatz": kind, "scan_indices": [a, b], "fixed_theta": base.tolist(),
            "resolution": resolution, "clip": [lo, hi], "axis": axis.tolist()}
    if prefix is not None:
        prefix.parent.mkdir(parents=True, exist_ok=True)
        _write_grid_csv(prefix.parent / (prefix.name + ".csv"), values)
        _write_mask_csv(prefix.parent / (prefix.name + "_mask.csv"), mask)
        (prefix.parent / (prefix.name + "_meta.json")).write_text(
            json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return values, mask, meta


def _write_grid_csv(path: Path, grid: np.ndarray) -> None:
    """A float64 grid as CSV, each value as repr() gives it.

    A row whose bits equal an earlier row's is written from that row's text, which is
    kept from its first occurrence to its last repeat. A distinct row formats only the
    values missing from a fixed direct-mapped table of 2**14 recent texts keyed on bits
    (0.5 MB); the writer holds the table, one row and the text of rows still to be repeated.
    """
    if grid.dtype != np.float64:
        raise ValueError(f"grid values must be float64, got {grid.dtype}")
    bits = grid.view(np.uint64)
    # pass 1: each row's earliest equal row, and the last repeat of each repeated row;
    # rows are equal by bits, so -0.0 and 0.0, or NaNs of either sign, stay apart
    first, last, seen = list(range(len(bits))), {}, {}
    for i, row in enumerate(bits):
        candidates = seen.setdefault(hash(row.tobytes()), [])
        for j in candidates:
            if np.array_equal(bits[j], row):  # a hash collision costs a format, not a wrong row
                first[i], last[j] = j, i
                break
        else:
            candidates.append(i)
    fib, shift = np.uint64(0x9E3779B97F4A7C15), np.uint64(64 - _SLOT_BITS)  # Fibonacci hashing
    # every slot starts as 0.0, so its key and text agree; no float64 repr is longer
    # than 24 characters ('-2.2250738585072014e-308')
    slot_keys = np.zeros(1 << _SLOT_BITS, dtype=np.uint64)
    slot_text = np.full(1 << _SLOT_BITS, b"0.0", dtype="S24")
    line_bytes = np.full((bits.shape[1], 25), ord(","), dtype=np.uint8)
    text = {}
    with path.open("wb") as fh:
        for i, row in enumerate(bits):
            j = first[i]
            if j == i:
                slots = (row * fib) >> shift
                words = slot_text[slots]
                miss = slot_keys[slots] != row
                if miss.any():
                    keys, inverse = np.unique(row[miss], return_inverse=True)
                    found = np.array([repr(v) for v in keys.view(np.float64).tolist()], "S24")
                    words[miss] = found[inverse]
                    key_slots = (keys * fib) >> shift
                    slot_keys[key_slots], slot_text[key_slots] = keys, found
                line_bytes[:, :24] = words.view(np.uint8).reshape(-1, 24)
                line = line_bytes.tobytes().translate(None, b"\0")[:-1] + b"\n"  # NULs dropped
                if i in last:
                    text[i] = line
            else:
                line = text.pop(j) if last[j] == i else text[j]
            fh.write(line)


def _write_mask_csv(path: Path, mask: np.ndarray) -> None:
    """A boolean grid as a CSV of 0 and 1, built as one byte array: each cell's digit,
    then ',' or, after a row's last cell, '\\n'."""
    text = np.full((mask.shape[0], 2 * mask.shape[1]), ord(","), dtype=np.uint8)
    np.add(mask, ord("0"), out=text[:, ::2], dtype=np.uint8)
    text[:, -1] = ord("\n")
    path.write_bytes(text)


# ---------------------------------------------------------------------------
# hopf inspection
# ---------------------------------------------------------------------------

def hopf_report(kind: str, theta) -> dict:
    """Base coordinates, intrinsic angles (with singular markers), and fiber
    quaternions of the ansatz state, as a JSON-ready dict."""
    kind = ansatz.resolve_kind(kind)
    state = ansatz.prepare_state(kind, theta)
    base = geometry.hopf_base(state)
    fiber = geometry.hopf_fiber(state)
    return {
        "ansatz": kind,
        "theta": [float(v) for v in np.atleast_1d(theta)],
        "x": [float(v) for v in base.x],
        "sum_x_sq": float(np.dot(base.x, base.x)),
        "theta_a": base.theta_a,
        "phi_a": base.phi_a,
        "chi": base.chi,
        "xi": base.xi,
        "singular": list(base.singular),
        "concurrence": float(geometry.concurrence(state)),
        "q_plus": [float(v) for v in fiber.q_plus],
        "q_minus": [float(v) for v in fiber.q_minus],
        "fiber_norm_sum": geometry.quat_norm2(fiber.q_plus) + geometry.quat_norm2(fiber.q_minus),
    }


# ---------------------------------------------------------------------------
# validation suites (runtime self-checks; the pytest suite is independent)
# ---------------------------------------------------------------------------

def _state_concurrence(kind: str, thetas: np.ndarray) -> np.ndarray:
    return geometry.concurrence(ansatz.prepare_state(kind, thetas))


def _suite_concurrence(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for kind in ansatz.ANSATZE:
        thetas = rng.uniform(0, 2 * np.pi, size=(10_000, ansatz.param_count(kind)))
        closed = ansatz.concurrence_closed(kind, thetas)
        worst = max(worst, float(np.abs(closed - _state_concurrence(kind, thetas)).max()))
    return worst <= 1e-9, f"max |closed - brute| = {worst:.3e} (tol 1e-9)"


def _suite_hopf(rng: np.random.Generator) -> tuple[bool, str]:
    # each sample draws its 4 real parts, then its 4 imaginary parts
    parts = rng.normal(size=(10_000, 2, 4))
    v = parts[:, 0] + 1j * parts[:, 1]
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    x = geometry.base_coordinates(v)
    worst_embed = float(np.abs(np.sum(x * x, axis=-1) - 1.0).max())
    worst_conc = float(np.abs(np.hypot(x[:, 2], x[:, 3]) - geometry.concurrence(v)).max())
    # 1,000 states per call bounds the memory of the stacked fiber intermediates
    worst_fiber = max(float(np.abs(geometry.quat_norm2(f.q_plus) + geometry.quat_norm2(f.q_minus)
                                   - 1.0).max())
                      for f in map(geometry.hopf_fiber, np.split(v, 10)))
    zero_worst = 0.0
    for kind, idx in ((ansatz.LDCA, (1, 4)), (ansatz.QGAN, (3,)), (ansatz.HEA, (2, 4))):
        thetas = rng.uniform(0, 2 * np.pi, (1000, ansatz.param_count(kind)))
        x = geometry.base_coordinates(ansatz.prepare_state(kind, thetas))
        zero_worst = max(zero_worst, float(np.abs(x[:, list(idx)]).max()))
    ok = max(worst_embed, worst_conc, worst_fiber, zero_worst) <= 1e-9
    return ok, (f"sum x^2 dev {worst_embed:.2e}, C identity dev {worst_conc:.2e}, "
                f"fiber norm dev {worst_fiber:.2e}, coordinate zeros {zero_worst:.2e} (tol 1e-9)")


def _suite_curvature(rng: np.random.Generator) -> tuple[bool, str]:
    # a child stream, so that these are not the points the concurrence suite draws
    rng = rng.spawn(1)[0]
    worst = 0.0
    for kind in ansatz.ANSATZE:
        thetas = rng.uniform(0, 2 * np.pi, size=(10_000, ansatz.param_count(kind)))
        c = _state_concurrence(kind, thetas)  # not the closed form that the curvature uses
        keep = c <= 0.99
        r_circ = np.asarray(ansatz.ricci_circuit_grid(kind, thetas))[keep]
        r_closed = geometry.ricci_closed(c[keep])
        worst = max(worst, float((np.abs(r_circ - r_closed) / (1.0 + np.abs(r_closed))).max()))
    s = np.linspace(-0.99, 0.99, 397)
    pf = np.abs(12 + 1 / (s - 1) - 1 / (s + 1) - geometry.ricci_closed(s)).max()
    t3, t5 = np.meshgrid(np.linspace(0.05, 0.7, 40), np.linspace(0.05, 0.7, 40))
    ldca_lhs = 12 - 2 / (np.cos(2 * t3) ** 2 * np.cos(2 * t5) ** 2)
    grid = np.stack([np.zeros_like(t3), np.zeros_like(t3), t3, np.zeros_like(t3), t5], axis=-1)
    ldca_rhs = geometry.ricci_closed(np.asarray(ansatz.concurrence_closed(ansatz.LDCA, grid)))
    ldca_dev = float((np.abs(ldca_lhs - ldca_rhs) / (1 + np.abs(ldca_rhs))).max())
    ok = worst <= 1e-8 and pf <= 1e-8 and ldca_dev <= 1e-8
    return ok, (f"universal-form rel dev {worst:.2e}, partial-fraction dev {pf:.2e}, "
                f"ldca identity dev {ldca_dev:.2e} (tol 1e-8)")


# the exactly known entries of the dense hea and ldca metrics; NaN marks an entry that varies
_KNOWN_METRIC = {ansatz.HEA: np.eye(4), ansatz.LDCA: np.diag([0.0, 0.0, 1.0, 0.0, 0.0])}
_KNOWN_METRIC[ansatz.HEA][[0, 2, 1, 3, 2, 3], [2, 0, 3, 1, 3, 2]] = np.nan
_KNOWN_METRIC[ansatz.LDCA][4, 4] = np.nan


def _known_entry_dev(kind: str, metric: np.ndarray) -> float:
    """max |metric - known value| over the known entries of a (k, m, m) stack of kind's dense
    metrics; NaN if one of those entries is NaN."""
    known = _KNOWN_METRIC[kind]
    fixed = ~np.isnan(known)
    return float(np.abs(metric[:, fixed] - known[fixed]).max())


def _suite_qgt(rng: np.random.Generator) -> tuple[bool, str]:
    msgs = []
    ok = True
    herm_worst = psd_worst = 0.0
    lam_min, known_dev = {}, []
    for kind in ansatz.ANSATZE:
        thetas = rng.uniform(0, 2 * np.pi, (1000, ansatz.param_count(kind)))
        psi, jac = ansatz.state_and_jacobian(kind, thetas)
        g = qgt.qgt_from_state(psi, jac)
        herm_worst = max(herm_worst, float(np.abs(g - g.conj().swapaxes(-1, -2)).max()))
        metric = qgt._metric_from_qgt(g, qgt.block_mask(kind, qgt.DENSE))
        w = np.linalg.eigvalsh(metric)
        psd_worst = min(psd_worst, float(w[:, 0].min()))
        lam_min[kind] = w[:, 0]
        if kind in _KNOWN_METRIC:
            known_dev.append(_known_entry_dev(kind, metric))
    ok &= herm_worst <= 1e-10 and psd_worst >= -1e-10
    msgs.append(f"hermiticity {herm_worst:.1e}, min eigenvalue {psd_worst:.1e}")
    dev = float(np.max(known_dev))  # NaN, and so a FAIL, if either family's reads NaN
    ok &= dev <= 1e-8
    msgs.append(f"hea/ldca constant entries dev {dev:.1e}")
    sing = max(lam_min[ansatz.HEA].max(), lam_min[ansatz.LDCA].max())
    qgan_med = float(np.median(lam_min[ansatz.QGAN]))
    shea_med = float(np.median(lam_min[ansatz.SHEA]))
    ok &= sing < 1e-10 and qgan_med > 1e-6 and shea_med > 1e-6
    msgs.append(f"hea/ldca singular (max lam_min {sing:.1e}); "
                f"qgan/shea median lam_min {qgan_med:.1e}/{shea_med:.1e}")
    return ok, "; ".join(msgs)


def _five_point(f, h):
    """d/dx from f at x + 2h, x + h, x - h, x - 2h along the leading axis; error O(h^4)."""
    return (8 * (f[1] - f[2]) - (f[0] - f[3])) / (12 * h)


def _suite_gradients(rng: np.random.Generator) -> tuple[bool, str]:
    # At h = 1e-3 the truncation error, h^4/30 times a fifth derivative of at most 2^5 sum|nu|,
    # and the rounding of energies of size sum|nu|, divided by h, are each about 1e-11
    h = 1e-3
    worst_g = worst_j = 0.0
    for kind in ansatz.ANSATZE:
        # 200 parameter rows, then one Hamiltonian: E and its gradient are linear in H, so one
        # H with all six coefficients nonzero checks each term's part of the gradient
        theta = rng.uniform(0, 2 * np.pi, (200, ansatz.param_count(kind)))
        ham = vqe.Hamiltonian(nu=tuple(rng.normal(size=6)))
        psi, jac = ansatz.state_and_jacobian(kind, theta)
        # row j of a sample's shifted states: theta + 2h e_j, + h e_j, - h e_j, - 2h e_j
        shift = np.array([2, 1, -1, -2])[:, None, None, None] * h * np.eye(theta.shape[1])
        psi_s = ansatz.prepare_state(kind, theta[:, None] + shift)
        worst_j = max(worst_j, float(np.abs(_five_point(psi_s, h) - jac.mT).max()))
        fd = _five_point(vqe.energy(ham, psi_s), h)
        worst_g = max(worst_g, float(np.abs(vqe.energy_and_gradient(ham, psi, jac)[1] - fd).max()))
    ok = worst_g <= 1e-6 and worst_j <= 1e-6
    return ok, (f"five-point h=1e-3: energy grad dev {worst_g:.2e}, "
                f"jacobian dev {worst_j:.2e} (tol 1e-6)")


def _round_sphere(x: np.ndarray) -> np.ndarray:
    """The unit 2-sphere's metric diag(1, sin^2 x_0) at (..., 2) points."""
    g = np.zeros(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = np.float_power(np.sin(x[..., 0]), 2)  # libm pow, as ** 2 on one point
    return g


def _suite_chart(rng: np.random.Generator) -> tuple[bool, str]:
    sphere = np.stack(np.broadcast_arrays(np.linspace(0.4, np.pi - 0.4, 20), 0.3), axis=-1)
    dev_s2 = float(np.abs(geometry.scalar_curvature_stack(_round_sphere, sphere) - 2.0).max())
    flat = lambda x: np.broadcast_to(np.eye(4), x.shape[:-1] + (4, 4))
    dev_flat = abs(float(geometry.scalar_curvature_stack(flat, [[0.1, 0.2, 0.3, 0.4]])[0]))
    try:
        conv, devs = geometry.resolve_chart_convention()
    except RuntimeError as exc:
        return False, str(exc)
    ok = dev_s2 <= 1e-4 and dev_flat <= 1e-6 and conv == geometry.SIN_ON_DTHETA
    return ok, (f"sphere dev {dev_s2:.1e}, flat dev {dev_flat:.1e}; resolved convention "
                f"{conv} (deviations {{{', '.join(f'{k}: {v:.2e}' for k, v in devs.items())}}})")


VALIDATION_SUITES = (
    ("concurrence-equivalence", _suite_concurrence),
    ("hopf-invariants", _suite_hopf),
    ("curvature-consistency", _suite_curvature),
    ("qgt-structure", _suite_qgt),
    ("gradient-check", _suite_gradients),
    ("chart-convention", _suite_chart),
)


def run_validation() -> tuple[bool, list[tuple[str, bool, str]]]:
    """Run every oracle suite, each on a generator seeded with 7; returns the
    overall flag plus per-suite rows. A suite that raises is a failed row."""
    rows = []
    all_ok = True
    for name, fn in VALIDATION_SUITES:
        try:
            ok, detail = fn(np.random.default_rng(7))
        except MemoryError:  # the host's limit, not a fault in what the suite checks
            raise
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        rows.append((name, ok, detail))
        all_ok &= ok
    return all_ok, rows
