"""Experiment orchestration and result persistence.

Everything here writes plain CSV/JSON; plotting is left to external
consumers. Per-trial VQE traces use the fixed column set

    step, energy, energy_error, concurrence, ricci, grad_norm, theta_1 .. theta_m

and the run summary JSON carries per-step mean/std across trials (shorter
traces are padded by carrying their final record forward), the per-trial
steps-to-threshold statistics and QNG fallback counts, and the inversion policy.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import ansatz, geometry, optimize, qgt, vqe

CHEMICAL_ACCURACY = 1e-3
DEFAULT_TRIALS = 50
DEFAULT_GRID = 201
DEFAULT_CLIP = (-5.0, 10.0)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    opt: optimize.OptConfig
    hamiltonian_path: str | Path
    trials: int = DEFAULT_TRIALS
    out_dir: str | Path = "out"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        object.__setattr__(self, "kind", ansatz.resolve_kind(self.kind))


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trace_csv(path: Path, trace: list[optimize.TraceRecord]) -> None:
    m = len(trace[0].theta)
    header = ["step", "energy", "energy_error", "concurrence", "ricci",
              "grad_norm"] + [f"theta_{j + 1}" for j in range(m)]
    lines = [",".join(header)]
    for rec in trace:
        row = [str(rec.step), _fmt(rec.energy), _fmt(rec.energy_error),
               _fmt(rec.concurrence), _fmt(rec.ricci),
               _fmt(rec.grad_norm)] + [_fmt(v) for v in rec.theta]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _padded_series(traces, attr: str, n_steps: int) -> np.ndarray:
    out = np.empty((len(traces), n_steps + 1))
    for i, trace in enumerate(traces):
        vals = [getattr(rec, attr) for rec in trace]
        vals += [vals[-1]] * (n_steps + 1 - len(vals))
        out[i] = vals
    return out


def summarize(traces, config: optimize.OptConfig,
              threshold: float = CHEMICAL_ACCURACY) -> dict:
    n_steps = config.max_steps
    summary: dict = {"steps": list(range(n_steps + 1))}
    for attr, key in (("energy_error", "energy_error"),
                      ("concurrence", "concurrence"),
                      ("ricci", "ricci")):
        series = _padded_series(traces, attr, n_steps)
        summary[f"{key}_mean"] = [float(v) for v in series.mean(axis=0)]
        summary[f"{key}_std"] = [float(v) for v in series.std(axis=0)]
    stt = [optimize.steps_to_threshold(t, threshold) for t in traces]
    summary["threshold"] = threshold
    summary["steps_to_threshold"] = stt
    summary["reached_fraction"] = sum(s is not None for s in stt) / len(stt)
    med = float(np.median([s if s is not None else math.inf for s in stt]))
    summary["median_steps_to_threshold"] = None if math.isinf(med) else med
    return summary


def run_vqe_experiment(config: ExperimentConfig) -> dict:
    """Run the multi-trial experiment and write trial CSVs plus summary.json."""
    hamiltonian = vqe.Hamiltonian.from_json(config.hamiltonian_path)
    ground = vqe.exact_ground(hamiltonian)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traces = optimize.run_trials(config.kind, hamiltonian, config.opt, config.trials)
    for stale in out.glob("trial_*.csv"):  # left by an earlier run with more trials
        stale.unlink()
    for k, trace in enumerate(traces):
        write_trace_csv(out / f"trial_{k:03d}.csv", trace)
    inversion = config.opt.inversion
    summary = {
        "ansatz": config.kind,
        "optimizer": config.opt.optimizer,
        "metric_mode": config.opt.metric_mode,
        "inversion": {"policy": "tikhonov" if isinstance(inversion, qgt.Tikhonov) else "pinv",
                      **asdict(inversion)},
        "learning_rate": config.opt.learning_rate,
        "tol": config.opt.tol,
        "max_steps": config.opt.max_steps,
        "seed": config.opt.seed,
        "trials": config.trials,
        "qng_fallback_steps": [sum(rec.qng_fallback for rec in trace) for trace in traces],
        "hamiltonian": {"label": hamiltonian.label, "nu": list(hamiltonian.nu),
                        "ground_energy": ground.energy,
                        "ground_concurrence": ground.concurrence},
    }
    summary.update(summarize(traces, config.opt))
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return summary


# ---------------------------------------------------------------------------
# curvature landscape scans
# ---------------------------------------------------------------------------

def scan_landscape(kind: str, scan_indices: tuple[int, int], fixed_theta=None,
                   resolution: int = DEFAULT_GRID, clip: tuple[float, float] = DEFAULT_CLIP,
                   out_prefix: str | Path | None = None) -> tuple[np.ndarray, np.ndarray, dict]:
    """Grid of per-circuit scalar curvature over two scanned parameters.

    Both scanned parameters run over [0, 2 pi] inclusive. Values are clipped
    to the given bounds; the boolean mask marks exactly the cells whose
    unclipped value fell outside them (the C -> 1 pole gives -inf, which
    clips to the lower bound). Rows follow the first scanned index.
    """
    kind = ansatz.resolve_kind(kind)
    m = ansatz.param_count(kind)
    a, b = scan_indices
    if not (0 <= a < m and 0 <= b < m) or a == b:
        raise ValueError(f"scan indices must be two distinct indices in [0, {m})")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    lo, hi = float(clip[0]), float(clip[1])
    if not lo < hi:
        raise ValueError("clip bounds must satisfy lo < hi")
    base = np.zeros(m) if fixed_theta is None else np.asarray(fixed_theta, dtype=float)
    if base.shape != (m,):
        raise ValueError(f"fixed parameter vector must have length {m}")
    axis = np.linspace(0.0, 2.0 * np.pi, resolution)
    grid_theta = np.broadcast_to(base, (resolution, resolution, m)).copy()
    grid_theta[:, :, a] = axis[:, None]
    grid_theta[:, :, b] = axis[None, :]
    raw = ansatz.ricci_circuit_grid(kind, grid_theta)
    mask = (raw < lo) | (raw > hi)
    values = np.clip(raw, lo, hi)
    meta = {"ansatz": kind, "scan_indices": [a, b], "fixed_theta": base.tolist(),
            "resolution": resolution, "clip": [lo, hi], "axis": axis.tolist()}
    if out_prefix is not None:
        prefix = Path(out_prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        _write_grid_csv(prefix.with_suffix(".csv"), values)
        _write_grid_csv(prefix.parent / (prefix.name + "_mask.csv"), mask.astype(int))
        (prefix.parent / (prefix.name + "_meta.json")).write_text(
            json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return values, mask, meta


def _write_grid_csv(path: Path, grid: np.ndarray) -> None:
    lines = [",".join(_fmt(v) if isinstance(v, float) or np.issubdtype(type(v), np.floating)
                      else str(int(v)) for v in row) for row in grid]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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

def _suite_concurrence(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for kind in ansatz.ANSATZE:
        thetas = rng.uniform(0, 2 * np.pi, size=(10_000, ansatz.param_count(kind)))
        closed = ansatz.concurrence_closed(kind, thetas)
        # 1,000 samples per call bounds the memory of the Jacobians built alongside
        brute = np.concatenate([geometry.concurrence(ansatz.prepare_state(kind, part))
                                for part in np.split(thetas, 10)])
        worst = max(worst, float(np.abs(closed - brute).max()))
    return worst <= 1e-9, f"max |closed - brute| = {worst:.3e} (tol 1e-9)"


def _suite_hopf(rng: np.random.Generator) -> tuple[bool, str]:
    # each sample draws its 4 real parts, then its 4 imaginary parts
    parts = rng.normal(size=(10_000, 2, 4))
    v = parts[:, 0] + 1j * parts[:, 1]
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    x = geometry.base_coordinates(v)
    worst_embed = float(np.abs(np.sum(x * x, axis=-1) - 1.0).max())
    worst_conc = float(np.abs(np.hypot(x[:, 2], x[:, 3]) - geometry.concurrence(v)).max())
    worst_fiber = 0.0
    for state in v:
        f = geometry.hopf_fiber(state)
        worst_fiber = max(worst_fiber, abs(
            geometry.quat_norm2(f.q_plus) + geometry.quat_norm2(f.q_minus) - 1.0))
    zero_worst = 0.0
    for kind, idx in ((ansatz.LDCA, (1, 4)), (ansatz.QGAN, (3,)), (ansatz.HEA, (2, 4))):
        thetas = rng.uniform(0, 2 * np.pi, (1000, ansatz.param_count(kind)))
        x = geometry.base_coordinates(ansatz.prepare_state(kind, thetas))
        zero_worst = max(zero_worst, float(np.abs(x[:, list(idx)]).max()))
    ok = max(worst_embed, worst_conc, worst_fiber, zero_worst) <= 1e-9
    return ok, (f"sum x^2 dev {worst_embed:.2e}, C identity dev {worst_conc:.2e}, "
                f"fiber norm dev {worst_fiber:.2e}, coordinate zeros {zero_worst:.2e} (tol 1e-9)")


def _suite_curvature(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for kind in ansatz.ANSATZE:
        thetas = rng.uniform(0, 2 * np.pi, size=(10_000, ansatz.param_count(kind)))
        c = np.asarray(ansatz.concurrence_closed(kind, thetas))
        keep = c <= 0.99
        r_circ = np.asarray(ansatz.ricci_circuit_grid(kind, thetas))[keep]
        r_closed = geometry.ricci_closed(c[keep])
        worst = max(worst, float((np.abs(r_circ - r_closed) / (1.0 + np.abs(r_closed))).max()))
    s = np.linspace(-0.99, 0.99, 397)
    pf = np.abs(12 + 1 / (s - 1) - 1 / (s + 1) - 2 * (6 * s**2 - 5) / (s**2 - 1)).max()
    t3, t5 = np.meshgrid(np.linspace(0.05, 0.7, 40), np.linspace(0.05, 0.7, 40))
    ldca_lhs = 12 - 2 / (np.cos(2 * t3) ** 2 * np.cos(2 * t5) ** 2)
    grid = np.stack([np.zeros_like(t3), np.zeros_like(t3), t3, np.zeros_like(t3), t5], axis=-1)
    ldca_rhs = geometry.ricci_closed(np.asarray(ansatz.concurrence_closed(ansatz.LDCA, grid)))
    ldca_dev = float((np.abs(ldca_lhs - ldca_rhs) / (1 + np.abs(ldca_rhs))).max())
    ok = worst <= 1e-8 and pf <= 1e-8 and ldca_dev <= 1e-8
    return ok, (f"universal-form rel dev {worst:.2e}, partial-fraction dev {pf:.2e}, "
                f"ldca identity dev {ldca_dev:.2e} (tol 1e-8)")


def _suite_qgt(rng: np.random.Generator) -> tuple[bool, str]:
    msgs = []
    ok = True
    herm_worst = psd_worst = 0.0
    lam_min = {}
    for kind in ansatz.ANSATZE:
        lams = []
        # 250 samples per call bounds the memory of the stacked tensors
        for th in np.split(rng.uniform(0, 2 * np.pi, (1000, ansatz.param_count(kind))), 4):
            g = qgt.qgt_full(kind, th)
            herm_worst = max(herm_worst, float(np.abs(g - g.conj().swapaxes(-1, -2)).max()))
            w = np.linalg.eigvalsh(0.5 * (g.real + g.real.swapaxes(-1, -2)))
            psd_worst = min(psd_worst, float(w[:, 0].min()))
            lams.append(w[:, 0])
        lam_min[kind] = np.concatenate(lams)
    ok &= herm_worst <= 1e-10 and psd_worst >= -1e-10
    msgs.append(f"hermiticity {herm_worst:.1e}, min eigenvalue {psd_worst:.1e}")
    # the exactly-known constant entries of the hea and ldca metrics; each of the
    # 200 samples draws its 4 hea parameters, then its 5 ldca parameters
    thetas = rng.uniform(0, 2 * np.pi, (200, 9))
    g = qgt.fs_metric(ansatz.HEA, thetas[:, :4])
    expected = np.broadcast_to(np.eye(4), g.shape).copy()
    for (i, j) in ((0, 2), (1, 3), (2, 3)):
        expected[:, i, j] = expected[:, j, i] = g[:, i, j]  # non-constant entries pass through
    dev = float(np.abs(g - expected).max())
    g = qgt.fs_metric(ansatz.LDCA, thetas[:, 4:])
    expected = np.zeros_like(g)
    expected[:, 2, 2] = 1.0  # constant mixing-entry of the closed-form map
    expected[:, 4, 4] = g[:, 4, 4]
    dev = max(dev, float(np.abs(g - expected).max()))
    ok &= dev <= 1e-8
    msgs.append(f"hea/ldca constant entries dev {dev:.1e}")
    sing = max(lam_min[ansatz.HEA].max(), lam_min[ansatz.LDCA].max())
    qgan_med = float(np.median(lam_min[ansatz.QGAN]))
    shea_med = float(np.median(lam_min[ansatz.SHEA]))
    ok &= sing < 1e-10 and qgan_med > 1e-6 and shea_med > 1e-6
    msgs.append(f"hea/ldca singular (max lam_min {sing:.1e}); "
                f"qgan/shea median lam_min {qgan_med:.1e}/{shea_med:.1e}")
    return ok, "; ".join(msgs)


def _suite_gradients(rng: np.random.Generator) -> tuple[bool, str]:
    worst_g = worst_j = 0.0
    h = 1e-5
    for _ in range(1000):
        kind = ansatz.ANSATZE[rng.integers(len(ansatz.ANSATZE))]
        m = ansatz.param_count(kind)
        theta = rng.uniform(0, 2 * np.pi, m)
        ham = vqe.Hamiltonian(nu=tuple(rng.normal(size=6)))
        psi, jac = ansatz.state_and_jacobian(kind, theta)
        grad = vqe.gradient_from_state(ham, psi, jac)
        # row j of psi_p / psi_m is the state at theta +- h e_j
        shift = h * np.eye(m)
        psi_p, psi_m = ansatz.prepare_state(kind, np.stack([theta + shift, theta - shift]))
        worst_j = max(worst_j, float(np.abs((psi_p - psi_m) / (2 * h) - jac.T).max()))
        fd = (vqe.energy(ham, psi_p) - vqe.energy(ham, psi_m)) / (2 * h)
        worst_g = max(worst_g, float(np.abs(grad - fd).max()))
    ok = worst_g <= 1e-6 and worst_j <= 1e-6
    return ok, f"energy grad dev {worst_g:.2e}, jacobian dev {worst_j:.2e} (tol 1e-6)"


def _suite_chart(rng: np.random.Generator) -> tuple[bool, str]:
    s2 = lambda x: np.diag([1.0, np.sin(x[0]) ** 2])
    dev_s2 = max(abs(geometry.scalar_curvature_numeric(s2, [th, ph]) - 2.0)
                 for th in np.linspace(0.4, np.pi - 0.4, 20)
                 for ph in (0.3,))
    dev_flat = abs(geometry.scalar_curvature_numeric(lambda x: np.eye(4), [0.1, 0.2, 0.3, 0.4]))
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


def run_validation(seed: int = 7) -> tuple[bool, list[tuple[str, bool, str]]]:
    """Run every oracle suite; returns overall flag plus per-suite rows."""
    rows = []
    all_ok = True
    for name, fn in VALIDATION_SUITES:
        ok, detail = fn(np.random.default_rng(seed))
        rows.append((name, ok, detail))
        all_ok &= ok
    return all_ok, rows
